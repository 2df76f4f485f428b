"""Monte Carlo oracle: simulate the factor model and validate the engine.

The sampler uses the sector decomposition of CreditRisk+.  Given the Gamma
factors S (unit mean, S_0 = 1 for the idiosyncratic sector), sector k is one
Poisson source of defaults with intensity S_k mu_k, mu_k = sum_A p_A w_Ak,
and each of its defaults picks an (obligor, severity value) pair (A, v) with
probability p_A w_Ak q_A(v) / mu_k.  By Poisson thinning the counts of the
triples (A, k, v) are independent Poisson(S_k p_A w_Ak q_A(v)), so given S
the default counts D_A are independent Poisson(p_A^S), p_A^S = p_A sum_k
w_Ak S_k, and every default carries an independent severity drawn from q_A:
exactly the factor model.  A batch of b draws holds the (b, N) factors, the
(N+1, b) sector intensities and counts, and one (draw, obligor, severity)
triple per default event; uniforms are drawn ``CHUNK`` events at a time.
Nothing is b x obligors.

A uniform u picks its pair through a guide table (Chen & Asau 1974; Devroye
1986, ch. III): bucket floor(u M) of the sector's M buckets names the first
pair the bucket can hold, one comparison settles the pick, and only buckets
that straddle two or more pair boundaries fall back to a binary search.  The
picks are those of a binary search over the whole table, bit for bit.

A counter-based Philox stream drives everything, in a fixed call order per
batch (gamma, poisson, uniform), so a given (seed, config) pair reproduces
tallies byte for byte.

Both estimators weight every draw instead of waiting for a rare event
(E[D_1 D_2 I(X = x)] = E[p_1^S p_2^S I(X + E_1 + E_2 = x)]): one pass of
``_tally`` sums w, w^2, w I(y = x) and w^2 I(y = x) over their (w, y) pairs.

``simulate``, ``estimate_conditional_one_default`` and
``verify_fundamental_identity`` share one sample: the process keeps the
read-only batch of its last run of at most ``BATCH`` draws, keyed by the
portfolio object, the seed and the number of draws, for as long as that
portfolio lives and no one-batch run with another key replaces it
(``_batches``).  The record holds 8 N bytes per draw for the factors, 8
per draw for the losses and 8 per default for (draw, obligor): about
3.6 MB for the reference book at 10^5 draws.  Runs of more than ``BATCH``
draws are drawn every time and keep nothing.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .portfolio import check_obligors

BATCH = 100_000
CHUNK = 8192  # events per guide lookup; bounds its scratch arrays and uniform buffer


class NoAcceptedDrawsError(ValueError):
    """No draw holds a default of the obligor an estimate conditions on."""


@dataclass(frozen=True)
class SimConfig:
    draws: int
    seed: int

    def __post_init__(self):
        if self.draws < 1:
            raise ValueError("draws must be >= 1")


@dataclass
class SimResult:
    """Tallies from a simulation run."""

    draws: int
    seed: int
    loss_counts: np.ndarray  # count of draws with loss x, x = 0..max observed
    default_totals: dict  # obligor id -> sum of default counts D_A
    factor_sums: np.ndarray  # per sector: sum of S_k
    factor_sumsq: np.ndarray  # per sector: sum of S_k^2

    def loss_mean(self):
        """Sample mean of the loss and its standard error."""
        x = np.arange(self.loss_counts.size, dtype=float)
        mean = float(np.dot(x, self.loss_counts)) / self.draws
        var = float(np.dot((x - mean) ** 2, self.loss_counts)) / max(self.draws - 1, 1)
        return mean, float(np.sqrt(var / self.draws))

    def to_csv(self):
        lines = ["loss,count"]
        lines.extend(f"{x},{int(c)}" for x, c in enumerate(self.loss_counts))
        return "\n".join(lines) + "\n"

    def sidecar(self):
        mean, se = self.loss_mean()
        return {
            "draws": self.draws,
            "seed": self.seed,
            "default_totals": {k: int(v) for k, v in self.default_totals.items()},
            "factor_mean": (self.factor_sums / self.draws).tolist(),
            "factor_second_moment": (self.factor_sumsq / self.draws).tolist(),
            "loss_mean": mean,
            "loss_mean_se": se,
        }


@dataclass(frozen=True)
class _Table:
    """One sector's default table and its guide (``_table``)."""

    cum: np.ndarray  # running sum of the pair masses
    owner: np.ndarray  # obligor row of each pair (int32)
    vals: np.ndarray  # severity value of each pair
    bound: np.ndarray  # cum with its last entry +inf
    guide: np.ndarray  # M entries: the first pair of bucket i, -1 if it needs a search


def _table(cum, owner, vals):
    """The ``_Table`` of the pairs with running mass ``cum``.

    A uniform u picks pair j = #{i < n - 1: cum[i] <= v}, v = u cum[-1]:
    the binary search ``searchsorted(cum, v, "right")`` clipped to n - 1, as
    v can round up to cum[-1].  The guide splits [0, 1) into M buckets, M
    the power of two >= 4n, and holds for bucket i the pick at its left
    edge, lo_i = #{cum[:-1] <= fl((i/M) cum[-1])}.  fl(x cum[-1]) is
    monotone in x, so every u of bucket i picks a pair in [lo_i, lo_{i+1}];
    where lo_{i+1} - lo_i <= 1 the pick is lo_i + (bound[lo_i] <= v), and
    ``bound`` (cum with cum[-1] replaced by +inf) makes that comparison
    false at the last pair.  Buckets that straddle two or more boundaries
    hold -1 and are searched.  At most (n - 1)/2 of the M >= 4n buckets do,
    so they take at most 1/8 of the uniforms; the guide costs M intp
    entries.
    """
    n = cum.size
    if n == 0:
        return _Table(cum, owner, vals, cum, np.zeros(0, dtype=np.intp))
    buckets = 1 << (4 * n - 1).bit_length()
    first = np.searchsorted(cum[:-1], (np.arange(buckets + 1) / buckets) * cum[-1], side="right")
    guide = first[:-1].copy()
    guide[np.diff(first) > 1] = -1
    bound = cum.copy()
    bound[-1] = np.inf
    return _Table(cum, owner, vals, bound, guide)


def _sector_tables(portfolio):
    """Intensities mu_k and default tables (``_Table``) of the sectors k = 0..N.

    Sector k's table lists the (obligor, severity value) pairs (A, v) of
    positive mass p_A w_Ak q_A(v), with the running sum of those masses, so
    a uniform u picks pair j with cum[j-1] <= u cum[-1] < cum[j].  The pairs
    come from ``portfolio.columns``, each obligor's by ascending loss.  Each
    table carries the guide of ``_table``.  Raises PortfolioError
    (``portfolio.check_obligors``) for an obligor that ``validate`` reports.
    """
    check_obligors(portfolio)
    c = portfolio.columns
    ascending = np.lexsort((c.value, c.owner))
    owner, vals = c.owner[ascending].astype(np.int32), c.value[ascending]
    mass = c.pd[owner] * c.prob[ascending]
    sev_type = np.int32 if vals.max(initial=0) <= np.iinfo(np.int32).max else np.int64
    tables = []
    for w in c.W[owner].T:
        m = mass * w
        keep = m > 0.0
        tables.append(_table(np.cumsum(m[keep]), owner[keep], vals[keep].astype(sev_type)))
    return c.pd @ c.W, tables, sev_type


def _scratch(size):
    """Work arrays for ``_pick`` on up to ``size`` uniforms: two intp, a float64, a mask."""
    return (np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp), np.empty(size),
            np.empty(size, dtype=bool))


def _pick(table, u, scratch):
    """Pair index of each uniform in ``u`` (``_table``); scales ``u`` to v in place.

    Works in the ``_scratch`` arrays and returns a view of one of them; only
    the binary search of the uniforms in buckets marked -1 makes new arrays.
    ``take`` in mode "wrap" writes straight into ``out`` (mode "raise" fills
    a fresh copy per call) and maps -1 to the last entry.
    """
    bucket, pick, x, hit = (a[:u.size] for a in scratch)
    np.multiply(u, table.guide.size, out=x)
    np.copyto(bucket, x, casting="unsafe")  # floor(u M): u M >= 0 is exact
    np.take(table.guide, bucket, out=pick, mode="wrap")
    u *= table.cum[-1]
    np.take(table.bound, pick, out=x, mode="wrap")  # a -1 reads bound[-1] = +inf, stays -1
    np.less_equal(x, u, out=hit)
    pick += hit
    if pick.min() < 0:
        search = pick < 0
        pick[search] = np.searchsorted(table.cum[:-1], u[search], side="right")
    return pick


_kept = None  # (weakref to the portfolio, (seed, draws), batch): the one kept sample


def _forget(ref):
    """Weakref callback: drop the kept sample once its portfolio is gone."""
    global _kept
    if _kept is not None and _kept[0] is ref:
        _kept = None


def _batches(portfolio, cfg):
    """Yield (S, draw, obligor, X) per batch in a fixed deterministic order.

    S: (b, N) factors; X: (b,) losses.  ``draw`` and ``obligor`` (int32)
    hold one entry per default event: the batch row it falls in and the
    obligor that defaults.

    A run of one batch (``cfg.draws <= BATCH``) is kept (module
    docstring): the process holds the read-only tuple of its last such
    run, keyed by the portfolio object (weakly referenced), ``cfg.seed``
    and ``cfg.draws``, and a pass with that key yields it again after
    ``check_obligors``.  Longer runs stream from ``_sample`` every time
    and keep nothing.
    """
    global _kept
    if cfg.draws > BATCH:
        yield from _sample(portfolio, cfg)
        return
    kept = _kept
    if kept is not None and kept[0]() is portfolio and kept[1] == (cfg.seed, cfg.draws):
        check_obligors(portfolio)
        yield kept[2]
        return
    _kept = None  # the old sample is not held while the new one is drawn
    batch = next(_sample(portfolio, cfg))
    for a in batch:
        a.flags.writeable = False
    _kept = (weakref.ref(portfolio, _forget), (cfg.seed, cfg.draws), batch)
    yield batch


def _sample(portfolio, cfg):
    """Draw the batches of ``_batches`` afresh from the seed.

    Per batch the sector counts N_k ~ Poisson(S_k mu_k) come from one (N+1,
    b) call, each event takes one uniform, and the sector's guide table
    (``_pick``) maps the uniforms to (obligor, severity) pairs, ``CHUNK``
    events at a time, written straight into the event arrays.  Each chunk's
    uniforms are drawn into one ``CHUNK``-sized buffer by
    ``Generator.random(out=...)``: Philox continues its stream across
    calls, so they are bitwise the slices of one whole-batch draw.  X is
    the per-row sum of the event severities, taken by ``np.bincount`` over
    pieces of max(b, ``CHUNK``) events in turn (16 bytes of float copies per
    event of one piece); float sums of integers are exact below 2^53.  The
    event rows are written before the lookup, so the (N+1) x b counts are
    freed before it.  Memory per batch is about (N+1) b numbers plus three
    int32 entries per event.  The lookup's work arrays and the uniform
    buffer hold 33 bytes per event of one chunk (270 kB) and are allocated
    once per call, not per chunk.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    mu, tables, sev_type = _sector_tables(portfolio)
    alphas = np.array([s.alpha for s in portfolio.sectors])
    n = alphas.size
    rows = np.arange(min(BATCH, cfg.draws), dtype=np.int32)
    scratch, uniforms = _scratch(CHUNK), np.empty(CHUNK)
    done = 0
    while done < cfg.draws:
        b = min(BATCH, cfg.draws - done)
        done += b
        if n:
            factors = rng.gamma(shape=alphas, scale=1.0 / alphas, size=(b, n))
        else:
            factors = np.zeros((b, 0))
        intensity = np.empty((n + 1, b))
        intensity[0] = mu[0]
        np.multiply(factors.T, mu[1:, None], out=intensity[1:])
        counts = rng.poisson(intensity)
        del intensity
        totals = counts.sum(axis=1)
        events = int(totals.sum())
        draw = np.empty(events, dtype=np.int32)
        start = 0
        for count, total in zip(counts, totals):
            stop = start + int(total)
            draw[start:stop] = np.repeat(rows[:b], count)
            start = stop
        del counts, count  # the loop's row view keeps counts alive; freed before the lookup
        obligor = np.empty(events, dtype=np.int32)
        sev = np.empty(events, dtype=sev_type)
        start = 0
        for table, total in zip(tables, totals):
            if total == 0:
                continue
            stop = start + int(total)
            for lo in range(start, stop, CHUNK):
                hi = min(lo + CHUNK, stop)
                u = rng.random(out=uniforms[:hi - lo])
                pick = _pick(table, u, scratch)
                np.take(table.owner, pick, out=obligor[lo:hi], mode="wrap")
                np.take(table.vals, pick, out=sev[lo:hi], mode="wrap")
            start = stop
        losses = np.zeros(b)
        piece = max(b, CHUNK)
        for lo in range(0, sev.size, piece):
            losses += np.bincount(draw[lo:lo + piece], weights=sev[lo:lo + piece], minlength=b)
        del sev
        yield factors, draw, obligor, losses.astype(np.int64)


def simulate(portfolio, cfg):
    """Run the simulation and tally losses and default counts."""
    n = portfolio.n_sectors
    ids = portfolio.ids
    loss_counts = np.zeros(0, dtype=np.int64)
    default_totals = np.zeros(len(ids), dtype=np.int64)
    factor_sums = np.zeros(n)
    factor_sumsq = np.zeros(n)
    for factors, draw, obligor, losses in _batches(portfolio, cfg):
        top = int(losses.max()) + 1 if losses.size else 1
        if top > loss_counts.size:
            loss_counts = np.concatenate(
                [loss_counts, np.zeros(top - loss_counts.size, dtype=np.int64)]
            )
        loss_counts += np.bincount(losses, minlength=loss_counts.size)
        default_totals += np.bincount(obligor, minlength=len(ids))
        factor_sums += factors.sum(axis=0)
        factor_sumsq += (factors**2).sum(axis=0)
    return SimResult(
        draws=cfg.draws,
        seed=cfg.seed,
        loss_counts=loss_counts,
        default_totals=dict(zip(ids, default_totals)),
        factor_sums=factor_sums,
        factor_sumsq=factor_sumsq,
    )


def _tally(portfolio, cfg, limit, observe):
    """One pass over ``_batches``: [sum w, sum w^2, sum w I(y = x), sum w^2
    I(y = x)], x = 0..limit, for each (w, y) pair that ``observe(factors,
    draw, obligor, losses)`` returns per batch, a weight (float, or bool for
    an indicator, 1 byte per draw) and an integer loss level per draw.  A
    level above ``limit`` counts in the first two only."""
    sums = None
    for batch in _batches(portfolio, cfg):
        pairs = observe(*batch)
        if sums is None:
            sums = [[0.0, 0.0, np.zeros(limit + 1), np.zeros(limit + 1)] for _ in pairs]
        for s, (w, y) in zip(sums, pairs):
            inside = y <= limit
            for j, v in enumerate((w, w * w)):
                s[j] += v.sum()
                s[j + 2] += np.bincount(y[inside], weights=v[inside], minlength=limit + 1)
    return sums


def _ratio(sums, n):
    """sum w I(y = x) / sum w of a ``_tally`` over n draws and its delta-method SE."""
    w, w2, wx, w2x = sums
    ratio = wx / w
    var_term = w2x / n - 2 * ratio * (w2x / n) + ratio**2 * (w2 / n)
    return ratio, np.sqrt(np.maximum(var_term, 0.0) / n) / (w / n)


@dataclass
class ConditionalEstimate:
    """Two estimators of the loss pmf conditional on one obligor's default.

    ``weighted`` reweights every draw by its default count D_A (unbiased for
    the analytical mixture); ``rejection`` keeps draws with D_A >= 1 (the
    intuitive conditioning, biased low on the intensity scale since
    P[D_A > 0] < p_A).  Standard errors accompany both.
    """

    obligor: str
    draws: int
    weighted: np.ndarray
    weighted_se: np.ndarray
    rejection: np.ndarray
    rejection_se: np.ndarray
    accepted: int
    weight_total: float


def estimate_conditional_one_default(portfolio, obligor_id, cfg, limit):
    """Estimate the single-default conditional loss pmf on {0..limit}.

    ``weighted`` and ``rejection`` are the ``_ratio`` of the pairs (D_A, X)
    and (I(D_A >= 1), X); for the 0/1 weight the delta-method SE is the
    binomial sqrt(R (1 - R) / accepted).
    """
    idx = portfolio.row(obligor_id)
    if portfolio.columns.pd[idx] == 0.0:
        raise ValueError(f"obligor {obligor_id}: pd is 0, no defaults to condition on")

    def observe(factors, draw, obligor, losses):
        d = np.bincount(draw[obligor == idx], minlength=losses.size).astype(float)
        return (d, losses), (d >= 1, losses)

    counts, hits = _tally(portfolio, cfg, limit, observe)
    accepted = int(hits[0])  # sum I(D_A >= 1)
    if accepted == 0:
        raise NoAcceptedDrawsError(f"obligor {obligor_id}: zero accepted draws")
    n = cfg.draws
    return ConditionalEstimate(obligor_id, n, *_ratio(counts, n), *_ratio(hits, n),
                               accepted=accepted, weight_total=counts[0])


def verify_fundamental_identity(portfolio, id1, id2, x, cfg):
    """Estimate both sides of the default-weighted loss identity.

    Left: E[I(X = x) * prod_i D_{A(i)}].  Right: E[I(X = x - sum_i E_i) *
    prod_i p^S_{A(i)}] with fresh independent severity draws E_i.  Both
    sides use the same factor and loss draws (common random numbers); they
    agree in expectation, so the estimates should match within Monte Carlo
    error.  One ``_tally`` of the pairs (prod_i D, X) and (prod_i p^S, X +
    sum_i E_i) gives both.  ``id2`` may be None for the one-obligor case.
    """
    i1 = portfolio.row(id1)
    i2 = None if id2 is None else portfolio.row(id2)
    if i2 is not None and i1 == i2:
        raise ValueError("obligors must differ")
    c = portfolio.columns
    sevs = {}
    for i in [i1] if i2 is None else [i1, i2]:
        j = slice(c.start[i], c.start[i + 1])
        ascending = np.argsort(c.value[j])  # by ascending loss
        sevs[i] = c.value[j][ascending], c.prob[j][ascending], c.pd[i], c.W[i]
    # Independent severity stream for the right-hand side's fresh draws.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([cfg.seed, 977])))

    def observe(factors, draw, obligor, losses):
        defaults = np.ones(losses.size)
        prod_ps = np.ones(losses.size)
        shift = np.zeros(losses.size, dtype=np.int64)
        for i, (vals, probs, pd, w) in sevs.items():
            defaults *= np.bincount(draw[obligor == i], minlength=losses.size)
            # p_A^S = p_A (w_A0 + sum_k w_Ak S_k); S_0 = 1
            prod_ps *= pd * (w[0] + factors @ w[1:])
            shift += vals[0] if vals.size == 1 else rng.choice(vals, size=losses.size, p=probs)
        return (defaults, losses), (prod_ps, losses + shift)

    n = cfg.draws
    sides = []
    for _, _, wx, w2x in _tally(portfolio, cfg, max(x, 0), observe):
        hits, squares = (wx[x], w2x[x]) if x >= 0 else (0.0, 0.0)  # losses are never negative
        mean = hits / n
        sides += [mean, np.sqrt(max(squares / n - mean**2, 0.0) / n)]
    left_mean, left_se, right_mean, right_se = sides
    combined_se = float(np.hypot(left_se, right_se))
    return {
        "x": x,
        "obligors": [id1] if id2 is None else [id1, id2],
        "left": left_mean,
        "left_se": left_se,
        "right": right_mean,
        "right_se": right_se,
        "combined_se": combined_se,
        "consistent_3se": bool(abs(left_mean - right_mean) <= 3.0 * max(combined_se, 1e-300)),
    }
