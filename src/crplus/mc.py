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
    record_default_counts: bool = False

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
    default_counts: np.ndarray | None = None  # (draws, n_obligors) if recorded

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


def _sample_severities(rng, vals, probs, size):
    if vals.size == 1:
        return np.full(size, vals[0])
    return rng.choice(vals, size=size, p=probs)


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
    ``check_obligors``.  ``record_default_counts`` does not change the
    stream and is not part of the key.  Longer runs stream from
    ``_sample`` every time and keep nothing.
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


def _dense_counts(draw, obligor, b, n_obligors):
    """(b, n_obligors) default counts D_A per draw from the event arrays."""
    cell = draw.astype(np.int64) * n_obligors + obligor
    return np.bincount(cell, minlength=b * n_obligors).reshape(b, n_obligors)


def simulate(portfolio, cfg):
    """Run the simulation and tally losses and default counts."""
    n = portfolio.n_sectors
    ids = portfolio.ids
    loss_counts = np.zeros(0, dtype=np.int64)
    default_totals = np.zeros(len(ids), dtype=np.int64)
    factor_sums = np.zeros(n)
    factor_sumsq = np.zeros(n)
    recorded = [] if cfg.record_default_counts else None
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
        if recorded is not None:
            recorded.append(_dense_counts(draw, obligor, losses.size, len(ids)))
    return SimResult(
        draws=cfg.draws,
        seed=cfg.seed,
        loss_counts=loss_counts,
        default_totals=dict(zip(ids, default_totals)),
        factor_sums=factor_sums,
        factor_sumsq=factor_sumsq,
        default_counts=np.concatenate(recorded) if recorded is not None else None,
    )


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
    """Estimate the single-default conditional loss pmf on {0..limit}."""
    idx = portfolio.row(obligor_id)
    if portfolio.columns.pd[idx] == 0.0:
        raise ValueError(f"obligor {obligor_id}: pd is 0, no defaults to condition on")
    size = limit + 1
    sum_w = 0.0  # sum D_A
    sum_w2 = 0.0  # sum D_A^2
    sum_wx = np.zeros(size)  # sum D_A I(X = x)
    sum_w2x = np.zeros(size)  # sum D_A^2 I(X = x)
    acc_counts = np.zeros(size)
    accepted = 0
    for _, draw, obligor, losses in _batches(portfolio, cfg):
        d = np.bincount(draw[obligor == idx], minlength=losses.size).astype(float)
        inside = losses <= limit
        sum_w += d.sum()
        sum_w2 += (d * d).sum()
        sum_wx += np.bincount(losses[inside], weights=d[inside], minlength=size)
        sum_w2x += np.bincount(losses[inside], weights=(d * d)[inside], minlength=size)
        hit = d >= 1
        accepted += int(hit.sum())
        acc_counts += np.bincount(losses[inside & hit], minlength=size)
    if accepted == 0 or sum_w == 0:
        raise NoAcceptedDrawsError(f"obligor {obligor_id}: zero accepted draws")
    n = cfg.draws
    ratio = sum_wx / sum_w
    # Delta-method SE of the ratio estimator sum(D I)/sum(D).
    var_term = sum_w2x / n - 2 * ratio * (sum_w2x / n) + ratio**2 * (sum_w2 / n)
    weighted_se = np.sqrt(np.maximum(var_term, 0.0) / n) / (sum_w / n)
    rej = acc_counts / accepted
    rej_se = np.sqrt(rej * (1.0 - rej) / accepted)
    return ConditionalEstimate(
        obligor=obligor_id,
        draws=n,
        weighted=ratio,
        weighted_se=weighted_se,
        rejection=rej,
        rejection_se=rej_se,
        accepted=accepted,
        weight_total=sum_w,
    )


def verify_fundamental_identity(portfolio, id1, id2, x, cfg):
    """Estimate both sides of the default-weighted loss identity.

    Left: E[I(X = x) * prod_i D_{A(i)}].  Right: E[I(X = x - sum_i E_i) *
    prod_i p^S_{A(i)}] with fresh independent severity draws E_i.  Both
    sides use the same factor and loss draws (common random numbers); they
    agree in expectation, so the estimates should match within Monte Carlo
    error.  ``id2`` may be None for the one-obligor case.
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
    n = cfg.draws
    sum_l = sum_l2 = 0.0
    sum_r = sum_r2 = 0.0
    # Independent severity stream for the right-hand side's fresh draws.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([cfg.seed, 977])))
    for factors, draw, obligor, losses in _batches(portfolio, cfg):
        left = (losses == x).astype(float)
        prod_ps = np.ones(losses.size)
        shift = np.zeros(losses.size)
        for i, (vals, probs, pd, w) in sevs.items():
            left *= np.bincount(draw[obligor == i], minlength=losses.size)
            # p_A^S = p_A (w_A0 + sum_k w_Ak S_k); S_0 = 1
            prod_ps *= pd * (w[0] + factors @ w[1:])
            shift += _sample_severities(rng, vals, probs, losses.size)
        right = prod_ps * (losses == x - shift)
        sum_l += left.sum()
        sum_l2 += (left**2).sum()
        sum_r += right.sum()
        sum_r2 += (right**2).sum()
    left_mean, right_mean = sum_l / n, sum_r / n
    left_se = np.sqrt(max(sum_l2 / n - left_mean**2, 0.0) / n)
    right_se = np.sqrt(max(sum_r2 / n - right_mean**2, 0.0) / n)
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
