"""Sector assembly and portfolio loss distributions under exponent stresses.

The loss is the sum of one compound Poisson sector (idiosyncratic, k = 0)
and N compound negative binomial sectors, so its PGF is the product of the
sector PGFs.  A stress vector of small integer offsets increments the
negative binomial success number parameters alpha_k while the failure
probabilities delta_k stay at their unstressed values; this is exactly the
family of stressed distributions needed for conditioning on defaults, and
re-deriving delta from a larger alpha would be wrong there.  Each unit of
stress on sector k multiplies the PGF by one compound geometric kernel
T_k = G_k^(1/alpha_k) = (1 - delta_k) / (1 - delta_k Q_k), so a
conditional, a weighted mean of stressed pmfs, is the base convolved with
a weighted sum of kernel products (see ``LossEngine.mixture``).  Below
``pmf.FFT_MIN_SIZE`` points sector pmfs and kernels come from one batched
Panjer pass and the convolutions are direct; from there on the engine
works on one Fourier grid, the smallest power of two above L that the
Chernoff aliasing bound of the heaviest supported stress, shifted by two of
the book's largest losses, allows, where the base and every mixture with
its defaulted severities are one inverse FFT of products of cached spectra.
An unloaded sector (mu_k = 0) has no claims and Q_k = point mass at 0, so
its pmf and kernel are exact point masses at 0 and its PGF is 1.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import pmf as pm
from .pmf import Pmf, TruncationError
from .portfolio import check_obligors

# Only offsets 0, 1, 2 occur in supported scenarios (one or two defaults).
MAX_PUBLIC_OFFSET = 2


@dataclass(frozen=True)
class SectorSystem:
    """Frozen per-sector parameters derived from a portfolio.

    mu[k] for k = 0..N are the sector default intensities, delta[k-1] and
    alphas[k-1] the negative binomial parameters of sector k >= 1, and
    q_polys[k] the severity mixture pmf of sector k (a point mass at 0 when
    mu[k] = 0).  reach is the book's largest severity loss inside {0..L},
    over every obligor (0 when there is none).
    """

    mu: np.ndarray
    delta: np.ndarray
    alphas: np.ndarray
    q_polys: tuple
    limit: int
    sector_ids: tuple
    reach: int

    @property
    def n_sectors(self):
        return self.alphas.size


def assemble(portfolio, limit, written_off=()):
    """Derive the sector system from a portfolio at truncation limit L.

    mu_k = sum_A w_Ak p_A; delta_k = mu_k / (mu_k + alpha_k); Q_k is the
    pd-weighted mixture of the obligors' severity pmfs (``_mixtures``), or a
    point mass at 0 when mu_k = 0.  From ``portfolio.columns``, mu is a
    column sum of wp = p_A w_Ak added in obligor order.  The obligors in
    ``written_off`` have severity 0 (the write-off variant), bitwise as the
    book rebuilt with ZERO_SEVERITY for them (``conftest.with_severity`` in
    the tests); reach, the largest loss of positive probability inside
    {0..L}, is the book's own, with or without them.  Raises PortfolioError
    as ``portfolio.check_obligors`` does.
    """
    check_obligors(portfolio)
    c, n = portfolio.columns, portfolio.n_sectors
    a, k = np.nonzero(c.W)  # the loaded (obligor, sector) pairs, in obligor order
    mu = np.bincount(k, weights=c.W[a, k] * c.pd[a], minlength=n + 1)
    alphas = np.array([s.alpha for s in portfolio.sectors])
    return SectorSystem(mu=mu, delta=mu[1:] / (mu[1:] + alphas), alphas=alphas,
                        q_polys=_mixtures(portfolio, limit, mu, np.arange(n + 1), written_off),
                        limit=limit, sector_ids=tuple(s.id for s in portfolio.sectors),
                        reach=int(c.value[(c.value <= limit) & (c.prob > 0.0)].max(initial=0)))


def _mixtures(portfolio, limit, mu, sectors, written_off):
    """The severity mixtures Q_k of the ascending sector indices ``sectors``,
    the obligors in ``written_off`` at severity 0 (``assemble``).

    One ``bincount`` over the bins (k, v) of the (entry, sector) pairs with
    mass inside {0..L}, added in obligor order: restricted to some sectors,
    every bin sums the same terms in the same order as over all of them, so
    each Q_k is bitwise the same whichever sectors are asked for.  A
    written-off obligor's first entry takes the mass of ZERO_SEVERITY, {0: 1.0}.
    """
    c, size = portfolio.columns, limit + 1
    owner, value, prob = c.owner, c.value, c.prob
    if written_off:
        rows = [portfolio.row(oid) for oid in written_off]
        hit = np.isin(owner, rows)
        value, prob = np.where(hit, 0, value), np.where(hit, 0.0, prob)
        prob[np.searchsorted(owner, rows)] = 1.0
    e, j = np.nonzero((c.W[:, sectors] != 0.0)[owner] & (value <= limit)[:, None])
    a, k = owner[e], sectors[j]
    q_vecs = np.bincount(j * size + value[e], weights=c.W[a, k] * c.pd[a] * prob[e],
                         minlength=sectors.size * size).reshape(sectors.size, size)
    return tuple(Pmf(q / mu[k], tail_mass=max(1.0 - q.sum() / mu[k], 0.0)) if mu[k] > 0
                 else pm.point_mass(0, limit) for k, q in zip(sectors.tolist(), q_vecs))


def sector_loss(system, k):
    """Unstressed loss pmf of sector k: compound Poisson for the idiosyncratic
    sector k = 0, compound negative binomial for k >= 1."""
    if k == 0:
        return pm.compound_poisson(system.mu[0], system.q_polys[0], system.limit)
    return pm.compound_negbin(
        system.alphas[k - 1], system.delta[k - 1], system.q_polys[k], system.limit)


def _claims(system, kind, k):
    """Claim count of sector k's pmf (kind "sector"), of its kernel ("kernel")
    or of the sector at its heaviest supported stress ("stressed": alpha_k +
    MAX_PUBLIC_OFFSET)."""
    if k == 0:
        return pm.poisson_claims(system.mu[0])
    alpha = system.alphas[k - 1]
    alpha = {"sector": alpha, "kernel": 1.0, "stressed": alpha + MAX_PUBLIC_OFFSET}[kind]
    return pm.negbin_claims(alpha, system.delta[k - 1])


@dataclass(frozen=True)
class Spectra:
    """A sector system on an N-point grid: read-only complex arrays over the
    N/2 + 1 rfft frequencies.  log_g[k] is log G_k (k = 0..K), kernels[k - 1]
    T_k = (1 - delta_k) / (1 - delta_k Q_k) and pgf G = exp(sum_k log G_k);
    with a tail tolerance indicator is conj(h), h the spectrum of the
    indicator of {0..L}, and window w = G conj(h) c / N, c_j = 2 where
    frequency j stands for a conjugate pair, else 1, so that Re sum_j K_j
    w_j is the mass the pmf of G K keeps on {0..L} (else both are None).
    """

    log_g: tuple
    kernels: tuple
    pgf: np.ndarray
    indicator: np.ndarray | None
    window: np.ndarray | None

    def __post_init__(self):
        for a in (*self.log_g, *self.kernels, self.pgf, self.indicator, self.window):
            if a is not None:
                a.setflags(write=False)


def spectra(system, n, tail_tol, parent=None, changed=None):
    """The ``Spectra`` of ``system`` on an n-point grid, row by row from the
    rfft of each severity vector Q_k, which is not kept.  Given the
    ``parent`` record of a system on the same grid that differs only in the
    sectors flagged in the boolean array ``changed``, only their rows are
    computed: every other row, and the indicator, is the parent's own array.
    """
    size = len(system.q_polys)
    sectors = np.flatnonzero(changed).tolist() if parent else range(size)
    log_g = list(parent.log_g) if parent else [None] * size
    kernels = list(parent.kernels) if parent else [None] * system.n_sectors
    for k in sectors:
        q = np.fft.rfft(system.q_polys[k].probs, n)
        log_g[k] = _claims(system, "sector", k).log_pgf(q)
        if k:
            delta = system.delta[k - 1]
            kernels[k - 1] = (1.0 - delta) / (1.0 - delta * q)
    pgf = np.exp(sum(log_g))
    indicator = window = None
    if tail_tol is not None:
        indicator = (parent.indicator if parent
                     else np.conj(np.fft.rfft(np.ones(system.limit + 1), n)))
        weights = np.full(n // 2 + 1, 2.0 / n)
        weights[[0, -1]] = 1.0 / n
        window = pgf * indicator * weights
    return Spectra(tuple(log_g), tuple(kernels), pgf, indicator, window)


class LossEngine:
    """Cached evaluator of stressed loss distributions and their mixtures.

    With delta_k held fixed, raising alpha_k by one multiplies sector k's
    probability generating function G_k = ((1-delta_k)/(1-delta_k
    Q_k(z)))**alpha_k by the compound geometric kernel T_k(z) =
    (1-delta_k)/(1-delta_k Q_k(z)) = G_k(z)**(1/alpha_k).  So the loss pmf
    under stress s is base (*) T_1^(*s_1) (*) ... (*) T_N^(*s_N), which on
    the reference portfolio matches Panjer run at alpha_k + s_k to 3e-17.
    ``mixture`` evaluates sum_c w_c (base (*) K_c) / normalizer, K_c the
    product of the kernels of the sectors component c stresses (one entry
    per unit of stress), convolved with the severity pmfs of the defaulted
    obligors, and holds each component's tail to the engine's tail
    tolerance; ``loss_distribution(stress)`` is its one-component case and
    the only method that takes an offset vector.

    Two representations, by L alone.  Below ``pmf.FFT_MIN_SIZE`` points the
    first call that needs the base computes every missing sector pmf and the
    kernel of every loaded sector in one batched Panjer pass (``_fill``);
    the base is the convolution of the sector pmfs and a mixture the base
    convolved once with the weighted sum of the kernel products (direct
    convolutions, ``pmf.convolve``), and so are the severity shifts.  From
    that size on the engine holds one Fourier grid of N > L points, sized
    once for the heaviest supported stress and two of the book's largest
    losses (``_grid``), and on it one ``Spectra`` record, built whole at
    first use: the base is one inverse FFT of G and a conditional one
    inverse FFT of G sum_c w_c prod_{k in c} T_k prod_A S_A / normalizer,
    S_A the defaulted severities' spectra, evaluated from their few points
    on a table of roots of unity (``pmf.points_spectrum``).
    ``written_off`` patches this engine into a write-off engine: only the
    sectors the written-off obligors load on are recomputed, on this
    engine's grid.  Thread-safe: the caches are guarded by a lock and hold
    immutable results, so concurrent evaluations return results identical
    to serial execution.

    On a grid of N points the engine holds the record, one complex array of
    M = N/2 + 1 frequencies (65 552 bytes at N = 8192) per log G_k and T_k,
    one for G and, with a tail tolerance, two more, and the base pmf (8 (L
    + 1) bytes), but no Q_k.  The table of all N roots of unity
    (``pmf.unit_roots``, 16 N bytes) is kept per grid size by ``pmf``,
    shared by every engine on that grid.  At N = 8192 with 10 factor
    sectors the record is 22 arrays, 1 442 144 bytes, and with the table
    (131 072 bytes) 1 573 216 bytes.
    """

    def __init__(self, system, tail_tol=None):
        self.system = system
        self.tail_tol = tail_tol
        self._lock = threading.Lock()
        # Below pmf.FFT_MIN_SIZE points, per sector k: ("sector", k) and
        # ("kernel", k) -> Pmf.  For the whole book: "base" -> Pmf; on the
        # Fourier grid "grid" -> N and "spectra" -> Spectra.
        self._cache = {}

    def _cached(self, key, compute):
        with self._lock:
            hit = self._cache.get(key)
        if hit is not None:
            return hit
        out = compute()
        with self._lock:
            return self._cache.setdefault(key, out)

    def sector_loss(self, k):
        """Sector k's unstressed loss pmf (cached); stresses go through ``mixture``."""
        return self._cached(("sector", k), lambda: sector_loss(self.system, k))

    def kernel(self, k):
        """Compound geometric kernel T_k that raises sector k's exponent by one:
        a Panjer row below ``pmf.FFT_MIN_SIZE`` points, else the inverse FFT of
        its spectrum on the engine's grid."""
        system = self.system
        if not 1 <= k <= system.n_sectors:
            raise ValueError(f"sector {k} has no kernel: the factor sectors are "
                             f"1..{system.n_sectors}")
        if system.limit + 1 >= pm.FFT_MIN_SIZE:
            return pm.from_spectrum(self._spectra().kernels[k - 1], self._grid(), system.limit)
        return self._cached(("kernel", k), lambda: pm.compound_negbin(
            1.0, system.delta[k - 1], system.q_polys[k], system.limit))

    def _fill(self):
        """Below ``pmf.FFT_MIN_SIZE`` points: every missing sector pmf and the
        kernel of every loaded sector by one ``pmf.panjer`` pass.

        Rows are checked in the order a lazy engine meets them (sectors 0..N),
        so the same sector raises the same error.  A kernel's start value
        (1 - delta_k) / (1 - delta_k q_0) is at least 1 - delta_k >= 2**-53
        and its parameters are its sector's with alpha = 1, so a kernel row
        never fails where its sector row passes.  Sectors with no claims are
        point masses and stay with ``sector_loss``.
        """
        system = self.system
        n = system.n_sectors
        keys = [("sector", k) for k in range(n + 1)] + [("kernel", k) for k in range(1, n + 1)]
        with self._lock:
            keys = [key for key in keys if key not in self._cache]
        filled, terms = [], []
        for key in keys:
            claims = _claims(system, *key)
            if claims.a or claims.b:
                filled.append(key)
                terms.append((claims, system.q_polys[key[1]]))
        if terms:
            pmfs = pm.panjer(terms, system.limit)
            with self._lock:
                for key, out in zip(filled, pmfs):
                    self._cache.setdefault(key, out)

    def _grid(self):
        """From ``pmf.FFT_MIN_SIZE`` points on: the engine's grid size N.

        N is ``pmf.grid_size`` at the need nu + MAX_PUBLIC_OFFSET reach, nu
        the ``pmf.aliasing_need`` of the heaviest supported stress (every
        factor sector at alpha_k + MAX_PUBLIC_OFFSET) and reach the book's
        largest loss inside {0..L}: the smallest power of two > L and >=
        that need.  For a mixture loss Y and the sum E of defaulted
        severities S_A with largest losses v_A, S_A(e^t) <= e^(t v_A) and
        the mixture's G(e^t) is at most that of the heaviest stress, so at
        the t that gave nu, P[Y + E >= N] <= G(e^t) e^(t (sum_A v_A - N)) <=
        ``pmf.ALIAS_FLOOR`` while sum_A v_A <= MAX_PUBLIC_OFFSET reach (see
        ``mixture`` and ``written_off``).
        """
        def compute():
            system = self.system
            stressed = [(_claims(system, "stressed", k), q) for k, q in enumerate(system.q_polys)]
            return pm.grid_size(
                stressed, system.limit,
                f"the portfolio base under its heaviest stress (alpha_k + {MAX_PUBLIC_OFFSET} in "
                f"every factor sector) shifted by {MAX_PUBLIC_OFFSET} defaulted severities of up "
                f"to {system.reach}",
                pm.aliasing_need(stressed) + MAX_PUBLIC_OFFSET * system.reach)
        return self._cached("grid", compute)

    def _spectra(self):
        """The engine's ``Spectra`` on its grid, built on first use."""
        return self._cached("spectra", lambda: spectra(self.system, self._grid(), self.tail_tol))

    def _base(self):
        """Unstressed loss pmf: the distribution of the sum of all N+1 sectors."""
        def fold():
            limit = self.system.limit
            if limit + 1 >= pm.FFT_MIN_SIZE:
                return pm.from_spectrum(self._spectra().pgf, self._grid(), limit)
            self._fill()
            out = self.sector_loss(0)
            for k in range(1, self.system.n_sectors + 1):
                out = pm.convolve(out, self.sector_loss(k))
            return out
        return self._cached("base", fold)

    def _checked(self, stress):
        n = self.system.n_sectors
        if stress is None:
            return (0,) * n
        stress = tuple(stress)
        if len(stress) != n:
            raise ValueError(f"stress vector has length {len(stress)}, expected {n}")
        if not all(s in range(MAX_PUBLIC_OFFSET + 1) for s in stress):
            raise ValueError(f"stress offsets must lie in 0..{MAX_PUBLIC_OFFSET}: {stress}")
        return tuple(int(s) for s in stress)

    def check_tail(self, tail_mass):
        """Raise TruncationError when ``tail_mass`` exceeds the engine's tolerance."""
        if self.tail_tol is not None and tail_mass > self.tail_tol:
            raise TruncationError(
                f"tail mass {tail_mass:.3e} exceeds tolerance {self.tail_tol:.3e} "
                f"at L={self.system.limit}",
                tail_mass=tail_mass,
            )

    def mixture(self, components, normalizer=1.0, shifts=()):
        """sum_c w_c (base (*) K_c) / normalizer (*) S_1 (*) ... over the (w_c,
        sectors) pairs ``components``, K_c the product of the kernels of the
        listed sectors (one entry per unit of stress; none for the base
        itself) and S_A the severities ``shifts``, {loss: probability} dicts.

        Each component's tail beyond L is held to the engine's tail
        tolerance, before the shifts.  Below ``pmf.FFT_MIN_SIZE`` points the
        base's own tail is checked first; component c's tail is 1 - sum_j
        K_c[j] P[base <= L - j], the mixture is the base convolved with K =
        sum_c w_c K_c / normalizer and each shift is a direct
        ``pmf.convolve`` with its ``pmf.from_dict`` pmf.  From there on
        component c's tail is 1 - Re sum_j K_j w_j with K = prod_{k in c}
        T_k and w the ``Spectra`` window (at least the base's tail, which
        therefore needs no check of its own), and the mixture is one inverse
        FFT of G sum_c w_c prod_{k in c} T_k prod_A S_A / normalizer, each
        S_A(w) evaluated from the shift's points on the grid's table of
        roots (``pmf.points_spectrum``: no (L + 1)-point pmf and no rfft).
        The kernel products are summed through one work array, the base
        component (K = 1) adds its weight as a scalar, and a normalizer of
        1.0 (every one-default scenario) divides nothing.
        The grid holds shifts whose largest losses inside {0..L} sum to at
        most MAX_PUBLIC_OFFSET times the book's reach (``_grid``); larger
        ones raise ValueError.
        """
        limit = self.system.limit
        if limit + 1 >= pm.FFT_MIN_SIZE:
            reach = sum(max((x for x, p in s.items() if p and x <= limit), default=0)
                        for s in shifts)
            room = MAX_PUBLIC_OFFSET * self.system.reach
            if reach > room:
                raise ValueError(f"the shifts' largest losses sum to {reach}, above the {room} "
                                 f"the engine's grid holds ({MAX_PUBLIC_OFFSET} x the book's "
                                 f"largest loss {self.system.reach})")
            n, record = self._grid(), self._spectra()
            acc = np.zeros(n // 2 + 1, dtype=complex)
            work = np.empty_like(acc)
            for weight, sectors in components:
                kernel = record.kernels[sectors[0] - 1] if sectors else 1
                for k in sectors[1:]:
                    kernel = np.multiply(kernel, record.kernels[k - 1], out=work)
                if record.window is not None:
                    self.check_tail(1.0 - np.sum(kernel * record.window).real)
                acc += np.multiply(weight, kernel, out=work) if sectors else weight
            spectrum = np.multiply(record.pgf, acc, out=acc)
            if normalizer != 1.0:
                spectrum /= normalizer
            for shift in shifts:
                spectrum *= pm.points_spectrum(shift, pm.unit_roots(n), limit)
            return pm.from_spectrum(spectrum, n, limit)
        base = self.loss_distribution()
        base_cdf_rev = base.cdf()[::-1]
        acc = np.zeros(limit + 1)
        for weight, sectors in components:
            kernel = (functools.reduce(pm.convolve, map(self.kernel, sectors)) if sectors
                      else pm.point_mass(0, limit))
            self.check_tail(1.0 - np.dot(kernel.probs, base_cdf_rev))
            acc += weight * kernel.probs
        acc /= normalizer
        out = pm.convolve(base, Pmf(acc, tail_mass=max(1.0 - acc.sum(), 0.0)))
        for shift in shifts:
            out = pm.convolve(out, pm.from_dict(shift, limit))
        return out

    def loss_distribution(self, stress=None):
        """Portfolio loss pmf for a stress vector of exponent offsets.

        ``stress`` has one entry per non-idiosyncratic sector; offsets are
        limited to {0, 1, 2} (only single and double stresses occur in the
        supported conditioning scenarios).  A stressed pmf is the
        one-component ``mixture``.
        """
        sectors = [k for k, s in enumerate(self._checked(stress), start=1) for _ in range(s)]
        if sectors:
            return self.mixture([(1.0, sectors)])
        base = self._base()
        self.check_tail(base.tail_mass)
        return base

    def written_off(self, portfolio, ids):
        """Engine of ``assemble(portfolio, L, written_off=ids)``, patched from
        this engine of ``assemble(portfolio, L)``.

        Only the severity mixtures Q_k of the sectors that the obligors
        ``ids`` load on change (``_mixtures``, bitwise the full assembly's);
        every other sector keeps its Q_k and all that is cached for it (its
        ``Spectra`` rows by identity).  On the Fourier path the grid N is
        kept, with no ``pmf.grid_size`` search, while every written-off
        severity lies in {0..L}: for t > 0, Q_k^wo(e^t) = Q_k(e^t) - sum_A
        (w_Ak p_A / mu_k) (S_A(e^t) - 1) <= Q_k(e^t), S_A the severity PGF
        of A, and both closed forms increase in Q, so the Chernoff bound
        that sized N holds for the write-off too (its reach is the book's).
        Mass beyond L, which the write-off moves to 0, can raise Q_k(e^t):
        the grid is then the larger of the write-off system's own and N, and
        the rows carry over only if it is N.
        """
        system, c = self.system, portfolio.columns
        rows = [portfolio.row(oid) for oid in ids]
        kept = (c.W[rows] == 0.0).all(axis=0)  # the sectors no written-off obligor loads on
        fresh = iter(_mixtures(portfolio, system.limit, system.mu, np.flatnonzero(~kept), ids))
        q_polys = tuple(q if keep else next(fresh) for q, keep in zip(system.q_polys, kept))
        out = LossEngine(replace(system, q_polys=q_polys), self.tail_tol)
        with self._lock:  # the unchanged sectors' pmfs and kernels
            out._cache.update((key, value) for key, value in self._cache.items()
                              if isinstance(key, tuple) and kept[key[1]])
        if system.limit + 1 >= pm.FFT_MIN_SIZE:
            n = self._grid()
            if not (c.value[np.isin(c.owner, rows)] > system.limit).any() or out._grid() <= n:
                out._cache["grid"] = n
                out._cache["spectra"] = spectra(out.system, n, self.tail_tol,
                                                self._spectra(), ~kept)
        return out


def loss_distribution(system, stress=None):
    """One-shot evaluation without a persistent cache."""
    return LossEngine(system).loss_distribution(stress)


def risk_report(loss_pmf, thetas):
    """Mean, variance, quantile and expected shortfall at each theta.

    One pass: the losses x, as floats, and the cdf are built once and every
    measure is taken from them, with the arithmetic of ``pmf.mean``,
    ``pmf.variance``, ``pmf.quantile`` and ``pmf.expected_shortfall``.  Each
    theta's quantile is found once and handed to ``pmf.shortfall``, the
    formula ``pmf.expected_shortfall`` uses.  Raises ``pmf.quantile``'s
    TruncationError for the first unreachable theta.
    """
    probs = loss_pmf.probs
    x, cdf = np.arange(probs.size, dtype=float), loss_pmf.cdf()
    m = np.dot(x, probs)
    levels = [(t, pm.quantile(loss_pmf, t, cdf)) for t in thetas]
    return {
        "mean": float(m),
        "variance": float(np.dot(x * x, probs) - m * m),
        "tail_mass": loss_pmf.tail_mass,
        "quantiles": {str(t): q for t, q in levels},
        "expected_shortfall": {str(t): pm.shortfall(probs, t, q, x) for t, q in levels},
    }


def suggest_truncation(portfolio):
    """Truncation limit heuristic L = ceil(mean + 12 * stddev).

    Moments follow from the compound representation: the idiosyncratic
    sector is compound Poisson, each factor sector compound negative
    binomial with claim count variance mu_k (1 + mu_k / alpha_k).  The
    obligors' severity moments are one ``bincount`` each over
    ``portfolio.columns``; the sector sums accumulate in obligor order.
    """
    check_obligors(portfolio)
    c = portfolio.columns
    n = portfolio.n_sectors
    v = c.value.astype(float)  # v * v * q rounds as Python's x * x * q does, and cannot wrap
    sev_m1 = np.bincount(c.owner, weights=v * c.prob, minlength=c.pd.size)
    sev_m2 = np.bincount(c.owner, weights=v * v * c.prob, minlength=c.pd.size)
    a, k = np.nonzero(c.W)  # the loaded (obligor, sector) pairs, in obligor order
    wp = c.W[a, k] * c.pd[a]
    mu = np.bincount(k, weights=wp, minlength=n + 1)
    m1 = np.bincount(k, weights=wp * sev_m1[a], minlength=n + 1)  # sum_A w_Ak p_A E[sev_A]
    m2 = np.bincount(k, weights=wp * sev_m2[a], minlength=n + 1)  # sum_A w_Ak p_A E[sev_A^2]
    mean = m1.sum()
    var = m2[0]  # compound Poisson: mu_0 * E[Q_0^2] with mu folded into m2
    for k in range(1, n + 1):
        if mu[k] == 0:
            continue
        alpha = portfolio.sectors[k - 1].alpha
        q_mean = m1[k] / mu[k]
        q_sec = m2[k] / mu[k]
        count_var = mu[k] * (1.0 + mu[k] / alpha)
        var += mu[k] * (q_sec - q_mean**2) + count_var * q_mean**2
    return max(1, math.ceil(mean + 12.0 * math.sqrt(max(var, 0.0))))
