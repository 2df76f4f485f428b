"""Sector assembly and portfolio loss distributions under exponent stresses.

The loss is the sum of one compound Poisson sector (idiosyncratic, k = 0)
and N compound negative binomial sectors, so its PGF is the product of the
sector PGFs.  A stress vector of small integer offsets increments the
negative binomial success number parameters alpha_k while the failure
probabilities delta_k stay at their unstressed values; this is exactly the
family of stressed distributions needed for conditioning on defaults, and
re-deriving delta from a larger alpha would be wrong there.  Each unit of
stress on sector k convolves the base distribution with one compound
geometric kernel T_k (see ``LossEngine``).  Below ``pmf.FFT_MIN_SIZE``
points sector pmfs and kernels come from one batched Panjer pass and the
base is their convolution; from there on the base is one inverse FFT of the
product of the sector PGFs and each kernel a Fourier compound of its own.
An unloaded sector (mu_k = 0) has no claims and Q_k = point mass at 0, so
its pmf and kernel are exact point masses at 0 and its PGF is 1.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

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
    mu[k] = 0).
    """

    mu: np.ndarray
    delta: np.ndarray
    alphas: np.ndarray
    q_polys: tuple
    limit: int
    sector_ids: tuple

    @property
    def n_sectors(self):
        return self.alphas.size


def assemble(portfolio, limit, written_off=()):
    """Derive the sector system from a portfolio at truncation limit L.

    mu_k = sum_A w_Ak p_A; delta_k = mu_k / (mu_k + alpha_k); Q_k is the
    pd-weighted mixture of the obligors' severity pmfs, or a point mass at 0
    when mu_k = 0.  From ``portfolio.columns``, mu is a column sum of
    wp = p_A w_Ak and all Q_k one ``bincount`` over the bins (k, v), both
    added in obligor order.  The obligors in ``written_off`` have severity
    0, bitwise as ``with_severity(id, ZERO_SEVERITY)`` (the write-off
    variant).  Raises PortfolioError as ``portfolio.check_obligors`` does.
    """
    check_obligors(portfolio)
    c = portfolio.columns
    n, size = portfolio.n_sectors, limit + 1
    owner, value, prob = c.owner, c.value, c.prob
    if written_off:
        rows = [portfolio.row(oid) for oid in written_off]
        hit = np.isin(owner, rows)
        value, prob = np.where(hit, 0, value), np.where(hit, 0.0, prob)
        # ZERO_SEVERITY is one entry {0: 1.0}: the first entry takes its mass.
        prob[np.searchsorted(owner, rows)] = 1.0
    a, k = np.nonzero(c.W)  # the loaded (obligor, sector) pairs, in obligor order
    mu = np.bincount(k, weights=c.W[a, k] * c.pd[a], minlength=n + 1)
    # The (entry, sector) pairs with mass inside {0..L}, again in obligor order.
    e, k = np.nonzero((c.W != 0.0)[owner] & (value <= limit)[:, None])
    a = owner[e]
    q_vecs = np.bincount(k * size + value[e], weights=c.W[a, k] * c.pd[a] * prob[e],
                         minlength=(n + 1) * size).reshape(n + 1, size)
    alphas = np.array([s.alpha for s in portfolio.sectors])
    delta = mu[1:] / (mu[1:] + alphas)
    q_polys = tuple(
        Pmf(q_vecs[k] / mu[k], tail_mass=max(1.0 - q_vecs[k].sum() / mu[k], 0.0))
        if mu[k] > 0
        else pm.point_mass(0, limit)
        for k in range(n + 1)
    )
    return SectorSystem(
        mu=mu,
        delta=delta,
        alphas=alphas,
        q_polys=q_polys,
        limit=limit,
        sector_ids=tuple(s.id for s in portfolio.sectors),
    )


def sector_loss(system, k):
    """Unstressed loss pmf of sector k: compound Poisson for the idiosyncratic
    sector k = 0, compound negative binomial for k >= 1."""
    if k == 0:
        return pm.compound_poisson(system.mu[0], system.q_polys[0], system.limit)
    return pm.compound_negbin(
        system.alphas[k - 1], system.delta[k - 1], system.q_polys[k], system.limit)


def _claims(system, kind, k):
    """Claim count of sector k's pmf (kind "sector") or of its kernel ("kernel")."""
    if k == 0:
        return pm.poisson_claims(system.mu[0])
    return pm.negbin_claims(system.alphas[k - 1] if kind == "sector" else 1.0, system.delta[k - 1])


class LossEngine:
    """Cached evaluator of stressed loss distributions.

    With delta_k held fixed, raising alpha_k by one multiplies sector k's
    probability generating function ((1-delta_k)/(1-delta_k Q_k(z)))**alpha_k
    by the compound geometric kernel T_k(z) = (1-delta_k)/(1-delta_k Q_k(z)).
    So the loss pmf under stress s is base (*) T_1^(*s_1) (*) ... (*)
    T_N^(*s_N), with (*) the truncated convolution of ``pmf.convolve``
    (direct below ``pmf.FFT_MIN_SIZE`` points, FFT above it).  On the
    reference portfolio this matches Panjer run at alpha_k + s_k to 3e-17.
    ``stress_kernel`` takes the stressed sectors as a list, one entry per
    unit of stress, as the conditionals' mixture components carry them;
    only ``loss_distribution`` takes and checks an offset vector s.

    The base is built two ways, by L alone.  Below ``pmf.FFT_MIN_SIZE``
    points it is the convolution of the N+1 sector pmfs, and the first call
    that needs it computes every missing sector pmf and the kernel of every
    loaded sector in one batched Panjer pass (``_fill``): kernels are cheap
    extra rows there.  From that size on it is one inverse FFT of the
    product of the sector PGFs on the Chernoff grid of the whole portfolio
    (``_spectral_base``), and the sector log-spectra are cached; sector pmfs
    are not needed for it and, like the kernels, stay lazy, one Fourier
    compound each when first asked for.  ``derive`` hands a write-off engine
    everything cached for the sectors that did not change.  Thread-safe: the
    caches are guarded by a lock and hold immutable results, so concurrent
    evaluations return results identical to serial execution.
    """

    def __init__(self, system, tail_tol=None):
        self.system = system
        self.tail_tol = tail_tol
        self._lock = threading.Lock()
        # ("sector", k), ("kernel", k) and "base" -> Pmf; ("spectrum", k) ->
        # sector k's log-spectrum log G_k(Q_k) on the base's Fourier grid.
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
        """Sector k's unstressed loss pmf (cached); stresses go through ``kernel``."""
        return self._cached(("sector", k), lambda: sector_loss(self.system, k))

    def kernel(self, k):
        """Compound geometric kernel T_k that raises sector k's exponent by one."""
        system = self.system
        return self._cached(("kernel", k), lambda: pm.compound_negbin(
            1.0, system.delta[k - 1], system.q_polys[k], system.limit))

    def stress_kernel(self, sectors):
        """T_j1 (*) T_j2 (*) ... over the listed sectors j (one entry per unit
        of stress): base (*) this is the stressed pmf."""
        if not sectors:
            return pm.point_mass(0, self.system.limit)
        return functools.reduce(pm.convolve, map(self.kernel, sectors))

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

    def _spectral_base(self):
        """From ``pmf.FFT_MIN_SIZE`` points on: the base as one inverse FFT of
        the product of the N+1 sector PGFs (``pmf.fourier_sum``).

        The sector log-spectra are cached as ("spectrum", k).  A write-off
        engine inherits the unchanged sectors' spectra from ``derive`` and
        with them the parent's grid, so it computes only the changed
        sectors' spectra and one inverse FFT.
        """
        system = self.system
        terms = [(_claims(system, "sector", k), q) for k, q in enumerate(system.q_polys)]
        keys = [("spectrum", k) for k in range(len(terms))]
        with self._lock:
            cached = [self._cache.get(key) for key in keys]
        out, spectra = pm.fourier_sum(terms, system.limit, "the portfolio base", cached)
        with self._lock:
            self._cache.update(zip(keys, spectra))
        return out

    def _base(self):
        """Unstressed loss pmf: the distribution of the sum of all N+1 sectors."""
        def fold():
            if self.system.limit + 1 >= pm.FFT_MIN_SIZE:
                return self._spectral_base()
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
        stress = tuple(int(s) for s in stress)
        if len(stress) != n:
            raise ValueError(f"stress vector has length {len(stress)}, expected {n}")
        if any(s < 0 or s > MAX_PUBLIC_OFFSET for s in stress):
            raise ValueError(f"stress offsets must lie in 0..{MAX_PUBLIC_OFFSET}: {stress}")
        return stress

    def check_tail(self, tail_mass):
        """Raise TruncationError when ``tail_mass`` exceeds the engine's tolerance."""
        if self.tail_tol is not None and tail_mass > self.tail_tol:
            raise TruncationError(
                f"tail mass {tail_mass:.3e} exceeds tolerance {self.tail_tol:.3e} "
                f"at L={self.system.limit}",
                tail_mass=tail_mass,
            )

    def loss_distribution(self, stress=None):
        """Portfolio loss pmf for a stress vector of exponent offsets.

        ``stress`` has one entry per non-idiosyncratic sector; offsets are
        limited to {0, 1, 2} (only single and double stresses occur in the
        supported conditioning scenarios).
        """
        sectors = [k for k, s in enumerate(self._checked(stress), start=1) for _ in range(s)]
        out = self._base()
        if sectors:
            out = pm.convolve(out, self.stress_kernel(sectors))
        self.check_tail(out.tail_mass)
        return out

    def derive(self, system):
        """Engine for ``system`` that reuses this engine's cached sector pmfs,
        kernels and log-spectra for every sector whose parameters are
        bitwise unchanged (with the spectra comes their grid; see
        ``pmf.fourier_sum``)."""
        out = LossEngine(system, tail_tol=self.tail_tol)
        if (system.limit, system.n_sectors) != (self.system.limit, self.system.n_sectors):
            return out
        with self._lock:
            for key, value in self._cache.items():
                if key != "base" and _same_sector(self.system, system, key[1]):
                    out._cache[key] = value
        return out


def _same_sector(a, b, k):
    """Whether sector k has bitwise equal parameters in systems a and b."""
    # delta_k follows from mu_k and alpha_k.
    if a.mu[k] != b.mu[k] or (k and a.alphas[k - 1] != b.alphas[k - 1]):
        return False
    qa, qb = a.q_polys[k], b.q_polys[k]
    return qa.tail_mass == qb.tail_mass and np.array_equal(qa.probs, qb.probs)


def loss_distribution(system, stress=None):
    """One-shot evaluation without a persistent cache."""
    return LossEngine(system).loss_distribution(stress)


def risk_report(loss_pmf, thetas):
    """Mean, variance, quantile and expected shortfall at each theta."""
    return {
        "mean": pm.mean(loss_pmf),
        "variance": pm.variance(loss_pmf),
        "tail_mass": loss_pmf.tail_mass,
        "quantiles": {str(t): pm.quantile(loss_pmf, t) for t in thetas},
        "expected_shortfall": {str(t): pm.expected_shortfall(loss_pmf, t) for t in thetas},
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
