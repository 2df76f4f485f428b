"""Sector assembly and portfolio loss distributions under exponent stresses.

The loss distribution is the convolution of one compound Poisson sector
(idiosyncratic, k = 0) with N compound negative binomial sectors.  A stress
vector of small integer offsets increments the negative binomial success
number parameters alpha_k while the failure probabilities delta_k stay at
their unstressed values; this is exactly the family of stressed
distributions needed for conditioning on defaults, and re-deriving delta
from a larger alpha would be wrong there.  Each unit of stress on sector k
convolves the base distribution with one compound geometric kernel T_k
(see ``LossEngine``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import pmf as pm
from .pmf import Pmf, TruncationError
from .portfolio import SEVERITY_SUM_TOL, PortfolioError

# Only offsets 0, 1, 2 occur in supported scenarios (one or two defaults).
MAX_PUBLIC_OFFSET = 2


@dataclass(frozen=True)
class SectorSystem:
    """Frozen per-sector parameters derived from a portfolio.

    mu[k] for k = 0..N are the sector default intensities, delta[k-1] and
    alphas[k-1] the negative binomial parameters of sector k >= 1, and
    q_polys[k] the severity mixture pmf of sector k (None when the sector is
    inert, i.e. mu[k] = 0, in which case its loss is a point mass at 0).
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

    def inert(self, k):
        return self.mu[k] == 0.0


def assemble(portfolio, limit):
    """Derive the sector system from a portfolio at truncation limit L.

    mu_k = sum_A w_Ak p_A; delta_k = mu_k / (mu_k + alpha_k); Q_k is the
    pd-weighted mixture of the obligors' severity pmfs.  Raises
    PortfolioError when a severity's probabilities do not sum to 1.
    """
    n = portfolio.n_sectors
    mu = np.zeros(n + 1)
    q_vecs = [np.zeros(limit + 1) for _ in range(n + 1)]
    for o in portfolio.obligors:
        # A defective severity would pass its missing mass to Q_k's tail and
        # from there, silently, to the loss distribution's tail.
        total = sum(o.severity.probabilities.values())
        if abs(total - 1.0) > SEVERITY_SUM_TOL:
            raise PortfolioError(f"obligor {o.id}: severity probabilities sum to {total!r}, not 1")
        if o.pd == 0.0:
            continue
        vals, probs = o.severity.values_and_probs()
        for k in range(n + 1):
            wp = o.weights[k] * o.pd
            if wp == 0.0:
                continue
            mu[k] += wp
            for v, q in zip(vals, probs):
                if v <= limit:
                    q_vecs[k][v] += wp * q
    alphas = np.array([s.alpha for s in portfolio.sectors])
    delta = np.where(mu[1:] > 0, mu[1:] / (mu[1:] + alphas), 0.0)
    q_polys = tuple(
        Pmf(q_vecs[k] / mu[k], tail_mass=max(1.0 - q_vecs[k].sum() / mu[k], 0.0))
        if mu[k] > 0
        else None
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


def sector_loss(system, k, exponent_offset=0):
    """Loss pmf of sector k with the success number parameter incremented.

    k = 0 is the idiosyncratic compound Poisson sector and admits no offset.
    delta_k is kept at its unstressed value by construction.
    """
    if exponent_offset < 0:
        raise ValueError(f"exponent offset must be non-negative, got {exponent_offset}")
    if k == 0:
        if exponent_offset != 0:
            raise ValueError("the idiosyncratic sector has no exponent to stress")
        if system.inert(0):
            return pm.point_mass(0, system.limit)
        return pm.compound_poisson(system.mu[0], system.q_polys[0], system.limit)
    if system.inert(k):
        return pm.point_mass(0, system.limit)
    return pm.compound_negbin(
        system.alphas[k - 1] + exponent_offset,
        system.delta[k - 1],
        system.q_polys[k],
        system.limit,
    )


def zero_stress(system):
    return (0,) * system.n_sectors


class LossEngine:
    """Cached evaluator of loss distributions over stress vectors.

    With delta_k held fixed, raising alpha_k by one multiplies sector k's
    probability generating function ((1-delta_k)/(1-delta_k Q_k(z)))**alpha_k
    by the compound geometric kernel T_k(z) = (1-delta_k)/(1-delta_k Q_k(z)).
    So the loss pmf under stress s is base (*) T_1^(*s_1) (*) ... (*)
    T_N^(*s_N), with (*) the truncated convolution of ``pmf.convolve``
    (direct below ``pmf.FFT_MIN_SIZE`` points, FFT above it).  On the
    reference portfolio this matches Panjer run at alpha_k + s_k to 3e-17.

    The engine caches exactly three things: the N+1 sector pmfs, the base
    (their convolution) and one kernel T_k per stressed sector.  Thread-safe:
    the caches are guarded by a lock and hold immutable pmfs, so concurrent
    evaluations return results identical to serial execution.
    """

    def __init__(self, system, tail_tol=None):
        self.system = system
        self.tail_tol = tail_tol
        self._lock = threading.Lock()
        self._cache = {}  # ("sector", k), ("kernel", k) and "base" -> Pmf

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
        if system.inert(k):
            return pm.point_mass(0, system.limit)
        return self._cached(("kernel", k), lambda: pm.compound_negbin(
            1.0, system.delta[k - 1], system.q_polys[k], system.limit))

    def stress_kernel(self, stress):
        """T_1^(*s_1) (*) ... (*) T_N^(*s_N): base (*) this is the stressed pmf."""
        out = None
        for k, s in enumerate(self._checked(stress), start=1):
            for _ in range(s):
                out = self.kernel(k) if out is None else pm.convolve(out, self.kernel(k))
        return out if out is not None else pm.point_mass(0, self.system.limit)

    def _base(self):
        """Unstressed loss pmf: the convolution of all N+1 sector pmfs."""
        def fold():
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
        stress = self._checked(stress)
        out = self._base()
        if any(stress):
            out = pm.convolve(out, self.stress_kernel(stress))
        self.check_tail(out.tail_mass)
        return out

    def derive(self, system):
        """Engine for ``system`` that reuses this engine's cached sector pmfs
        and kernels for every sector whose parameters are bitwise unchanged."""
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
    if qa is None or qb is None:
        return qa is qb
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
    binomial with claim count variance mu_k (1 + mu_k / alpha_k).
    """
    n = portfolio.n_sectors
    mu = np.zeros(n + 1)
    m1 = np.zeros(n + 1)  # sum_A w_Ak p_A E[sev_A]
    m2 = np.zeros(n + 1)  # sum_A w_Ak p_A E[sev_A^2]
    for o in portfolio.obligors:
        for k in range(n + 1):
            wp = o.weights[k] * o.pd
            mu[k] += wp
            m1[k] += wp * o.severity.mean()
            m2[k] += wp * o.severity.second_moment()
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
