"""Monte Carlo oracle: simulate the factor model and validate the engine.

Sampling follows the model directly: Gamma factors with unit mean, Poisson
default counts with factor-scaled intensities, i.i.d. integer severities
per default event.  A counter-based Philox stream drives everything, so a
given (seed, config) pair reproduces tallies exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BATCH = 100_000


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

    def empirical_pmf(self):
        return self.loss_counts / self.draws

    def to_csv(self):
        lines = ["loss,count"]
        lines.extend(f"{x},{int(c)}" for x, c in enumerate(self.loss_counts))
        return "\n".join(lines) + "\n"

    def sidecar(self):
        return {
            "draws": self.draws,
            "seed": self.seed,
            "default_totals": {k: int(v) for k, v in self.default_totals.items()},
            "factor_mean": (self.factor_sums / self.draws).tolist(),
            "factor_second_moment": (self.factor_sumsq / self.draws).tolist(),
        }


def _obligor_arrays(portfolio):
    pds = np.array([o.pd for o in portfolio.obligors])
    weights = np.array([o.weights for o in portfolio.obligors])
    sevs = [o.severity.values_and_probs() for o in portfolio.obligors]
    return pds, weights, sevs


def _sample_severity_sum(rng, vals, probs, counts):
    """Per-draw sums of ``counts[d]`` i.i.d. severities, fixed draw order."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(counts.size)
    if vals.size == 1:
        return counts * vals[0]
    draws = rng.choice(vals, size=total, p=probs)
    owner = np.repeat(np.arange(counts.size), counts)
    return np.bincount(owner, weights=draws, minlength=counts.size)


def _sample_severities(rng, vals, probs, size):
    if vals.size == 1:
        return np.full(size, vals[0])
    return rng.choice(vals, size=size, p=probs)


def _batches(portfolio, cfg):
    """Yield (S, D, X, p_S) arrays per batch in a fixed deterministic order.

    S: (b, N) factors; D: (b, n_obligors) default counts; X: (b,) losses;
    p_S: (b, n_obligors) conditional default intensities p_A^S.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    pds, weights, sevs = _obligor_arrays(portfolio)
    alphas = np.array([s.alpha for s in portfolio.sectors])
    n = alphas.size
    done = 0
    while done < cfg.draws:
        b = min(BATCH, cfg.draws - done)
        done += b
        if n:
            factors = rng.gamma(shape=alphas, scale=1.0 / alphas, size=(b, n))
        else:
            factors = np.zeros((b, 0))
        # p_A^S = p_A (w_A0 + sum_k w_Ak S_k); S_0 = 1
        p_s = pds * (weights[:, 0] + factors @ weights[:, 1:].T)
        defaults = rng.poisson(p_s)
        losses = np.zeros(b)
        for a, (vals, probs) in enumerate(sevs):
            losses += _sample_severity_sum(rng, vals, probs, defaults[:, a])
        yield factors, defaults, losses.astype(np.int64), p_s


def simulate(portfolio, cfg):
    """Run the simulation and tally losses and default counts."""
    n = portfolio.n_sectors
    ids = [o.id for o in portfolio.obligors]
    loss_counts = np.zeros(0, dtype=np.int64)
    default_totals = np.zeros(len(ids), dtype=np.int64)
    factor_sums = np.zeros(n)
    factor_sumsq = np.zeros(n)
    recorded = [] if cfg.record_default_counts else None
    for factors, defaults, losses, _ in _batches(portfolio, cfg):
        top = int(losses.max()) + 1 if losses.size else 1
        if top > loss_counts.size:
            loss_counts = np.concatenate(
                [loss_counts, np.zeros(top - loss_counts.size, dtype=np.int64)]
            )
        loss_counts += np.bincount(losses, minlength=loss_counts.size)
        default_totals += defaults.sum(axis=0)
        factor_sums += factors.sum(axis=0)
        factor_sumsq += (factors**2).sum(axis=0)
        if recorded is not None:
            recorded.append(defaults)
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
    o = portfolio.obligor(obligor_id)
    if o.pd == 0.0:
        raise ValueError(f"obligor {obligor_id}: pd is 0, no defaults to condition on")
    idx = [ob.id for ob in portfolio.obligors].index(obligor_id)
    size = limit + 1
    sum_w = 0.0  # sum D_A
    sum_w2 = 0.0  # sum D_A^2
    sum_wx = np.zeros(size)  # sum D_A I(X = x)
    sum_w2x = np.zeros(size)  # sum D_A^2 I(X = x)
    acc_counts = np.zeros(size)
    accepted = 0
    for _, defaults, losses, _ in _batches(portfolio, cfg):
        d = defaults[:, idx].astype(float)
        inside = losses <= limit
        sum_w += d.sum()
        sum_w2 += (d * d).sum()
        sum_wx += np.bincount(losses[inside], weights=d[inside], minlength=size)
        sum_w2x += np.bincount(losses[inside], weights=(d * d)[inside], minlength=size)
        hit = d >= 1
        accepted += int(hit.sum())
        acc_counts += np.bincount(losses[inside & hit], minlength=size)
    if accepted == 0 or sum_w == 0:
        raise ValueError(f"obligor {obligor_id}: zero accepted draws")
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
    ids = [o.id for o in portfolio.obligors]
    i1 = ids.index(portfolio.obligor(id1).id)
    i2 = None if id2 is None else ids.index(portfolio.obligor(id2).id)
    if i2 is not None and i1 == i2:
        raise ValueError("obligors must differ")
    sevs = {i: portfolio.obligors[i].severity.values_and_probs()
            for i in ([i1] if i2 is None else [i1, i2])}
    n = cfg.draws
    sum_l = sum_l2 = 0.0
    sum_r = sum_r2 = 0.0
    # Independent severity stream for the right-hand side's fresh draws.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([cfg.seed, 977])))
    for _, defaults, losses, p_s in _batches(portfolio, cfg):
        left = defaults[:, i1].astype(float) * (losses == x)
        shift = np.zeros(losses.size)
        prod_ps = p_s[:, i1].copy()
        if i2 is not None:
            left *= defaults[:, i2]
            prod_ps *= p_s[:, i2]
        for i, (vals, probs) in sevs.items():
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
