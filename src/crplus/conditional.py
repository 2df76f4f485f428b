"""Loss distributions conditional on the default of one or two obligors.

Conditioning on defaults turns into a weighted mean of stressed portfolio
loss distributions: each mixture component is the loss pmf with some sector
exponents incremented, convolved with the severity pmf(s) of the defaulted
obligor(s).  Since every stressed pmf is the base convolved with a product
of sector kernels, the mean is the base convolved once with the weighted
mean of those kernel products.  The write-off variant zeroes the defaulted
severities and recomposes the sector severity mixtures before evaluating
the components, so that occurred losses are excluded from the
forward-looking metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine as eng
from . import pmf as pm
from .pmf import Pmf
from .portfolio import PortfolioError

DEFAULT_THETAS = (0.95, 0.99)


@dataclass(frozen=True)
class ScenarioReport:
    """Conditional loss pmf plus risk measures and mixture diagnostics.

    ``mixture_weights`` are the raw component weights keyed by stress
    descriptor ("base", "+e_2", "+2e_1", "+e_1+e_2"); divided by
    ``normalizer`` they sum to 1.  The normalizer is 1 for single-default
    scenarios and 1 + sum_k w1k w2k / alpha_k for two defaults.
    """

    scenario: tuple
    writeoff: bool
    conditional_pmf: Pmf
    mixture_weights: dict
    normalizer: float
    risk: dict

    def to_json_dict(self, pmf_csv_path=None):
        doc = {
            "scenario": list(self.scenario),
            "writeoff": self.writeoff,
            "normalizer": self.normalizer,
            "mixture_weights": dict(self.mixture_weights),
            "risk": self.risk,
        }
        if pmf_csv_path is not None:
            doc["pmf_csv"] = str(pmf_csv_path)
        return doc


def _severity_pmf(engine, portfolio, obligor_id):
    return pm.from_dict(portfolio.severity_of(obligor_id), engine.system.limit)


def _stress(n, offsets):
    stress = [0] * n
    for j, off in offsets:
        stress[j - 1] += off
    return tuple(stress)


def _single_weights(weights, n):
    """Mixture weights of the single-default conditional: base + one stress per sector."""
    out = {"base": (float(weights[0]), _stress(n, []))}
    for j in range(1, n + 1):
        if weights[j] > 0.0:
            out[f"+e_{j}"] = (float(weights[j]), _stress(n, [(j, 1)]))
    return out


def _double_weights(w1, w2, alphas, n):
    """Mixture weights of the two-default conditional (raw, summing to the normalizer)."""
    out = {}

    def add(key, weight, offsets):
        if weight > 0.0:
            prev = out.get(key, (0.0, None))[0]
            out[key] = (prev + weight, _stress(n, offsets))

    add("base", w1[0] * w2[0], [])
    for j in range(1, n + 1):
        add(f"+e_{j}", w1[0] * w2[j] + w1[j] * w2[0], [(j, 1)])
        add(f"+2e_{j}", w1[j] * w2[j] * (alphas[j - 1] + 1.0) / alphas[j - 1], [(j, 2)])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            add(f"+e_{i}+e_{j}", w1[i] * w2[j] + w1[j] * w2[i], [(i, 1), (j, 1)])
    return out


def _mixture(engine, weights, shift_pmfs, normalizer):
    """Weighted mean of stressed pmfs, each convolved with the shift severities.

    Every component is base (*) K_c with K_c the engine's stress kernel, so
    the mean is base (*) K (*) shifts with K = sum_c w_c K_c / normalizer.
    Component c's tail beyond L is 1 - sum_j K_c[j] P[base <= L - j], which
    is held to the engine's tail tolerance as the stressed pmf itself is.
    """
    base = engine.loss_distribution()
    base_cdf_rev = base.cdf()[::-1]
    acc = np.zeros(engine.system.limit + 1)
    for weight, stress in weights.values():
        kernel = engine.stress_kernel(stress)
        engine.check_tail(1.0 - np.dot(kernel.probs, base_cdf_rev))
        acc += weight * kernel.probs
    acc /= normalizer
    out = pm.convolve(base, Pmf(acc, tail_mass=max(1.0 - acc.sum(), 0.0)))
    for shift in shift_pmfs:
        out = pm.convolve(out, shift)
    return out


def _writeoff_engine(engine, portfolio, obligor_ids):
    """Engine of the portfolio with the scenario severities set to 0.

    The sector intensities mu_k are unchanged (pds do not move); the
    severity mixtures of the sectors the defaulted obligors load on gain
    mass at 0.  ``assemble`` builds that system from the portfolio's columns
    (``written_off``), and only the changed sectors are recomputed: the
    others keep the parent engine's sector pmfs and kernels.
    """
    return engine.derive(eng.assemble(portfolio, engine.system.limit, written_off=obligor_ids))


def _scenario(engine, portfolio, ids, writeoff=False):
    """Mixture weights, normalizer and conditional pmf given the default of ``ids``."""
    loadings = [portfolio.columns.W[portfolio.row(oid)] for oid in ids]
    system = engine.system
    if len(loadings) == 1:
        weights = _single_weights(loadings[0], system.n_sectors)
        normalizer = 1.0
    else:
        w1, w2 = loadings
        weights = _double_weights(w1, w2, system.alphas, system.n_sectors)
        normalizer = 1.0 + float(np.sum(w1[1:] * w2[1:] / system.alphas))
    if writeoff:
        used, shift = _writeoff_engine(engine, portfolio, ids), []
    else:
        used, shift = engine, [_severity_pmf(engine, portfolio, oid) for oid in ids]
    return weights, normalizer, _mixture(used, weights, shift, normalizer)


def _check_level(engine, x):
    """P[X = x] at the unstressed parameters, for one loss level or an array.

    Raises for the first level (in x's order) where P[X = x] is 0, undefined
    or, above ``pmf.FFT_MIN_SIZE`` points, not resolved above round-off.
    """
    base = engine.loss_distribution()
    limit = engine.system.limit
    bound = pm.abs_error_bound(limit)
    levels = np.asarray(x)
    if levels.size and levels.min() >= 0 and levels.max() <= limit:
        p_x = base.probs[levels]
        if p_x.min() > bound:
            return p_x
    for level in levels.flat:
        if not 0 <= level <= limit:
            raise ValueError(f"loss level {level} outside the truncated support")
        if base[level] <= bound:
            if bound:
                raise ValueError(
                    f"P[X={level}] = {base[level]:.3g} is within the FFT absolute error bound "
                    f"{bound:g} at L={limit}: conditional intensity unresolved")
            raise ValueError(f"P[X={level}] = 0: conditional intensity undefined")
    raise ValueError("no loss level given")


def _per_level(x, values):
    """``values`` as a float for a scalar loss level x, else as an array."""
    return float(values) if np.ndim(x) == 0 else values


def cond_default_intensity(engine, portfolio, obligor_id, x):
    """Approximate conditional default probability E[D_A | X = x].

    E[D_A | X = x] = p_A P[X = x | A] / P[X = x]; requires P[X = x] > 0 at
    the unstressed parameters.  ``x`` is a loss level or an array of them
    (the result then has its shape); the conditional pmf is built once.
    """
    pd = float(portfolio.columns.pd[portfolio.row(obligor_id)])
    p_x = _check_level(engine, x)
    if pd == 0.0:
        return _per_level(x, np.zeros_like(p_x))
    _, _, cond = _scenario(engine, portfolio, [obligor_id])
    return _per_level(x, pd * cond.probs[x] / p_x)


def loss_given_one_default(engine, portfolio, obligor_id, writeoff=False,
                           thetas=DEFAULT_THETAS):
    """Portfolio loss distribution conditional on one obligor's default."""
    weights, normalizer, cond = _scenario(engine, portfolio, [obligor_id], writeoff)
    return ScenarioReport(
        scenario=(obligor_id,),
        writeoff=writeoff,
        conditional_pmf=cond,
        mixture_weights={k: w for k, (w, _) in weights.items()},
        normalizer=normalizer,
        risk=eng.risk_report(cond, thetas),
    )


def joint_default_intensity(portfolio, system, id1, id2):
    """Unconditional E[D_1 D_2] = p1 p2 (1 + sum_k w1k w2k / alpha_k)."""
    if id1 == id2:
        raise PortfolioError(f"obligors must differ, got {id1!r} twice")
    c, a1, a2 = portfolio.columns, portfolio.row(id1), portfolio.row(id2)
    coupling = float(np.sum(c.W[a1, 1:] * c.W[a2, 1:] / system.alphas))
    return float(c.pd[a1]) * float(c.pd[a2]) * (1.0 + coupling)


def joint_cond_intensity(engine, portfolio, id1, id2, x):
    """Approximate conditional joint default probability E[D_1 D_2 | X = x].

    E[D_1 D_2 | X = x] = p_1 p_2 c P[X = x | 1, 2] / P[X = x] with c the
    two-default normalizer 1 + sum_k w1k w2k / alpha_k.  ``x`` is a loss
    level or an array of them, as in ``cond_default_intensity``.
    """
    if id1 == id2:
        raise PortfolioError(f"obligors must differ, got {id1!r} twice")
    c = portfolio.columns
    pd1, pd2 = float(c.pd[portfolio.row(id1)]), float(c.pd[portfolio.row(id2)])
    p_x = _check_level(engine, x)
    if pd1 == 0.0 or pd2 == 0.0:
        return _per_level(x, np.zeros_like(p_x))
    _, normalizer, cond = _scenario(engine, portfolio, [id1, id2])
    return _per_level(x, pd1 * pd2 * normalizer * cond.probs[x] / p_x)


def loss_given_two_defaults(engine, portfolio, id1, id2, writeoff=False,
                            thetas=DEFAULT_THETAS):
    """Portfolio loss distribution conditional on two obligors' joint default."""
    if id1 == id2:
        raise PortfolioError(f"obligors must differ, got {id1!r} twice")
    weights, normalizer, cond = _scenario(engine, portfolio, [id1, id2], writeoff)
    return ScenarioReport(
        scenario=(id1, id2),
        writeoff=writeoff,
        conditional_pmf=cond,
        mixture_weights={k: w for k, (w, _) in weights.items()},
        normalizer=normalizer,
        risk=eng.risk_report(cond, thetas),
    )


def stressed_pd(portfolio, system, other_id, defaulted_id):
    """Conditional PD of ``other_id`` given ``defaulted_id``'s default.

    E[D_A D_B] / p_A = p_B (1 + sum_k w_Ak w_Bk / alpha_k).  Intended as a
    re-parameterized model input for the biased stressed-input comparison,
    not as a substitute for the exact conditional distribution.
    """
    if other_id == defaulted_id:
        raise PortfolioError(f"obligors must differ, got {other_id!r} twice")
    c, a = portfolio.columns, portfolio.row(defaulted_id)
    if c.pd[a] == 0.0:
        raise PortfolioError(f"obligor {defaulted_id}: pd is 0, cannot condition on its default")
    b = portfolio.row(other_id)
    coupling = float(np.sum(c.W[a, 1:] * c.W[b, 1:] / system.alphas))
    return float(c.pd[b]) * (1.0 + coupling)
