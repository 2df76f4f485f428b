"""Loss distributions conditional on the default of one or two obligors.

Conditioning on defaults turns into a weighted mean of stressed portfolio
loss distributions: each mixture component is the loss pmf with some sector
exponents incremented, convolved with the severity pmf(s) of the defaulted
obligor(s).  The engine evaluates the weighted mean of the stressed pmfs
and the shifts (``LossEngine.mixture``: one inverse FFT on its grid, the
defaulted severities included, from ``pmf.FFT_MIN_SIZE`` points on; below,
the base convolved once with the weighted kernel products and then with the
severities); this module only names the components, their weights and the
shifts.  The write-off variant zeroes the defaulted severities and
recomposes the severity mixtures of the sectors they load on
(``LossEngine.written_off``) before evaluating the components, so that
occurred losses are excluded from the forward-looking metrics.

One path builds every scenario: ``_components`` gives each mixture
component's raw weight and the sectors it stresses, ``_scenario`` adds the
normalizer and evaluates the mixture, and the four public conditionals are
``_report`` (loss distributions) or ``_intensity`` (conditional default
intensities) over it.  ``stressed_pds`` is the one stressed-pd formula.
"""

from __future__ import annotations

import math
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


def _distinct(ids):
    """Raise PortfolioError when a two-default scenario names one obligor twice."""
    if len(ids) == 2 and ids[0] == ids[1]:
        raise PortfolioError(f"obligors must differ, got {ids[0]!r} twice")


def _coupling(portfolio, system, id1, id2):
    """sum_k w_1k w_2k / alpha_k over the factor sectors."""
    W = portfolio.columns.W
    return float(np.sum(W[portfolio.row(id1), 1:] * W[portfolio.row(id2), 1:] / system.alphas))


def _components(loadings, alphas):
    """Descriptor -> (raw weight, stressed sectors, one entry per unit of
    stress) given the default of the obligors with weight vectors ``loadings``.

    One default: base and the +e_j with w_j > 0.  Two defaults: those of
    base, +e_j, +2e_j and +e_i+e_j with weight > 0, summing to the normalizer,
    in that order with j and (i, j) ascending.  A term of a sector neither
    obligor loads on has weight 0, so only the loaded sectors are visited.
    """
    n = alphas.size
    if len(loadings) == 1:
        (w,) = loadings
        out = {"base": (float(w[0]), [])}
        out.update((f"+e_{j}", (float(w[j]), [j])) for j in range(1, n + 1) if w[j] > 0.0)
        return out
    w1, w2 = loadings
    loaded = (np.flatnonzero((w1[1:] > 0.0) | (w2[1:] > 0.0)) + 1).tolist()
    terms = [("base", w1[0] * w2[0], [])]
    for j in loaded:
        terms.append((f"+e_{j}", w1[0] * w2[j] + w1[j] * w2[0], [j]))
        terms.append((f"+2e_{j}", w1[j] * w2[j] * (alphas[j - 1] + 1.0) / alphas[j - 1], [j, j]))
    terms += [(f"+e_{i}+e_{j}", w1[i] * w2[j] + w1[j] * w2[i], [i, j])
              for a, i in enumerate(loaded) for j in loaded[a + 1:]]
    return {key: (weight, sectors) for key, weight, sectors in terms if weight > 0.0}


def _scenario(engine, portfolio, ids, writeoff=False):
    """Mixture components, normalizer and conditional pmf given the default of ``ids``.

    ``LossEngine.mixture`` gives sum_c w_c (base (*) K_c) / normalizer
    convolved with the defaulted severities, and holds every component's
    tail to the engine's tail tolerance; on its Fourier grid the severities
    are factors of the mixture's one inverse FFT.  A write-off takes the mixture, unshifted,
    on ``engine.written_off(portfolio, ids)``, the engine of the book with
    the scenario severities at 0: mu_k stay, the severity mixtures of the
    sectors they load on gain mass at 0, and only those sectors are
    recomputed.
    """
    system = engine.system
    components = _components([portfolio.columns.W[portfolio.row(oid)] for oid in ids],
                             system.alphas)
    normalizer = 1.0 if len(ids) == 1 else 1.0 + _coupling(portfolio, system, *ids)
    if writeoff:
        engine, shifts = engine.written_off(portfolio, ids), []
    else:
        shifts = [portfolio.severity_of(oid) for oid in ids]
    return components, normalizer, engine.mixture(components.values(), normalizer, shifts)


def _report(engine, portfolio, ids, writeoff, thetas):
    """The ``ScenarioReport`` of the default of ``ids``."""
    _distinct(ids)
    components, normalizer, cond = _scenario(engine, portfolio, ids, writeoff)
    return ScenarioReport(
        scenario=tuple(ids),
        writeoff=writeoff,
        conditional_pmf=cond,
        mixture_weights={k: w for k, (w, _) in components.items()},
        normalizer=normalizer,
        risk=eng.risk_report(cond, thetas),
    )


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


def _intensity(engine, portfolio, ids, x):
    """E[prod_{A in ids} D_A | X = x] = (prod_A p_A) c P[X = x | ids] / P[X = x].

    c is the scenario's normalizer; a float for a scalar loss level x, else
    an array of x's shape.
    """
    _distinct(ids)
    c = portfolio.columns
    pds = [float(c.pd[portfolio.row(oid)]) for oid in ids]
    p_x = _check_level(engine, x)
    if 0.0 in pds:
        values = np.zeros_like(p_x)
    else:
        _, normalizer, cond = _scenario(engine, portfolio, ids)
        values = math.prod(pds) * normalizer * cond.probs[x] / p_x
    return float(values) if np.ndim(x) == 0 else values


def cond_default_intensity(engine, portfolio, obligor_id, x):
    """Approximate conditional default probability E[D_A | X = x].

    E[D_A | X = x] = p_A P[X = x | A] / P[X = x]; requires P[X = x] > 0 at
    the unstressed parameters.  ``x`` is a loss level or an array of them
    (the result then has its shape); the conditional pmf is built once.
    """
    return _intensity(engine, portfolio, [obligor_id], x)


def loss_given_one_default(engine, portfolio, obligor_id, writeoff=False,
                           thetas=DEFAULT_THETAS):
    """Portfolio loss distribution conditional on one obligor's default."""
    return _report(engine, portfolio, [obligor_id], writeoff, thetas)


def joint_default_intensity(portfolio, system, id1, id2):
    """Unconditional E[D_1 D_2] = p1 p2 (1 + sum_k w1k w2k / alpha_k)."""
    _distinct([id1, id2])
    pd = portfolio.columns.pd
    return (float(pd[portfolio.row(id1)]) * float(pd[portfolio.row(id2)])
            * (1.0 + _coupling(portfolio, system, id1, id2)))


def joint_cond_intensity(engine, portfolio, id1, id2, x):
    """Approximate conditional joint default probability E[D_1 D_2 | X = x].

    E[D_1 D_2 | X = x] = p_1 p_2 c P[X = x | 1, 2] / P[X = x] with c the
    two-default normalizer 1 + sum_k w1k w2k / alpha_k.  ``x`` is a loss
    level or an array of them, as in ``cond_default_intensity``.
    """
    return _intensity(engine, portfolio, [id1, id2], x)


def loss_given_two_defaults(engine, portfolio, id1, id2, writeoff=False,
                            thetas=DEFAULT_THETAS):
    """Portfolio loss distribution conditional on two obligors' joint default."""
    return _report(engine, portfolio, [id1, id2], writeoff, thetas)


def stressed_pds(portfolio, system, defaulted_id):
    """Every obligor's PD conditional on ``defaulted_id``'s default.

    E[D_A D_B] / p_A = p_B (1 + sum_k w_Ak w_Bk / alpha_k) for all obligors
    B at once over ``portfolio.columns``, A = ``defaulted_id``; the entry
    of A itself is not a conditional PD.  Intended as re-parameterized model
    inputs for the biased stressed-input comparison, not as a substitute for
    the exact conditional distribution.
    """
    c, a = portfolio.columns, portfolio.row(defaulted_id)
    if c.pd[a] == 0.0:
        raise PortfolioError(f"obligor {defaulted_id}: pd is 0, cannot condition on its default")
    return c.pd * (1.0 + c.W[:, 1:] @ (c.W[a, 1:] / system.alphas))


def stressed_pd(portfolio, system, other_id, defaulted_id):
    """Conditional PD of ``other_id`` given ``defaulted_id``'s default (``stressed_pds``)."""
    _distinct([other_id, defaulted_id])
    return float(stressed_pds(portfolio, system, defaulted_id)[portfolio.row(other_id)])
