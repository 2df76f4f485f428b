import math

import numpy as np
import pytest
from scipy import stats

from crplus import conditional as cd
from crplus import engine as eng
from crplus import mc
from crplus.engine import LossEngine
from crplus.portfolio import Obligor, Portfolio, PortfolioError, Sector, SeverityDist

from conftest import UNVALIDATED, unvalidated_portfolio

DRAWS = 200_000


def test_determinism_same_seed(reference_portfolio):
    cfg = mc.SimConfig(draws=50_000, seed=123)
    a = mc.simulate(reference_portfolio, cfg)
    b = mc.simulate(reference_portfolio, cfg)
    np.testing.assert_array_equal(a.loss_counts, b.loss_counts)
    assert a.default_totals == b.default_totals
    c = mc.simulate(reference_portfolio, mc.SimConfig(draws=50_000, seed=124))
    assert not np.array_equal(a.loss_counts, c.loss_counts)


@pytest.mark.parametrize("pd, weights, message", UNVALIDATED)
def test_simulate_names_an_unvalidated_obligor(pd, weights, message):
    p = unvalidated_portfolio(pd, weights)
    cfg = mc.SimConfig(draws=100, seed=1)
    with pytest.raises(PortfolioError, match=message):
        mc.simulate(p, cfg)
    with pytest.raises(PortfolioError, match=message):
        mc.estimate_conditional_one_default(p, "A", cfg, 10)


def test_zero_pd_portfolio_all_losses_zero():
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.0, [0.0, 1.0], SeverityDist({3: 1.0})),))
    res = mc.simulate(p, mc.SimConfig(draws=10_000, seed=5))
    assert res.loss_counts[0] == 10_000
    assert res.loss_counts.sum() == 10_000


def test_idiosyncratic_zero_loss_probability():
    p = Portfolio((), (Obligor("A", 0.2, [1.0], SeverityDist({2: 1.0})),))
    res = mc.simulate(p, mc.SimConfig(draws=DRAWS, seed=9))
    target = math.exp(-0.2)
    se = math.sqrt(target * (1 - target) / DRAWS)
    assert abs(res.loss_counts[0] / DRAWS - target) < 3 * se


def test_single_sector_zero_loss_probability():
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),))
    res = mc.simulate(p, mc.SimConfig(draws=DRAWS, seed=11))
    target = 10 / 11
    se = math.sqrt(target * (1 - target) / DRAWS)
    assert abs(res.loss_counts[0] / DRAWS - target) < 3 * se


def test_default_count_means(reference_portfolio):
    res = mc.simulate(reference_portfolio, mc.SimConfig(draws=DRAWS, seed=21))
    for o in reference_portfolio.obligors:
        # Var D_A = p + p^2 * var(sum_k w_k S_k) >= p; use p as an SE floor
        se = math.sqrt(o.pd * 1.5 / DRAWS)
        assert abs(res.default_totals[o.id] / DRAWS - o.pd) < 4 * se


def test_factor_moments(reference_portfolio):
    res = mc.simulate(reference_portfolio, mc.SimConfig(draws=DRAWS, seed=22))
    for k, sector in enumerate(reference_portfolio.sectors):
        mean = res.factor_sums[k] / DRAWS
        var = res.factor_sumsq[k] / DRAWS - mean**2
        # Var of the sample variance of a Gamma is ~ (kurtosis terms); 4 SE
        # with the crude normal-based SE sqrt(2/alpha^2/n) * safety factor.
        se_mean = math.sqrt(1.0 / sector.alpha / DRAWS)
        assert abs(mean - 1.0) < 4 * se_mean
        assert abs(var - 1.0 / sector.alpha) < 0.1 / sector.alpha


def test_weighted_estimator_matches_analytic(reference_portfolio, reference_engine):
    cfg = mc.SimConfig(draws=DRAWS, seed=31)
    est = mc.estimate_conditional_one_default(reference_portfolio, "B", cfg, 200)
    ana = cd.loss_given_one_default(reference_engine, reference_portfolio, "B")
    probs = ana.conditional_pmf.probs
    expected_counts = probs * DRAWS * 0.4
    mask = expected_counts >= 25
    dev = np.abs(est.weighted - probs)
    within = dev[mask] <= 3 * est.weighted_se[mask]
    assert within.mean() >= 0.95


def test_rejection_estimator_reported_alongside(reference_portfolio):
    cfg = mc.SimConfig(draws=DRAWS, seed=32)
    est = mc.estimate_conditional_one_default(reference_portfolio, "B", cfg, 200)
    assert 0 < est.accepted < DRAWS
    assert est.weight_total >= est.accepted
    assert abs(est.rejection.sum() - 1.0) < 1e-9
    assert abs(est.weighted.sum() - 1.0) < 1e-9


def test_idiosyncratic_conditional_is_shift():
    p = Portfolio((), (Obligor("A", 0.2, [1.0], SeverityDist({3: 1.0})),
                       Obligor("B", 0.3, [1.0], SeverityDist({1: 1.0}))))
    engine = LossEngine(eng.assemble(p, 60))
    ana = cd.loss_given_one_default(engine, p, "A").conditional_pmf.probs
    est = mc.estimate_conditional_one_default(p, "A", mc.SimConfig(draws=DRAWS, seed=33), 60)
    mask = ana * DRAWS * 0.2 >= 25
    within = np.abs(est.weighted - ana)[mask] <= 4 * est.weighted_se[mask]
    assert within.mean() >= 0.95


def test_zero_pd_conditioning_rejected():
    p = Portfolio((), (Obligor("A", 0.0, [1.0], SeverityDist({1: 1.0})),))
    with pytest.raises(ValueError, match="pd is 0"):
        mc.estimate_conditional_one_default(p, "A", mc.SimConfig(draws=100, seed=1), 10)


def test_fundamental_identity_single_idiosyncratic():
    p = Portfolio((), (Obligor("A", 0.2, [1.0], SeverityDist({2: 1.0})),
                       Obligor("B", 0.3, [1.0], SeverityDist({1: 1.0}))))
    engine = LossEngine(eng.assemble(p, 60))
    base = engine.loss_distribution()
    x = 3
    report = mc.verify_fundamental_identity(p, "A", None, x, mc.SimConfig(draws=DRAWS, seed=41))
    # analytic value of both sides: p_A * P[X = x - 2]
    target = 0.2 * base[x - 2]
    assert report["consistent_3se"]
    assert abs(report["left"] - target) < 4 * max(report["left_se"], 1e-12)
    assert abs(report["right"] - target) < 4 * max(report["right_se"], 1e-12)


def test_fundamental_identity_two_obligors(reference_portfolio, reference_engine):
    report = mc.verify_fundamental_identity(
        reference_portfolio, "A", "B", 3, mc.SimConfig(draws=DRAWS, seed=42))
    assert report["consistent_3se"]
    base = reference_engine.loss_distribution()
    target = cd.joint_cond_intensity(reference_engine, reference_portfolio, "A", "B", 3) * base[3]
    assert abs(report["right"] - target) < 4 * max(report["right_se"], 1e-12)


def test_fundamental_identity_unreachable_loss_level(reference_portfolio):
    report = mc.verify_fundamental_identity(
        reference_portfolio, "A", "B", 5000, mc.SimConfig(draws=20_000, seed=43))
    assert report["left"] == 0.0 and report["right"] == 0.0
    assert report["consistent_3se"]


def test_record_default_counts(reference_portfolio):
    res = mc.simulate(reference_portfolio, mc.SimConfig(draws=1000, seed=3,
                                                        record_default_counts=True))
    assert res.default_counts.shape == (1000, 5)
    assert res.default_counts.sum(axis=0).tolist() == [
        res.default_totals[o.id] for o in reference_portfolio.obligors]


# ------------------------------------------------ sector-split sampler

def _moment_z(samples, target):
    """|mean(samples) - target| in standard errors of the sample mean."""
    se = samples.std() / math.sqrt(samples.size)
    return abs(samples.mean() - target) / se


def test_default_count_variances_and_covariances(reference_portfolio):
    # Var D_A = p_A + p_A^2 sum_k w_Ak^2 / alpha_k and
    # Cov(D_A, D_B) = p_A p_B sum_k w_Ak w_Bk / alpha_k (0 without shared sectors).
    res = mc.simulate(reference_portfolio, mc.SimConfig(draws=DRAWS, seed=51,
                                                        record_default_counts=True))
    obligors = reference_portfolio.obligors
    inv_alpha = np.array([1.0 / s.alpha for s in reference_portfolio.sectors])
    pds = np.array([o.pd for o in obligors])
    centred = res.default_counts - pds  # the means are known exactly
    for a, oa in enumerate(obligors):
        for b, ob in enumerate(obligors[a:], start=a):
            cov = oa.pd * ob.pd * float(np.sum(oa.weights[1:] * ob.weights[1:] * inv_alpha))
            if a == b:
                cov += oa.pd
            assert _moment_z(centred[:, a] * centred[:, b], cov) < 4, (oa.id, ob.id)


def test_zero_pd_obligor_and_empty_sector_yield_no_events():
    p = Portfolio((Sector("s1", 1.0), Sector("unused", 2.0)),
                  (Obligor("A", 0.3, [0.5, 0.5, 0.0], SeverityDist({1: 0.5, 2: 0.5})),
                   Obligor("Z", 0.0, [0.0, 1.0, 0.0], SeverityDist({4: 1.0}))))
    mu, tables, _ = mc._sector_tables(p)
    assert mu[2] == 0.0 and tables[2][0].size == 0
    assert all(1 not in owner for _, owner, _ in tables)
    events = 0
    for _, draw, obligor, _ in mc._batches(p, mc.SimConfig(draws=50_000, seed=52)):
        assert not np.any(obligor == 1)
        events += obligor.size
    assert events > 0
    res = mc.simulate(p, mc.SimConfig(draws=50_000, seed=52))
    assert res.default_totals["Z"] == 0
    assert res.default_totals["A"] == events


def test_batch_boundary_determinism_and_recorded_counts(reference_portfolio):
    sev = {"A": 2, "B": 3, "C": 4, "D": 5, "E": 1}
    p = Portfolio(reference_portfolio.sectors,
                  tuple(Obligor(o.id, o.pd, o.weights, SeverityDist({sev[o.id]: 1.0}))
                        for o in reference_portfolio.obligors))
    cfg = mc.SimConfig(draws=mc.BATCH + 7, seed=53, record_default_counts=True)
    a, b = mc.simulate(p, cfg), mc.simulate(p, cfg)
    np.testing.assert_array_equal(a.loss_counts, b.loss_counts)
    np.testing.assert_array_equal(a.default_counts, b.default_counts)
    assert a.default_totals == b.default_totals
    assert a.default_counts.shape == (mc.BATCH + 7, 5)
    assert a.default_counts.sum(axis=0).tolist() == [a.default_totals[o.id] for o in p.obligors]
    losses = a.default_counts @ np.array([sev[o.id] for o in p.obligors])
    np.testing.assert_array_equal(np.bincount(losses), a.loss_counts)
    plain = mc.simulate(p, mc.SimConfig(draws=mc.BATCH + 7, seed=53))
    np.testing.assert_array_equal(plain.loss_counts, a.loss_counts)


def test_simulated_loss_pmf_chi_square(reference_portfolio, reference_engine):
    res = mc.simulate(reference_portfolio, mc.SimConfig(draws=DRAWS, seed=54))
    base = reference_engine.loss_distribution()
    expected = np.append(base.probs, base.tail_mass) * DRAWS
    counts = np.zeros(expected.size)
    top = min(res.loss_counts.size, base.probs.size)
    counts[:top] = res.loss_counts[:top]
    counts[-1] += res.loss_counts[top:].sum()
    # Merge adjacent bins until each expects at least 20 draws.
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= 20:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    obs[-1] += acc_o
    exp[-1] += acc_e
    obs, exp = np.array(obs), np.array(exp)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    assert obs.size > 30
    assert stats.chi2.sf(stat, obs.size - 1) > 1e-3


def test_empty_book_has_zero_losses():
    res = mc.simulate(Portfolio((Sector("s1", 1.0),), ()), mc.SimConfig(draws=1000, seed=55))
    assert res.loss_counts.tolist() == [1000]
    assert res.loss_mean() == (0.0, 0.0)
