import gc
import math

import numpy as np
import pytest
from scipy import stats

from crplus import conditional as cd
from crplus import engine as eng
from crplus import mc
from crplus.engine import LossEngine
from crplus.portfolio import Obligor, Portfolio, PortfolioError, Sector, SeverityDist

from conftest import (UNVALIDATED, batches_searchsorted, make_reference_portfolio,
                      unvalidated_portfolio)

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


def test_no_accepted_draw_is_its_own_value_error(reference_portfolio):
    cfg = mc.SimConfig(draws=1, seed=1)  # draw 1 holds no default of E
    with pytest.raises(mc.NoAcceptedDrawsError, match="obligor E: zero accepted draws"):
        mc.estimate_conditional_one_default(reference_portfolio, "E", cfg, 200)
    assert issubclass(mc.NoAcceptedDrawsError, ValueError)


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
    assert mu[2] == 0.0 and tables[2].cum.size == 0
    assert all(1 not in t.owner for t in tables)
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


# ------------------------------------------------ guide-table pair lookup

def criterion12_portfolio(seed=2024, n_obligors=1000, n_sectors=10):
    """The criterion-12 recipe: two sectors per obligor, deterministic severities 1-50."""
    rng = np.random.default_rng(seed)
    sectors = tuple(Sector(f"s{k + 1}", float(a))
                    for k, a in enumerate(rng.uniform(0.5, 3.0, n_sectors)))
    obligors = []
    for i in range(n_obligors):
        w = np.zeros(n_sectors + 1)
        w[0] = rng.uniform(0.1, 0.5)
        ks = rng.choice(n_sectors, size=2, replace=False) + 1
        split = rng.uniform(0.2, 0.8)
        w[ks[0]] = (1 - w[0]) * split
        w[ks[1]] = (1 - w[0]) * (1 - split)
        obligors.append(Obligor(f"o{i}", float(rng.uniform(0.002, 0.02)), w,
                                SeverityDist({int(rng.integers(1, 51)): 1.0})))
    return Portfolio(sectors, tuple(obligors))


def pd_spread_portfolio(n_obligors=300):
    """pds from 1e-9 to 0.05 in shuffled order: runs of tiny pair masses share guide buckets."""
    rng = np.random.default_rng(61)
    pds = rng.permutation(np.geomspace(1e-9, 0.05, n_obligors))
    sectors = (Sector("s1", 0.7), Sector("s2", 2.0), Sector("s3", 4.0))
    obligors = []
    for i, pd in enumerate(pds):
        w = rng.dirichlet(np.ones(4))
        points = rng.choice(np.arange(1, 30), size=int(rng.integers(1, 4)), replace=False)
        probs = rng.dirichlet(np.ones(points.size))
        obligors.append(Obligor(f"o{i}", float(pd), w,
                                SeverityDist(dict(zip(points.tolist(), probs.tolist())))))
    return Portfolio(sectors, tuple(obligors))


def one_pair_portfolio():
    """The reference book plus sector s3, whose table holds one (obligor, value) pair."""
    ref = make_reference_portfolio()
    obligors = [Obligor(o.id, o.pd, np.append(o.weights, 0.0), o.severity) for o in ref.obligors]
    obligors.append(Obligor("F", 0.3, [0.4, 0.0, 0.0, 0.6], SeverityDist({3: 1.0})))
    return Portfolio(ref.sectors + (Sector("s3", 1.2),), tuple(obligors))


LOOKUP_BOOKS = {
    "reference": make_reference_portfolio,
    "criterion12": criterion12_portfolio,
    "pd_spread": pd_spread_portfolio,
    "one_pair": one_pair_portfolio,
}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("book, draws, batch, chunk", [
    pytest.param("reference", 100_000, None, None, id="reference"),
    pytest.param("criterion12", 20_000, None, None, id="criterion12"),
    pytest.param("pd_spread", 20_000, None, None, id="pd_spread"),
    pytest.param("one_pair", 20_000, None, None, id="one_pair"),
    pytest.param("reference", 3_500, 1_000, 64, id="reference_multi_batch"),
])
def test_batches_match_the_binary_search_bitwise(book, draws, batch, chunk, monkeypatch):
    if batch is not None:
        monkeypatch.setattr(mc, "BATCH", batch)
        monkeypatch.setattr(mc, "CHUNK", chunk)
    p = LOOKUP_BOOKS[book]()
    cfg = mc.SimConfig(draws=draws, seed=71)
    got = list(mc._batches(p, cfg))
    want = list(batches_searchsorted(p, cfg))
    assert len(got) == len(want) == -(-draws // mc.BATCH)
    for g, w in zip(got, want):
        for name, a, b in zip(("factors", "draw", "obligor", "losses"), g, w):
            assert _same_bits(a, b), name
    mu, tables, _ = mc._sector_tables(p)
    if book == "reference":
        # Each sector expects more than two chunks of events per batch.
        assert (mu * min(draws, mc.BATCH) > 2 * mc.CHUNK).all()
    if book == "pd_spread":
        # Expected number of uniforms that land in a searched bucket.
        searched = sum(m * np.mean(t.guide < 0) for m, t in zip(mu, tables)) * draws
        assert searched > 100
    if book == "one_pair":
        assert tables[3].cum.size == 1 and tables[3].guide.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("book, chunk", [("reference", 1), ("reference", 7), ("pd_spread", 100)])
def test_the_kept_batch_is_that_of_one_uniform_draw_per_batch(book, chunk, monkeypatch):
    # Each chunk's uniforms come from their own Generator.random call into
    # one buffer; Philox continues its stream across calls, so the kept
    # batch is bitwise the reference's, which draws all of a batch's
    # uniforms in one call, whatever the chunk size.
    monkeypatch.setattr(mc, "CHUNK", chunk)
    p = LOOKUP_BOOKS[book]()
    cfg = mc.SimConfig(draws=3000, seed=72)
    mc.simulate(p, cfg)
    (want,) = batches_searchsorted(p, cfg)
    assert mc._kept[0]() is p
    for name, a, b in zip(("factors", "draw", "obligor", "losses"), mc._kept[2], want):
        assert _same_bits(a, b), name
    assert want[1].size > 10 * chunk


def _searchsorted_pick(cum, u):
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), cum.size - 1)


@pytest.mark.parametrize("masses, searched", [
    pytest.param(np.geomspace(1e-12, 1.0, 37)[np.random.default_rng(3).permutation(37)], True,
                 id="spread"),
    pytest.param(np.full(50, 0.02), False, id="equal"),
    pytest.param(np.array([0.3]), False, id="one_pair"),
    pytest.param(np.array([3.0, 2.0]) * 5e-324, False, id="subnormal"),
])
def test_pick_at_bucket_edges_matches_the_binary_search(masses, searched):
    cum = np.cumsum(masses)
    n = cum.size
    table = mc._table(cum, np.arange(n, dtype=np.int32), np.arange(n, dtype=np.int32))
    buckets = table.guide.size
    assert buckets & (buckets - 1) == 0 and 4 * n <= buckets < 8 * n
    edges = np.arange(buckets) / buckets
    u = np.concatenate([edges, np.nextafter(edges[1:], 0.0), [np.nextafter(1.0, 0.0)]])
    v = u.copy()
    pick = mc._pick(table, v, mc._scratch(v.size))
    np.testing.assert_array_equal(pick, _searchsorted_pick(cum, u))
    assert _same_bits(v, u * cum[-1])
    assert (table.guide < 0).any() == searched


def test_pick_where_the_scaled_uniform_rounds_up_to_the_total():
    cum = np.array([3.0, 5.0]) * 5e-324
    u = np.array([np.nextafter(1.0, 0.0)])
    assert u[0] * cum[-1] == cum[-1]
    assert np.searchsorted(cum, u * cum[-1], side="right").tolist() == [2]  # past the table
    table = mc._table(cum, np.array([7, 8], dtype=np.int32), np.array([1, 2], dtype=np.int32))
    assert mc._pick(table, u.copy(), mc._scratch(1)).tolist() == [1]


def test_a_run_past_the_int32_range_sums_its_losses_exactly():
    # Int32 severities whose sums in a draw pass 2^31 - 1: every loss is
    # still the exact sum of its draw's severities.
    big = 2**31 - 10
    p = Portfolio((Sector("s", 0.3),),
                  (Obligor("A", 2.0, [0.1, 0.9], SeverityDist({big: 0.5, 1: 0.5})),
                   Obligor("B", 1.5, [0.0, 1.0], SeverityDist({big // 2: 1.0}))))
    cfg = mc.SimConfig(draws=3000, seed=72)
    (got,) = mc._batches(p, cfg)
    (want,) = batches_searchsorted(p, cfg)
    assert got[3].max() > 2 * big
    for name, a, b in zip(("factors", "draw", "obligor", "losses"), got, want):
        assert _same_bits(a, b), name


# ------------------------------------------------ the kept one-batch sample

def _three_estimates(p, cfg):
    return (mc.simulate(p, cfg),
            mc.estimate_conditional_one_default(p, "B", cfg, 200),
            mc.verify_fundamental_identity(p, "A", "C", 7, cfg))


def _fresh(fn, *args):
    mc._kept = None
    return fn(*args)


def _assert_same_results(a, b):
    a, b = (x if isinstance(x, dict) else vars(x) for x in (a, b))
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert _same_bits(a[key], b[key]), key
        else:
            assert type(a[key]) is type(b[key]) and a[key] == b[key], key


def test_simulate_estimate_and_verify_share_one_pass(sampling_passes):
    p = make_reference_portfolio()
    cfg = mc.SimConfig(draws=20_000, seed=81)
    shared = _three_estimates(p, cfg)
    assert sampling_passes == [p]
    fresh = (_fresh(mc.simulate, p, cfg),
             _fresh(mc.estimate_conditional_one_default, p, "B", cfg, 200),
             _fresh(mc.verify_fundamental_identity, p, "A", "C", 7, cfg))
    assert len(sampling_passes) == 4
    for a, b in zip(shared, fresh):
        _assert_same_results(a, b)


@pytest.mark.parametrize("other", [
    pytest.param(lambda p, cfg: (p, mc.SimConfig(cfg.draws, cfg.seed + 1)), id="seed"),
    pytest.param(lambda p, cfg: (p, mc.SimConfig(cfg.draws + 1, cfg.seed)), id="draws"),
    pytest.param(lambda p, cfg: (make_reference_portfolio(), cfg), id="portfolio"),
])
def test_another_key_draws_afresh(monkeypatch, sampling_passes, other):
    p = make_reference_portfolio()
    cfg = mc.SimConfig(draws=20_000, seed=82)
    held = []  # the record at the start of each fresh pass
    sample = mc._sample
    monkeypatch.setattr(mc, "_sample", lambda port, c: held.append(mc._kept) or sample(port, c))
    mc.simulate(p, cfg)
    q, cfg_q = other(p, cfg)
    assert q == p
    got = mc.simulate(q, cfg_q)
    assert len(sampling_passes) == 2 and sampling_passes[1] is q
    assert held == [None, None]  # the old sample is let go before the new one is drawn
    # The new key replaced the old one: the process keeps one sample.
    mc.simulate(p, cfg)
    assert len(sampling_passes) == 3
    _assert_same_results(got, _fresh(mc.simulate, q, cfg_q))


def test_a_run_of_several_batches_is_drawn_each_time_and_not_kept(monkeypatch, sampling_passes):
    monkeypatch.setattr(mc, "BATCH", 1000)
    p = make_reference_portfolio()
    cfg = mc.SimConfig(draws=2500, seed=83)
    shared = _three_estimates(p, cfg)
    assert len(sampling_passes) == 3 and mc._kept is None
    for a, b in zip(shared, _three_estimates(p, cfg)):
        _assert_same_results(a, b)


def test_the_kept_arrays_reject_writes():
    p = make_reference_portfolio()
    cfg = mc.SimConfig(draws=1000, seed=84)
    (first,) = mc._batches(p, cfg)
    (again,) = mc._batches(p, cfg)
    assert all(a is b for a, b in zip(first, again))
    for a in first:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


def test_the_kept_sample_goes_with_its_portfolio():
    p = make_reference_portfolio()
    mc.simulate(p, mc.SimConfig(draws=1000, seed=85))
    assert mc._kept is not None and mc._kept[0]() is p
    del p
    gc.collect()
    assert mc._kept is None


def test_recorded_counts_from_the_kept_sample_are_those_of_a_fresh_run(sampling_passes):
    p = make_reference_portfolio()
    mc.simulate(p, mc.SimConfig(draws=5000, seed=86))
    recorded = mc.SimConfig(draws=5000, seed=86, record_default_counts=True)
    got = mc.simulate(p, recorded)
    assert len(sampling_passes) == 1
    _assert_same_results(got, _fresh(mc.simulate, p, recorded))
