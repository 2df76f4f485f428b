import threading

import numpy as np
import pytest
from scipy import stats

from crplus import engine as eng
from crplus import pmf as pm
from crplus.engine import LossEngine
from crplus.pmf import TruncationError
from crplus.portfolio import Obligor, Portfolio, PortfolioError, Sector, SeverityDist

from conftest import make_reference_portfolio


def single_sector_portfolio(pd=0.1, alpha=1.0):
    return Portfolio((Sector("s1", alpha),),
                     (Obligor("A", pd, [0.0, 1.0], SeverityDist({1: 1.0})),))


# ---------------------------------------------------------------- assemble

def test_assemble_single_obligor():
    system = eng.assemble(single_sector_portfolio(), 30)
    assert system.mu[1] == pytest.approx(0.1)
    assert system.delta[0] == pytest.approx(1 / 11)
    assert system.q_polys[1][1] == 1.0


def test_assemble_intensity_additivity():
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),
                   Obligor("B", 0.3, [0.0, 1.0], SeverityDist({1: 1.0}))))
    system = eng.assemble(p, 30)
    assert system.mu[1] == pytest.approx(0.4)
    assert system.q_polys[1][1] == pytest.approx(1.0)


def test_assemble_severity_mixture():
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.2, [0.0, 1.0], SeverityDist({2: 1.0})),
                   Obligor("B", 0.2, [0.0, 1.0], SeverityDist({4: 1.0}))))
    system = eng.assemble(p, 30)
    assert system.q_polys[1][2] == pytest.approx(0.5)
    assert system.q_polys[1][4] == pytest.approx(0.5)


def test_assemble_inert_sector():
    p = Portfolio((Sector("s1", 1.0), Sector("dead", 2.0)),
                  (Obligor("A", 0.1, [0.0, 1.0, 0.0], SeverityDist({1: 1.0})),))
    system = eng.assemble(p, 30)
    assert system.inert(2)
    assert system.q_polys[2] is None
    assert system.delta[1] == 0.0
    out = eng.sector_loss(system, 2, 1)
    assert out[0] == 1.0


def test_assemble_rejects_defective_severity():
    # {2: 0.5} would silently give Q_1 a tail of 0.25 and the loss pmf a tail.
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),
                   Obligor("B", 0.1, [0.0, 1.0], SeverityDist({2: 0.5}))))
    with pytest.raises(PortfolioError, match="obligor B: severity probabilities sum to 0.5"):
        eng.assemble(p, 30)


# -------------------------------------------------------------- sector_loss

def test_sector_loss_geometric():
    system = eng.assemble(single_sector_portfolio(), 50)
    out = eng.sector_loss(system, 1, 0)
    n = np.arange(51)
    np.testing.assert_allclose(out.probs, (10 / 11) * (1 / 11) ** n, atol=1e-15)


def test_sector_loss_stressed_keeps_delta_fixed():
    system = eng.assemble(single_sector_portfolio(), 50)
    out = eng.sector_loss(system, 1, 1)
    # NB(alpha=2, delta=1/11): delta is NOT recomputed from alpha+1
    target = stats.nbinom.pmf(np.arange(51), 2.0, 10 / 11)
    assert out[0] == pytest.approx((10 / 11) ** 2)
    np.testing.assert_allclose(out.probs, target, atol=1e-13)


def test_sector_loss_idiosyncratic_rejects_offset():
    system = eng.assemble(single_sector_portfolio(), 30)
    with pytest.raises(ValueError, match="idiosyncratic"):
        eng.sector_loss(system, 0, 1)


def test_sector_loss_internal_offsets_beyond_two():
    # the module-level operation is not capped; only the engine's stress API is
    system = eng.assemble(single_sector_portfolio(), 50)
    out = eng.sector_loss(system, 1, 3)
    target = stats.nbinom.pmf(np.arange(51), 4.0, 10 / 11)
    np.testing.assert_allclose(out.probs, target, atol=1e-13)


# --------------------------------------------------------- loss_distribution

def test_loss_distribution_empty_portfolio():
    engine = LossEngine(eng.assemble(Portfolio((), ()), 10))
    out = engine.loss_distribution()
    assert out[0] == 1.0


def test_loss_distribution_idiosyncratic_equals_compound_poisson():
    p = Portfolio((), (Obligor("A", 0.2, [1.0], SeverityDist({2: 1.0})),))
    system = eng.assemble(p, 40)
    out = LossEngine(system).loss_distribution()
    direct = pm.compound_poisson(0.2, system.q_polys[0], 40)
    np.testing.assert_allclose(out.probs, direct.probs, atol=1e-15)


def test_loss_distribution_single_sector_geometric():
    engine = LossEngine(eng.assemble(single_sector_portfolio(), 50))
    out = engine.loss_distribution()
    n = np.arange(51)
    np.testing.assert_allclose(out.probs, (10 / 11) * (1 / 11) ** n, atol=1e-14)


def test_loss_distribution_mean_identity(reference_portfolio, reference_engine):
    out = reference_engine.loss_distribution()
    assert out.tail_mass < 1e-12
    assert pm.mean(out) == pytest.approx(reference_portfolio.expected_loss(), abs=1e-9)


def test_loss_distribution_permutation_invariant(reference_portfolio, reference_engine):
    p = reference_portfolio
    permuted = Portfolio(
        (p.sectors[1], p.sectors[0]),
        tuple(
            Obligor(o.id, o.pd, [o.weights[0], o.weights[2], o.weights[1]], o.severity)
            for o in reversed(p.obligors)
        ),
    )
    out = LossEngine(eng.assemble(permuted, 200)).loss_distribution()
    base = reference_engine.loss_distribution()
    np.testing.assert_allclose(out.probs, base.probs, atol=1e-12)


def test_loss_distribution_obligor_split_invariant(reference_portfolio, reference_engine):
    p = reference_portfolio
    a = p.obligor("A")
    split = Portfolio(p.sectors, tuple(
        [o for o in p.obligors if o.id != "A"]
        + [Obligor("A1", a.pd / 2, a.weights, a.severity),
           Obligor("A2", a.pd / 2, a.weights, a.severity)]
    ))
    out = LossEngine(eng.assemble(split, 200)).loss_distribution()
    base = reference_engine.loss_distribution()
    np.testing.assert_allclose(out.probs, base.probs, atol=1e-12)


def test_cached_equals_cache_free(reference_engine):
    for stress in [(0, 0), (1, 0), (0, 2), (1, 1)]:
        cached = reference_engine.loss_distribution(stress)
        fresh = eng.loss_distribution(reference_engine.system, stress)
        np.testing.assert_allclose(cached.probs, fresh.probs, atol=1e-13)


def panjer_fold(system, stress):
    """Stressed pmf from Panjer run at alpha_k + s_k in every sector: the reference."""
    out = pm._panjer_poisson(system.mu[0], system.q_polys[0], system.limit)
    for k, s in enumerate(stress, start=1):
        out = pm.convolve(out, pm._panjer_negbin(system.alphas[k - 1] + s, system.delta[k - 1],
                                                 system.q_polys[k], system.limit))
    return out


@pytest.mark.parametrize("stress", [(1, 0), (0, 2), (1, 1), (2, 2)])
def test_stressed_distribution_matches_panjer_fold(reference_engine, stress):
    out = reference_engine.loss_distribution(stress)
    ref = panjer_fold(reference_engine.system, stress)
    np.testing.assert_allclose(out.probs, ref.probs, rtol=0, atol=1e-15)
    assert out.tail_mass == pytest.approx(ref.tail_mass, abs=1e-14)


def test_stressed_distribution_matches_panjer_fold_above_fft_crossover():
    sectors = (Sector("s1", 0.7), Sector("s2", 2.0), Sector("s3", 1.2))
    obligors = tuple(
        Obligor(f"o{i}", 0.05 + 0.01 * (i % 7),
                [0.3, 0.7 * (i % 3 == 0), 0.7 * (i % 3 == 1), 0.7 * (i % 3 == 2)],
                SeverityDist({1 + i % 29: 0.5, 31 + (7 * i) % 31: 0.5}))
        for i in range(60)
    )
    system = eng.assemble(Portfolio(sectors, obligors), 1200)
    engine = LossEngine(system)
    assert system.limit >= 2 * pm.FFT_MIN_SIZE
    assert engine.kernel(2)[system.limit] > 0  # full-length kernel: the FFT path
    stress = (2, 1, 0)
    out = engine.loss_distribution(stress)
    ref = panjer_fold(system, stress)
    np.testing.assert_allclose(out.probs, ref.probs, rtol=0, atol=1e-15)
    assert pm.quantile(out, 0.999) == pm.quantile(ref, 0.999)


def test_derive_reuses_only_unchanged_sectors(reference_portfolio):
    engine = LossEngine(eng.assemble(reference_portfolio, 200))
    engine.loss_distribution((1, 1))
    # C loads on s2 only: the idiosyncratic sector and s1 are untouched.
    stripped = reference_portfolio.with_severity("C", SeverityDist({0: 1.0}))
    derived = engine.derive(eng.assemble(stripped, 200))
    assert derived.sector_loss(0) is engine.sector_loss(0)
    assert derived.sector_loss(1) is engine.sector_loss(1)
    assert derived.kernel(1) is engine.kernel(1)
    assert derived.sector_loss(2) is not engine.sector_loss(2)
    assert derived.kernel(2) is not engine.kernel(2)
    fresh = LossEngine(eng.assemble(stripped, 200))
    for stress in [(0, 0), (1, 1), (0, 2)]:
        np.testing.assert_array_equal(derived.loss_distribution(stress).probs,
                                      fresh.loss_distribution(stress).probs)


def test_stress_vector_validation(reference_engine):
    with pytest.raises(ValueError, match="length"):
        reference_engine.loss_distribution((1,))
    with pytest.raises(ValueError, match="offsets"):
        reference_engine.loss_distribution((3, 0))
    with pytest.raises(ValueError, match="offsets"):
        reference_engine.loss_distribution((-1, 0))


def test_concurrent_evaluation_matches_serial(reference_portfolio):
    stresses = [(i, j) for i in range(3) for j in range(3)]
    serial = {
        s: LossEngine(eng.assemble(reference_portfolio, 200)).loss_distribution(s)
        for s in stresses
    }
    shared = LossEngine(eng.assemble(reference_portfolio, 200))
    results = {}

    def run(s):
        results[s] = shared.loss_distribution(s)

    threads = [threading.Thread(target=run, args=(s,)) for s in stresses]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for s in stresses:
        np.testing.assert_allclose(results[s].probs, serial[s].probs, atol=1e-13)


def test_tail_tolerance_enforced():
    engine = LossEngine(eng.assemble(make_reference_portfolio(), 3), tail_tol=1e-9)
    with pytest.raises(TruncationError) as exc:
        engine.loss_distribution()
    assert exc.value.tail_mass > 1e-9


# ------------------------------------------------------------- risk_report

def test_risk_report_point_mass():
    rep = eng.risk_report(pm.point_mass(4, 10), [0.99])
    assert rep["mean"] == 4.0 and rep["variance"] == 0.0
    assert rep["quantiles"]["0.99"] == 4
    assert rep["expected_shortfall"]["0.99"] == pytest.approx(4.0)


def test_risk_report_hand_example():
    p = pm.from_dict({0: 0.5, 1: 0.3, 2: 0.2}, 5)
    rep = eng.risk_report(p, [0.75])
    assert rep["quantiles"]["0.75"] == 1
    assert rep["expected_shortfall"]["0.75"] == pytest.approx(1.8)


def test_risk_report_geometric_median():
    out = pm.compound_negbin(1.0, 1 / 11, pm.point_mass(1, 50), 50)
    assert eng.risk_report(out, [0.5])["quantiles"]["0.5"] == 0


# -------------------------------------------------------- suggest_truncation

def test_suggest_truncation_is_a_sane_starting_point(reference_portfolio):
    # The heuristic only suggests; the engine's tail_tol check is the gate.
    limit = eng.suggest_truncation(reference_portfolio)
    out = LossEngine(eng.assemble(reference_portfolio, limit)).loss_distribution()
    assert out.tail_mass < 1e-4
    assert limit < 500  # heuristic should not be wildly conservative here
