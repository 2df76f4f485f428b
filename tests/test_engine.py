import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from crplus import engine as eng
from crplus import pmf as pm
from crplus.engine import LossEngine
from crplus.pmf import AliasingError, TruncationError, UnderflowError
from crplus.portfolio import Obligor, Portfolio, PortfolioError, Sector, SeverityDist

from conftest import (UNVALIDATED, make_reference_portfolio, panjer_negbin, panjer_poisson,
                      stressed_need, unvalidated_portfolio, with_severity)
from test_mc import criterion12_portfolio


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
    # Nobody loads on the idiosyncratic sector or on "dead": mu_k = 0, so
    # Q_k is a point mass at 0 and the sector pmf and kernel are exactly
    # point masses at 0, below and above the FFT threshold.
    p = Portfolio((Sector("s1", 1.0), Sector("dead", 2.0)),
                  (Obligor("A", 0.1, [0.0, 1.0, 0.0], SeverityDist({1: 1.0})),))
    for limit in (30, pm.FFT_MIN_SIZE + 100):
        system = eng.assemble(p, limit)
        point = pm.point_mass(0, limit).probs
        assert system.mu[0] == system.mu[2] == 0.0 and system.delta[1] == 0.0
        np.testing.assert_array_equal(system.q_polys[2].probs, point)
        engine = LossEngine(system)
        for out in (engine.sector_loss(0), engine.sector_loss(2), engine.kernel(2)):
            np.testing.assert_array_equal(out.probs, point)
            assert out.tail_mass == 0.0
        np.testing.assert_array_equal(engine.loss_distribution((0, 2)).probs,
                                      engine.loss_distribution().probs)


def test_assemble_rejects_defective_severity():
    # {2: 0.5} would silently give Q_1 a tail of 0.25 and the loss pmf a tail.
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),
                   Obligor("B", 0.1, [0.0, 1.0], SeverityDist({2: 0.5}))))
    with pytest.raises(PortfolioError, match="obligor B: severity probabilities sum to 0.5"):
        eng.assemble(p, 30)


@pytest.mark.parametrize("pd, weights, message", UNVALIDATED)
def test_assemble_names_an_unvalidated_obligor(pd, weights, message):
    p = unvalidated_portfolio(pd, weights)
    with pytest.raises(PortfolioError, match=message):
        eng.assemble(p, 30)
    with pytest.raises(PortfolioError, match=message):
        eng.suggest_truncation(p)


# -------------------------------------------------------------- sector_loss

def test_sector_loss_geometric():
    system = eng.assemble(single_sector_portfolio(), 50)
    out = eng.sector_loss(system, 1)
    n = np.arange(51)
    np.testing.assert_allclose(out.probs, (10 / 11) * (1 / 11) ** n, atol=1e-15)


def test_sector_loss_stressed_keeps_delta_fixed():
    engine = LossEngine(eng.assemble(single_sector_portfolio(), 50))
    out = engine.loss_distribution((1,))
    # NB(alpha=2, delta=1/11): delta is NOT recomputed from alpha+1
    target = stats.nbinom.pmf(np.arange(51), 2.0, 10 / 11)
    assert out[0] == pytest.approx((10 / 11) ** 2)
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
    out = panjer_poisson(system.mu[0], system.q_polys[0], system.limit)
    for k, s in enumerate(stress, start=1):
        out = pm.convolve(out, panjer_negbin(system.alphas[k - 1] + s, system.delta[k - 1],
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
    stress = (2, 1, 0)
    out = engine.loss_distribution(stress)
    # The Fourier path: the kernel spectra of the engine's record, no kernel pmf.
    assert set(engine._cache) == {"grid", "spectra"}
    ref = panjer_fold(system, stress)
    np.testing.assert_allclose(out.probs, ref.probs, rtol=0, atol=1e-15)
    assert pm.quantile(out, 0.999) == pm.quantile(ref, 0.999)


@pytest.mark.parametrize("limit", [500, 1000])
@pytest.mark.parametrize("alpha", [0.05, 1.0, 50.0])
@pytest.mark.parametrize("delta", [1e-8, 0.5, 0.99, 0.999])
def test_fourier_kernels_and_stressed_pmfs_at_extreme_parameters(delta, alpha, limit):
    # One factor sector (q0 > 0) and an idiosyncratic sector without claims:
    # the kernel is the compound NB(1, delta) and the pmf under stress s the
    # compound NB(alpha + s, delta), both from the closed-form kernel spectrum.
    q = pm.from_dict({0: 0.1, 1: 0.5, 4: 0.3, 9: 0.1}, limit)
    system = eng.SectorSystem(mu=np.array([0.0, alpha * delta / (1.0 - delta)]),
                              delta=np.array([delta]), alphas=np.array([alpha]),
                              q_polys=(pm.point_mass(0, limit), q), limit=limit,
                              sector_ids=("s1",), reach=9)
    engine = LossEngine(system)
    outputs = [(engine.kernel(1), 1.0)]
    outputs += [(engine.loss_distribution((s,)), alpha + s) for s in (1, 2)]
    # T_1 is the record's closed form of the severity spectrum, which is not kept.
    assert set(engine._cache) == {"grid", "spectra"}
    q_hat = np.fft.rfft(q.probs, engine._grid())
    np.testing.assert_allclose(engine._cache["spectra"].kernels[0],
                               (1.0 - delta) / (1.0 - delta * q_hat), rtol=1e-15, atol=0.0)
    for out, a in outputs:
        ref = panjer_negbin(a, delta, q, limit)
        assert np.max(np.abs(out.probs - ref.probs)) <= pm.FFT_ABS_ERROR, a
        assert out.tail_mass == pytest.approx(ref.tail_mass, abs=1e-12), a


def test_writeoff_engine_reuses_only_unchanged_sectors(reference_portfolio):
    engine = LossEngine(eng.assemble(reference_portfolio, 200))
    engine.loss_distribution((1, 1))
    # C loads on s2 only: the idiosyncratic sector and s1 are untouched.
    stripped = with_severity(reference_portfolio, "C", SeverityDist({0: 1.0}))
    derived = engine.written_off(reference_portfolio, ("C",))
    assert derived.sector_loss(0) is engine.sector_loss(0)
    assert derived.sector_loss(1) is engine.sector_loss(1)
    assert derived.kernel(1) is engine.kernel(1)
    assert derived.sector_loss(2) is not engine.sector_loss(2)
    assert derived.kernel(2) is not engine.kernel(2)
    fresh = LossEngine(eng.assemble(stripped, 200))
    for stress in [(0, 0), (1, 1), (0, 2)]:
        np.testing.assert_array_equal(derived.loss_distribution(stress).probs,
                                      fresh.loss_distribution(stress).probs)


def test_base_fills_every_sector_and_loaded_kernel_in_one_pass(panjer_passes):
    # Sector s3 has no obligor: its pmf and kernel are point masses that need
    # no recursion row.
    ref = make_reference_portfolio()
    p = Portfolio(ref.sectors + (Sector("s3", 2.0),),
                  tuple(Obligor(o.id, o.pd, list(o.weights) + [0.0], o.severity)
                        for o in ref.obligors))
    engine = LossEngine(eng.assemble(p, 120))
    engine.loss_distribution()
    assert panjer_passes == [5]  # sectors 0, 1, 2 and kernels 1, 2
    assert {("kernel", 1), ("kernel", 2), ("sector", 3)} <= set(engine._cache)
    assert ("kernel", 3) not in engine._cache
    for k in (1, 2):
        ref = panjer_negbin(1.0, engine.system.delta[k - 1], engine.system.q_polys[k], 120)
        np.testing.assert_array_equal(engine.kernel(k).probs, ref.probs)
    engine.loss_distribution((2, 1, 1))
    assert panjer_passes == [5]


# ------------------------------------------------- spectral base above FFT_MIN_SIZE

SPECTRAL_LIMIT = 600


@pytest.mark.parametrize("obligors, p0", [
    pytest.param((), 1.0, id="empty"),
    pytest.param((Obligor("A", 0.3, [0.5, 0.5], SeverityDist({0: 1.0})),), 1.0,
                 id="zero_severities"),
    # P[no default] = exp(-0.15) (1 + 0.15)**-1; every default lands beyond L.
    pytest.param((Obligor("A", 0.3, [0.5, 0.5], SeverityDist({700: 1.0})),),
                 0.7484417186304851, id="severity_beyond_limit"),
])
def test_spectral_base_of_edge_books(obligors, p0):
    sectors = (Sector("s1", 1.0),) if obligors else ()
    out = LossEngine(eng.assemble(Portfolio(sectors, obligors), SPECTRAL_LIMIT)).loss_distribution()
    assert out.probs[0] == pytest.approx(p0, rel=1e-15, abs=0.0)
    assert out.tail_mass == pytest.approx(1.0 - p0, abs=1e-15)
    np.testing.assert_array_equal(out.probs[1:], 0.0)


@st.composite
def spectral_systems(draw):
    """Sector systems above the FFT crossover: an idiosyncratic sector, one to
    three factor sectors and one unloaded sector (mu = 0, Q = point mass)."""
    limit = draw(st.integers(pm.FFT_MIN_SIZE - 1, 4000))
    n = draw(st.integers(1, 3))

    def severity():
        size = draw(st.integers(1, 3))
        support = draw(st.lists(st.integers(1, 40), min_size=size, max_size=size, unique=True))
        if draw(st.booleans()):
            support[0] = 0  # q0 > 0
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
        return pm.from_dict({x: w / sum(weights) for x, w in zip(support, weights)}, limit)

    alphas = [draw(st.floats(0.05, 50.0)) for _ in range(n)] + [1.0]
    delta = [draw(st.floats(0.0, 0.999)) for _ in range(n)] + [0.0]
    mu = [draw(st.floats(0.0, 50.0))] + [a * d / (1.0 - d) for a, d in zip(alphas, delta)]
    # Mean claim counts up to 700, as in the pmf tests, keep Panjer's start
    # values normal for the reference.
    assume(max(mu) <= 700.0)
    q_polys = tuple(severity() for _ in range(n + 1)) + (pm.point_mass(0, limit),)
    system = eng.SectorSystem(mu=np.array(mu), delta=np.array(delta), alphas=np.array(alphas),
                              q_polys=q_polys, limit=limit,
                              sector_ids=tuple(f"s{k}" for k in range(1, n + 2)),
                              reach=max(int(np.flatnonzero(q.probs)[-1]) for q in q_polys))
    # delta near 1 with large severities needs grids of millions of points:
    # an engine grid (sized for the heaviest stress and two shifts) up to
    # 2**18 keeps each example small.
    assume(LossEngine(system)._grid() <= 1 << 18)
    return system


@settings(max_examples=15, deadline=None)
@given(spectral_systems())
def test_spectral_base_matches_panjer_fold(system):
    out = LossEngine(system).loss_distribution()
    ref = panjer_fold(system, (0,) * system.n_sectors)
    assert np.max(np.abs(out.probs - ref.probs)) <= pm.FFT_ABS_ERROR
    assert out.tail_mass == pytest.approx(ref.tail_mass, abs=1e-12)


def spectral_book(heavy=True):
    """A book whose engine grid at L = 600 has 8192 points when H's loss on
    s1 (alpha 0.5, delta 0.73; 2.5 at the heaviest stress) is 30, and the
    1024-point minimum (the smallest power of two > L) when it is 1."""
    return Portfolio(
        (Sector("s1", 0.5), Sector("s2", 2.0), Sector("s3", 1.0)),
        (Obligor("H", 1.0, [0.0, 1.0, 0.0, 0.0], SeverityDist({30 if heavy else 1: 1.0})),
         Obligor("A", 0.4, [0.2, 0.8, 0.0, 0.0], SeverityDist({1: 1.0})),
         Obligor("B", 0.5, [0.3, 0.0, 0.7, 0.0], SeverityDist({2: 0.5, 7: 0.5})),
         Obligor("C", 0.3, [0.5, 0.0, 0.0, 0.5], SeverityDist({0: 0.2, 3: 0.8}))))


def _grid(engine):
    """The number of points of the grid that ``engine``'s record lives on."""
    return 2 * (engine._cache["spectra"].pgf.size - 1)


def _shared_rows(derived, engine):
    """The sectors k whose log G_k, and the factor sectors whose T_k, the
    record of ``derived`` takes from that of ``engine`` by identity."""
    new, old = derived._cache["spectra"], engine._cache["spectra"]
    return ([k for k, (a, b) in enumerate(zip(new.log_g, old.log_g)) if a is b],
            [k for k, (a, b) in enumerate(zip(new.kernels, old.kernels), start=1) if a is b])


def _fourier_calls(monkeypatch):
    """The ``np.fft.rfft`` and ``pmf.from_spectrum`` calls of the test, by name."""
    calls = []
    for owner, name in ((np.fft, "rfft"), (pm, "from_spectrum")):
        def recorded(*args, _name=name, _fn=getattr(owner, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(owner, name, recorded)
    return calls


def _need(engine):
    """The need that sizes ``engine``'s grid: the Chernoff need nu of its
    heaviest stress plus two of the book's largest losses."""
    return stressed_need(engine.system) + eng.MAX_PUBLIC_OFFSET * engine.system.reach


def _no_grid_search(monkeypatch):
    def refused(*args):
        raise AssertionError("pmf.grid_size called")
    monkeypatch.setattr(pm, "grid_size", refused)


def test_criterion12_grid_is_the_smallest_power_of_two_above_the_limit():
    # At L = 8000 the heaviest stress needs nu of about 3600 points, and
    # two shifts of the largest loss 100 more, so N > L alone sets the grid:
    # 8192 points.
    engine = LossEngine(eng.assemble(criterion12_portfolio(), 8000))
    n, need = engine._grid(), _need(engine)
    assert n == 8192 and need <= n
    assert not (n // 2 > 8000 and need <= n // 2)
    # The spectral book's heavy H needs more than L does.
    engine = LossEngine(eng.assemble(spectral_book(heavy=True), SPECTRAL_LIMIT))
    n, need = engine._grid(), _need(engine)
    assert n == 8192 and n // 2 < need <= n
    # With G constant (nu = 1) the grid is the smallest power of two > L.
    for limit, size in [(499, 512), (511, 512), (512, 1024), (1023, 1024), (1024, 2048)]:
        assert pm.grid_size([(pm.poisson_claims(3.0), pm.point_mass(0, limit))], limit,
                            "the sum") == size


def test_writeoff_engine_on_the_spectral_path_reuses_the_grid_and_unchanged_spectra(
        monkeypatch):
    # C loads on the idiosyncratic sector and s3: s1 and s2 are untouched.
    port = spectral_book(heavy=False)
    engine = LossEngine(eng.assemble(port, SPECTRAL_LIMIT))
    engine.loss_distribution()
    calls = _fourier_calls(monkeypatch)
    _no_grid_search(monkeypatch)
    derived = engine.written_off(port, ("C",))
    base = derived.loss_distribution()
    # The severity spectra of sectors 0 and 3, then one inverse FFT.
    assert calls == ["rfft", "rfft", "from_spectrum"]
    assert _grid(derived) == _grid(engine) == 1024
    assert _shared_rows(derived, engine) == ([1, 2], [1, 2])
    monkeypatch.undo()
    fresh = LossEngine(eng.assemble(port, SPECTRAL_LIMIT, written_off=("C",))).loss_distribution()
    np.testing.assert_array_equal(base.probs, fresh.probs)
    assert base.tail_mass == fresh.tail_mass


def test_spectral_record_is_whole_from_the_base_and_shared_by_a_writeoff():
    port = spectral_book(heavy=False)
    engine = LossEngine(eng.assemble(port, SPECTRAL_LIMIT), tail_tol=1e-9)
    engine.loss_distribution()
    # The base builds every kernel spectrum and, with a tail tolerance, the
    # tail check's factors; the stresses that follow reuse them.
    record = engine._cache["spectra"]
    assert len(record.log_g) == 4 and len(record.kernels) == 3
    assert record.indicator is not None and record.window is not None
    engine.loss_distribution((1, 0, 0))
    assert engine._cache["spectra"] is record
    # The write-off engine shares the indicator and the rows of the sectors C
    # does not load on (s1 and s2), and gets G and the window of its own.
    derived = engine.written_off(port, ("C",))
    patched = derived._cache["spectra"]
    assert patched.indicator is record.indicator
    assert _shared_rows(derived, engine) == ([1, 2], [1, 2])
    assert patched.pgf is not record.pgf and patched.window is not record.window
    fresh = LossEngine(eng.assemble(port, SPECTRAL_LIMIT, written_off=("C",)), tail_tol=1e-9)
    for stress in [(1, 0, 0), (0, 1, 2)]:
        want = fresh.loss_distribution(stress)
        got = derived.loss_distribution(stress)
        assert got.probs.tobytes() == want.probs.tobytes(), stress
        assert got.tail_mass == want.tail_mass, stress


def test_writeoff_engine_keeps_a_larger_base_grid(monkeypatch):
    heavy = spectral_book(heavy=True)
    engine = LossEngine(eng.assemble(heavy, SPECTRAL_LIMIT))
    engine.loss_distribution()
    assert _grid(engine) == 8192
    # Writing off H moves its mass on s1 to loss 0: the system's own grid
    # would be 1024 points, and the base's 8192 still bounds the aliasing.
    _no_grid_search(monkeypatch)
    derived = engine.written_off(heavy, ("H",))
    base = derived.loss_distribution()
    assert _grid(derived) == 8192
    # H loads on s1 only: the other sectors' rows are the base's.
    assert _shared_rows(derived, engine) == ([0, 2, 3], [2, 3])
    monkeypatch.undo()
    fresh = LossEngine(eng.assemble(heavy, SPECTRAL_LIMIT, written_off=("H",)))
    fresh_base = fresh.loss_distribution()
    assert _grid(fresh) == 1024
    assert np.max(np.abs(base.probs - fresh_base.probs)) <= pm.FFT_ABS_ERROR
    assert base.tail_mass == pytest.approx(fresh_base.tail_mass, abs=1e-12)


def test_writeoff_engine_grows_its_grid_for_mass_beyond_the_limit():
    # H's loss 700 lies beyond L = 600, so Q_1 of the book leaves out 5/7 of
    # its mass and the base's grid has 2048 points.  Written off,
    # that mass sits at 0: Q_1(e^t) rises towards s1's pole 1 / delta_1 and
    # the write-off needs a larger grid than the base's.
    port = Portfolio((Sector("s1", 0.5),),
                     (Obligor("H", 1.0, [0.0, 1.0], SeverityDist({700: 1.0})),
                      Obligor("A", 0.4, [0.0, 1.0], SeverityDist({30: 1.0})),
                      Obligor("B", 0.3, [1.0, 0.0], SeverityDist({2: 1.0}))))
    # A tail tolerance that the base meets checks every tail on the grid.
    engine = LossEngine(eng.assemble(port, SPECTRAL_LIMIT), tail_tol=0.99)
    engine.loss_distribution((2,))
    sector0 = engine.sector_loss(0)
    system = eng.assemble(port, SPECTRAL_LIMIT, written_off=("H",))
    own = LossEngine(system)._grid()
    assert engine._grid() == 2048 < own
    derived = engine.written_off(port, ("H",))
    assert derived._grid() >= own
    # The sector pmf does not depend on the grid; no spectral row carries
    # over: the write-off builds its own record on its own grid.
    assert derived.sector_loss(0) is sector0
    assert "spectra" not in derived._cache
    fresh = LossEngine(system)
    for stress in [(0,), (1,), (2,)]:
        out, ref = derived.loss_distribution(stress), fresh.loss_distribution(stress)
        np.testing.assert_array_equal(out.probs, ref.probs)
        assert out.tail_mass == ref.tail_mass
    assert _grid(derived) == derived._grid() > _grid(engine)
    assert _shared_rows(derived, engine) == ([], [])


def _record_arrays(record):
    return record.log_g + record.kernels + (record.pgf, record.indicator, record.window)


@pytest.mark.parametrize("tail_tol", [None, 1e-9])
@pytest.mark.parametrize("ids", [(), ("o0",), ("o0", "o1")])
def test_patched_writeoff_record_is_a_fresh_engines_on_a_many_sector_book(ids, tail_tol):
    # The criterion-12 book at L = 8000: ten factor sectors on an 8192-point
    # grid, each obligor loading on the idiosyncratic sector and two others.
    # Writing off no obligor changes no row.
    port = criterion12_portfolio()
    engine = LossEngine(eng.assemble(port, 8000), tail_tol=tail_tol)
    engine.loss_distribution()
    derived = engine.written_off(port, ids)
    fresh = LossEngine(eng.assemble(port, 8000, written_off=ids), tail_tol=tail_tol)
    stresses = [None, (2,) + (0,) * 8 + (1,), (0, 1, 1) + (0,) * 7]
    for stress in stresses:
        got, want = derived.loss_distribution(stress), fresh.loss_distribution(stress)
        assert got.probs.tobytes() == want.probs.tobytes(), stress
        assert got.tail_mass == want.tail_mass, stress
    patched, own = derived._cache["spectra"], fresh._cache["spectra"]
    assert derived._grid() == fresh._grid() == _grid(derived) == 8192
    for a, b in zip(_record_arrays(patched), _record_arrays(own), strict=True):
        assert (a is b is None) or a.tobytes() == b.tobytes()
    # The rows of the sectors no written-off obligor loads on are the base's.
    loaded = (port.columns.W[[port.row(oid) for oid in ids]] != 0.0).any(axis=0)
    unloaded = np.flatnonzero(~loaded).tolist()
    assert len(unloaded) >= 6
    assert _shared_rows(derived, engine) == (unloaded, [k for k in unloaded if k])
    # Read-only, so no engine can write into a row another one holds.
    for a in _record_arrays(patched):
        assert a is None or not a.flags.writeable
    with pytest.raises(ValueError):
        patched.log_g[unloaded[0]][0] = 0.0


def test_base_grid_above_max_grid_names_the_base(monkeypatch):
    # Each sector alone fits a 2048-point grid at L = 600; their sum at the
    # heaviest stress, shifted by two losses of 25, which sizes the engine's
    # one grid, needs 4096.
    p = Portfolio((Sector("s1", 1.0), Sector("s2", 1.0)),
                  (Obligor("A", 1.0, [0.0, 1.0, 0.0], SeverityDist({25: 1.0})),
                   Obligor("B", 1.0, [0.0, 0.0, 1.0], SeverityDist({25: 1.0}))))
    monkeypatch.setattr(pm, "MAX_GRID", 2048)
    engine = LossEngine(eng.assemble(p, SPECTRAL_LIMIT))
    for k in (1, 2):
        assert engine.sector_loss(k).truncation_limit == SPECTRAL_LIMIT
    message = (r"^the portfolio base under its heaviest stress \(alpha_k \+ 2 in every factor "
               r"sector\) shifted by 2 defaulted severities of up to 25 at L=600 needs a "
               r"Fourier grid")
    for call in (engine.loss_distribution, lambda: engine.kernel(1)):
        with pytest.raises(AliasingError, match=message):
            call()


def test_underflowing_row_in_a_batch_names_its_own_parameters():
    # s2: mu = 2000 and alpha = 2000 give delta = 0.5 and g0 = 0.5**2000 = 0,
    # between a healthy sector s1 and the kernel rows.
    p = Portfolio((Sector("s1", 1.0), Sector("s2", 2000.0)),
                  (Obligor("A", 0.1, [0.0, 1.0, 0.0], SeverityDist({1: 1.0})),
                   Obligor("B", 2000.0, [0.0, 0.0, 1.0], SeverityDist({1: 0.5, 2: 0.5}))))
    system = eng.assemble(p, 60)
    with pytest.raises(UnderflowError) as alone:
        pm.compound_negbin(system.alphas[1], system.delta[1], system.q_polys[2], 60)
    with pytest.raises(UnderflowError, match="alpha 2000") as batched:
        LossEngine(system).loss_distribution()
    assert str(batched.value) == str(alone.value)


def test_kernel_rows_pass_where_their_sector_passes():
    # delta = 1 - 2**-52, the largest double below 1 that pd / (pd + alpha)
    # reaches here: the kernel's start value 1 - delta is tiny but normal.
    alpha = 2.0**-52
    p = Portfolio((Sector("s1", alpha),),
                  (Obligor("A", 1.0, [0.0, 1.0], SeverityDist({1: 1.0})),))
    system = eng.assemble(p, 40)
    assert 0.0 < 1.0 - system.delta[0] <= 2.0**-52
    engine = LossEngine(system)
    engine.loss_distribution()
    kernel = engine.kernel(1)
    assert kernel.probs[0] == pytest.approx(1.0 - system.delta[0], rel=1e-12)


@pytest.mark.parametrize("limit", [200, 600])
def test_kernel_exists_for_factor_sectors_only(reference_portfolio, limit):
    # Index 0 would read the last sector's parameters.
    engine = LossEngine(eng.assemble(reference_portfolio, limit))
    for k in (0, 3):
        with pytest.raises(ValueError, match=rf"sector {k} has no kernel"):
            engine.kernel(k)


def test_stress_vector_validation(reference_engine):
    with pytest.raises(ValueError, match="length"):
        reference_engine.loss_distribution((1,))
    with pytest.raises(ValueError, match="offsets"):
        reference_engine.loss_distribution((3, 0))
    with pytest.raises(ValueError, match="offsets"):
        reference_engine.loss_distribution((-1, 0))
    with pytest.raises(ValueError, match="offsets"):
        reference_engine.loss_distribution((1.7, 0))


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


def test_concurrent_fourier_evaluation_matches_serial(reference_portfolio):
    # Threads race to size the grid, fill the spectra and the kernel spectra
    # of one engine and of write-off engines patched from it; every result is
    # bitwise the serial one.
    stresses = [(i, j) for i in range(3) for j in range(3)] * 2
    systems = [eng.assemble(reference_portfolio, 600, written_off=w) for w in ((), ("C",))]
    serial = {(w, s): LossEngine(systems[w]).loss_distribution(s) for w in (0, 1) for s in stresses}
    shared = LossEngine(systems[0], tail_tol=1e-9)
    results, interval = {}, sys.getswitchinterval()

    def run(w, s):
        engine = shared.written_off(reference_portfolio, ("C",)) if w else shared
        results[(w, s)] = engine.loss_distribution(s)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=key) for key in serial]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for key, out in serial.items():
        np.testing.assert_array_equal(results[key].probs, out.probs)


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


def crowded_book(limit):
    """L / 4 obligors of pd 0.5 and loss 8, half on one factor sector: the
    mean loss is L, so the last level holds mass of its own."""
    return Portfolio((Sector("s1", 200.0),), tuple(
        Obligor(f"o{i}", 0.5, [0.5, 0.5], SeverityDist({8: 1.0})) for i in range(limit // 4)))


@pytest.mark.parametrize("limit", [200, 1600, 8000])  # Panjer, then the Fourier path
@pytest.mark.parametrize("book", ["reference", "crowded"])
def test_risk_report_is_quantile_and_shortfall_level_by_level(reference_portfolio, book, limit):
    port = reference_portfolio if book == "reference" else crowded_book(limit)
    p = LossEngine(eng.assemble(port, limit)).loss_distribution()
    last = float(p.cdf()[-1])
    if book == "reference":
        thetas = [0.5, 0.95, 0.99, 0.999]
    else:  # cdf[L] is about 0.55: its quantile is L, and the next double above is unreachable
        thetas = [0.1, 0.25, 0.5, last]
        unreachable = float(np.nextafter(last, 1.0))
        with pytest.raises(TruncationError) as want:
            pm.quantile(p, unreachable)
        with pytest.raises(TruncationError) as got:
            eng.risk_report(p, [0.5, unreachable])
        assert str(got.value) == str(want.value) and got.value.tail_mass == p.tail_mass
    rep = eng.risk_report(p, thetas)
    assert repr(rep["mean"]) == repr(pm.mean(p))
    assert repr(rep["variance"]) == repr(pm.variance(p))
    for t in thetas:
        assert rep["quantiles"][str(t)] == pm.quantile(p, t)
        assert repr(rep["expected_shortfall"][str(t)]) == repr(pm.expected_shortfall(p, t))
    if book == "crowded":
        assert rep["quantiles"][str(last)] == limit


# -------------------------------------------------------- suggest_truncation

def test_suggest_truncation_is_a_sane_starting_point(reference_portfolio):
    # The heuristic only suggests; the engine's tail_tol check is the gate.
    limit = eng.suggest_truncation(reference_portfolio)
    out = LossEngine(eng.assemble(reference_portfolio, limit)).loss_distribution()
    assert out.tail_mass < 1e-4
    assert limit < 500  # heuristic should not be wildly conservative here
