import itertools

import numpy as np
import pytest

from crplus import conditional as cd
from crplus import engine as eng
from crplus import pmf as pm
from crplus.engine import LossEngine
from crplus.pmf import TruncationError
from crplus.portfolio import Obligor, Portfolio, PortfolioError, Sector, SeverityDist

from conftest import (components_enumerated, panjer_negbin, panjer_poisson, stressed_need,
                      with_severity)


def single_sector_engine(pd=0.1, alpha=1.0, limit=60):
    p = Portfolio((Sector("s1", alpha),),
                  (Obligor("A", pd, [0.0, 1.0], SeverityDist({1: 1.0})),))
    return p, LossEngine(eng.assemble(p, limit))


def idio_engine(pd=0.2, severity=None, limit=60):
    severity = severity or SeverityDist({3: 1.0})
    p = Portfolio((), (Obligor("A", pd, [1.0], severity),))
    return p, LossEngine(eng.assemble(p, limit))


# ---------------------------------------------------- cond_default_intensity

def test_cond_intensity_single_sector_closed_form():
    p, engine = single_sector_engine()
    for x in [1, 2, 5, 13]:
        assert cd.cond_default_intensity(engine, p, "A", x) == pytest.approx(x, rel=1e-12)


def test_cond_intensity_idiosyncratic_ratio():
    p, engine = idio_engine()
    base = engine.loss_distribution()
    for x in [3, 6, 9]:
        expected = 0.2 * base[x - 3] / base[x]
        assert cd.cond_default_intensity(engine, p, "A", x) == pytest.approx(expected, rel=1e-12)


def test_cond_intensity_zero_pd_obligor():
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),
                   Obligor("Z", 0.0, [1.0, 0.0], SeverityDist({1: 1.0}))))
    engine = LossEngine(eng.assemble(p, 40))
    for x in [0, 1, 5]:
        assert cd.cond_default_intensity(engine, p, "Z", x) == 0.0


def test_cond_intensity_zero_probability_loss_level():
    p, engine = idio_engine()  # losses are multiples of 3
    with pytest.raises(ValueError, match="P\\[X=1\\] = 0"):
        cd.cond_default_intensity(engine, p, "A", 1)
    with pytest.raises(ValueError, match="outside"):
        cd.cond_default_intensity(engine, p, "A", 1000)


def test_cond_intensity_unresolved_loss_level_above_fft_crossover():
    # Every severity is a multiple of 3, so P[X=5] = 0 exactly; at L = 1500
    # the FFT paths return round-off there (7e-19), not an exact zero.
    limit = 1500
    p = Portfolio(
        (Sector("s1", 1.5), Sector("s2", 0.8)),
        tuple(Obligor(f"o{i}", 0.02 + 0.002 * i, [0.4, 0.6 * (i % 2 == 0), 0.6 * (i % 2 == 1)],
                      SeverityDist({3 * (1 + i % 7): 0.5, 3 * (8 + i % 5): 0.5}))
              for i in range(40)))
    engine = LossEngine(eng.assemble(p, limit))
    assert engine.loss_distribution()[5] <= pm.abs_error_bound(limit)
    with pytest.raises(ValueError, match="P\\[X=5\\] = .* within the FFT absolute error bound 1e-14"):
        cd.cond_default_intensity(engine, p, "o0", 5)
    with pytest.raises(ValueError, match="error bound"):
        cd.joint_cond_intensity(engine, p, "o0", "o1", 1)
    assert cd.cond_default_intensity(engine, p, "o0", 6) > 0.0


def test_cond_intensity_total_probability(reference_portfolio, reference_engine):
    base = reference_engine.loss_distribution()
    for o in reference_portfolio.obligors:
        total = sum(
            cd.cond_default_intensity(reference_engine, reference_portfolio, o.id, x)
            * base[x]
            for x in range(201) if base[x] > 0
        )
        assert total == pytest.approx(o.pd, abs=1e-8)


# --------------------------------------------------- loss_given_one_default

def test_one_default_idiosyncratic_is_pure_shift():
    p, engine = idio_engine()
    rep = cd.loss_given_one_default(engine, p, "A")
    base = engine.loss_distribution()
    np.testing.assert_allclose(rep.conditional_pmf.probs[3:], base.probs[:-3], atol=1e-15)
    assert rep.normalizer == 1.0
    assert rep.mixture_weights == {"base": 1.0}


def test_one_default_idiosyncratic_writeoff():
    p, engine = idio_engine()
    rep = cd.loss_given_one_default(engine, p, "A", writeoff=True)
    zeroed = LossEngine(eng.assemble(with_severity(p, "A", SeverityDist({0: 1.0})), 60))
    np.testing.assert_allclose(
        rep.conditional_pmf.probs, zeroed.loss_distribution().probs, atol=1e-15)


def test_one_default_bayes_coherence(reference_portfolio, reference_engine):
    base = reference_engine.loss_distribution()
    for oid in ["A", "B", "E"]:
        rep = cd.loss_given_one_default(reference_engine, reference_portfolio, oid)
        pd = reference_portfolio.obligor(oid).pd
        for x in range(0, 60):
            if base[x] == 0:
                continue
            via_bayes = (
                cd.cond_default_intensity(reference_engine, reference_portfolio, oid, x)
                * base[x] / pd
            )
            assert rep.conditional_pmf[x] == pytest.approx(via_bayes, abs=1e-12)


def test_one_default_normalization(reference_portfolio, reference_engine):
    for oid in ["A", "C", "D"]:
        rep = cd.loss_given_one_default(reference_engine, reference_portfolio, oid)
        assert sum(rep.mixture_weights.values()) == pytest.approx(rep.normalizer, abs=1e-12)
        total = rep.conditional_pmf.probs.sum() + rep.conditional_pmf.tail_mass
        assert total == pytest.approx(1.0, abs=1e-10)


def test_one_default_single_sector_matches_stressed_negbin():
    # conditional pmf = NB(2, 1/11) shifted by the unit severity
    p, engine = single_sector_engine()
    rep = cd.loss_given_one_default(engine, p, "A")
    stressed = engine.loss_distribution((1,))
    np.testing.assert_allclose(rep.conditional_pmf.probs[1:], stressed.probs[:-1], atol=1e-15)


def test_stress_increases_mean_single_sector():
    _, engine = single_sector_engine()
    assert pm.mean(engine.loss_distribution((1,))) > pm.mean(engine.loss_distribution())


def test_one_default_unknown_obligor(reference_portfolio, reference_engine):
    with pytest.raises(PortfolioError, match="unknown obligor"):
        cd.loss_given_one_default(reference_engine, reference_portfolio, "nope")


# ------------------------------------------------------ joint intensities

def test_joint_default_intensity_examples():
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),
                   Obligor("B", 0.1, [0.0, 1.0], SeverityDist({1: 1.0}))))
    system = eng.assemble(p, 40)
    assert cd.joint_default_intensity(p, system, "A", "B") == pytest.approx(0.02)

    q = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [1.0, 0.0], SeverityDist({1: 1.0})),
                   Obligor("B", 0.3, [1.0, 0.0], SeverityDist({1: 1.0}))))
    assert cd.joint_default_intensity(q, eng.assemble(q, 40), "A", "B") == pytest.approx(0.03)

    r = Portfolio((Sector("s1", 1.0), Sector("s2", 2.0)),
                  (Obligor("A", 0.1, [0.0, 1.0, 0.0], SeverityDist({1: 1.0})),
                   Obligor("B", 0.3, [0.0, 0.0, 1.0], SeverityDist({1: 1.0}))))
    assert cd.joint_default_intensity(r, eng.assemble(r, 40), "A", "B") == pytest.approx(0.03)


def test_joint_default_intensity_rejects_same_obligor(reference_portfolio, reference_engine):
    with pytest.raises(PortfolioError, match="differ"):
        cd.joint_default_intensity(reference_portfolio, reference_engine.system, "A", "A")


def test_joint_cond_intensity_both_idiosyncratic():
    p = Portfolio((), (Obligor("A", 0.2, [1.0], SeverityDist({2: 1.0})),
                       Obligor("B", 0.3, [1.0], SeverityDist({1: 1.0}))))
    engine = LossEngine(eng.assemble(p, 40))
    base = engine.loss_distribution()
    for x in [3, 5]:
        expected = 0.2 * 0.3 * base[x - 3] / base[x]
        assert cd.joint_cond_intensity(engine, p, "A", "B", x) == pytest.approx(expected, rel=1e-12)


def test_joint_cond_intensity_same_sector_double_stress():
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),
                   Obligor("B", 0.1, [0.0, 1.0], SeverityDist({1: 1.0}))))
    engine = LossEngine(eng.assemble(p, 60))
    base = engine.loss_distribution()
    double = engine.loss_distribution((2,))
    for x in [2, 4]:
        expected = 0.01 * 2.0 * double[x - 2] / base[x]
        assert cd.joint_cond_intensity(engine, p, "A", "B", x) == pytest.approx(expected, rel=1e-12)


def test_joint_cond_intensity_cross_sector():
    p = Portfolio((Sector("s1", 1.0), Sector("s2", 2.0)),
                  (Obligor("A", 0.1, [0.0, 1.0, 0.0], SeverityDist({1: 1.0})),
                   Obligor("B", 0.3, [0.0, 0.0, 1.0], SeverityDist({1: 1.0}))))
    engine = LossEngine(eng.assemble(p, 60))
    base = engine.loss_distribution()
    cross = engine.loss_distribution((1, 1))
    for x in [2, 4]:
        expected = 0.03 * cross[x - 2] / base[x]
        assert cd.joint_cond_intensity(engine, p, "A", "B", x) == pytest.approx(expected, rel=1e-12)


def test_joint_cond_intensity_total_probability(reference_portfolio, reference_engine):
    base = reference_engine.loss_distribution()
    for id1, id2 in itertools.combinations("ABCDE", 2):
        total = sum(
            cd.joint_cond_intensity(reference_engine, reference_portfolio, id1, id2, x)
            * base[x]
            for x in range(201) if base[x] > 0
        )
        expected = cd.joint_default_intensity(
            reference_portfolio, reference_engine.system, id1, id2)
        assert total == pytest.approx(expected, abs=1e-8)


def test_intensity_profiles_equal_scalar_loop(reference_portfolio, reference_engine):
    xs = np.arange(201)
    engine, p = reference_engine, reference_portfolio
    for o in p.obligors:
        profile = cd.cond_default_intensity(engine, p, o.id, xs)
        assert profile.shape == xs.shape
        np.testing.assert_array_equal(
            profile, [cd.cond_default_intensity(engine, p, o.id, x) for x in xs])
    for id1, id2 in itertools.combinations("ABCDE", 2):
        profile = cd.joint_cond_intensity(engine, p, id1, id2, xs)
        np.testing.assert_array_equal(
            profile, [cd.joint_cond_intensity(engine, p, id1, id2, x) for x in xs])


def test_intensity_profile_keeps_level_errors():
    p, engine = idio_engine()  # losses are multiples of 3
    with pytest.raises(ValueError, match="P\\[X=4\\] = 0"):
        cd.cond_default_intensity(engine, p, "A", [3, 6, 4, 1])
    with pytest.raises(ValueError, match="loss level 1000 outside"):
        cd.cond_default_intensity(engine, p, "A", np.array([1000, 1]))
    zero = Portfolio((), (Obligor("A", 0.2, [1.0], SeverityDist({3: 1.0})),
                          Obligor("Z", 0.0, [1.0], SeverityDist({1: 1.0}))))
    zero_engine = LossEngine(eng.assemble(zero, 60))
    np.testing.assert_array_equal(
        cd.cond_default_intensity(zero_engine, zero, "Z", [0, 3, 6]), [0.0, 0.0, 0.0])


# ------------------------------------------------- loss_given_two_defaults

def test_two_defaults_both_idiosyncratic():
    p = Portfolio((), (Obligor("A", 0.2, [1.0], SeverityDist({2: 1.0})),
                       Obligor("B", 0.3, [1.0], SeverityDist({1: 1.0}))))
    engine = LossEngine(eng.assemble(p, 40))
    rep = cd.loss_given_two_defaults(engine, p, "A", "B")
    base = engine.loss_distribution()
    assert rep.normalizer == pytest.approx(1.0)
    np.testing.assert_allclose(rep.conditional_pmf.probs[3:], base.probs[:-3], atol=1e-15)


def test_two_defaults_same_sector_cancellation():
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),
                   Obligor("B", 0.1, [0.0, 1.0], SeverityDist({1: 1.0}))))
    engine = LossEngine(eng.assemble(p, 80))
    rep = cd.loss_given_two_defaults(engine, p, "A", "B")
    double = engine.loss_distribution((2,))
    np.testing.assert_allclose(rep.conditional_pmf.probs[2:], double.probs[:-2], atol=1e-14)


def test_two_defaults_weight_identity(reference_portfolio, reference_engine):
    for id1, id2 in itertools.combinations("ABCDE", 2):
        rep = cd.loss_given_two_defaults(reference_engine, reference_portfolio, id1, id2)
        o1 = reference_portfolio.obligor(id1)
        o2 = reference_portfolio.obligor(id2)
        expected = 1.0 + float(
            np.sum(o1.weights[1:] * o2.weights[1:] / reference_engine.system.alphas))
        assert sum(rep.mixture_weights.values()) == pytest.approx(expected, abs=1e-12)
        assert rep.normalizer == pytest.approx(expected, abs=1e-12)


def test_two_defaults_symmetry(reference_portfolio, reference_engine):
    ab = cd.loss_given_two_defaults(reference_engine, reference_portfolio, "B", "E")
    ba = cd.loss_given_two_defaults(reference_engine, reference_portfolio, "E", "B")
    np.testing.assert_allclose(
        ab.conditional_pmf.probs, ba.conditional_pmf.probs, atol=1e-13)


def test_two_defaults_degenerate_reduction(reference_portfolio, reference_engine):
    # Adding a fully idiosyncratic, zero-severity obligor to the conditioning
    # event must not change the conditional distribution.
    p = Portfolio(
        reference_portfolio.sectors,
        reference_portfolio.obligors
        + (Obligor("NIL", 0.1, [1.0, 0.0, 0.0], SeverityDist({0: 1.0})),),
    )
    engine = LossEngine(eng.assemble(p, 200))
    one = cd.loss_given_one_default(engine, p, "A")
    two = cd.loss_given_two_defaults(engine, p, "A", "NIL")
    np.testing.assert_allclose(
        two.conditional_pmf.probs, one.conditional_pmf.probs, atol=1e-12)


def test_two_defaults_writeoff(reference_portfolio, reference_engine):
    rep = cd.loss_given_two_defaults(
        reference_engine, reference_portfolio, "A", "C", writeoff=True)
    total = rep.conditional_pmf.probs.sum() + rep.conditional_pmf.tail_mass
    assert total == pytest.approx(1.0, abs=1e-10)
    plain = cd.loss_given_two_defaults(reference_engine, reference_portfolio, "A", "C")
    # write-off removes the occurred-loss socket: strictly smaller mean
    assert pm.mean(rep.conditional_pmf) < pm.mean(plain.conditional_pmf)


def spread(portfolio, factor):
    """``portfolio`` with every loss ``factor`` times as large: its pmf at L
    is the original's at L / factor, on a longer grid."""
    return Portfolio(portfolio.sectors, tuple(
        Obligor(o.id, o.pd, o.weights,
                SeverityDist({factor * x: p for x, p in o.severity.probabilities.items()}))
        for o in portfolio.obligors))


def test_component_tail_gate(reference_portfolio):
    # A's components are the base and the +e_1 stress; the stressed one has
    # the heavier tail, and the gate sits exactly at its tail mass.  The
    # same book with ten times the losses at L = 600 has the same tails and
    # gates them on the Fourier path.
    for port, limit in ((reference_portfolio, 60), (spread(reference_portfolio, 10), 600)):
        system = eng.assemble(port, limit)
        free = LossEngine(system)
        base_tail = free.loss_distribution().tail_mass
        stressed_tail = free.loss_distribution((1, 0)).tail_mass
        assert 1e-12 < base_tail < 0.9 * stressed_tail
        below = LossEngine(system, tail_tol=stressed_tail * (1 - 1e-6))
        with pytest.raises(TruncationError) as exc:
            cd.loss_given_one_default(below, port, "A")
        assert exc.value.tail_mass == pytest.approx(stressed_tail, rel=1e-9)
        above = LossEngine(system, tail_tol=stressed_tail * (1 + 1e-6))
        cd.loss_given_one_default(above, port, "A")


THETAS = (0.95, 0.99, 0.999)


def _scenarios(portfolio):
    """Every one- and two-default scenario, each with and without write-off."""
    ids = portfolio.ids
    return [(list(scenario), writeoff)
            for scenario in [(a,) for a in ids] + list(itertools.combinations(ids, 2))
            for writeoff in (False, True)]


def _conditional(engine, portfolio, scenario, writeoff):
    if len(scenario) == 1:
        return cd.loss_given_one_default(engine, portfolio, *scenario, writeoff=writeoff,
                                         thetas=THETAS)
    return cd.loss_given_two_defaults(engine, portfolio, *scenario, writeoff=writeoff,
                                      thetas=THETAS)


def panjer_fold_mixture(system, components, shifts, memo):
    """The weighted mean of the components' stressed pmfs, each a direct fold
    of Panjer pmfs at alpha_k + s_k, shifted by direct convolution with
    ``shifts``: the reference for the engine's mixture.  ``memo`` keeps the
    Panjer pmfs by parameters across calls."""
    limit = system.limit

    def sector(k, stress):
        q = system.q_polys[k]
        key = (k, stress, q.probs.tobytes())
        if key not in memo:
            memo[key] = (panjer_poisson(system.mu[0], q, limit) if k == 0 else panjer_negbin(
                system.alphas[k - 1] + stress, system.delta[k - 1], q, limit)).probs
        return memo[key]

    out = np.zeros(limit + 1)
    for weight, sectors in components.values():
        fold = sector(0, 0)
        for k in range(1, system.n_sectors + 1):
            fold = np.convolve(fold, sector(k, sectors.count(k)))[: limit + 1]
        out += weight * fold
    out /= sum(weight for weight, _ in components.values())
    for shift in shifts:
        out = np.convolve(out, shift.probs)[: limit + 1]
    return pm.Pmf(out, tail_mass=max(1.0 - out.sum(), 0.0))


def test_fourier_conditionals_match_panjer_fold_mixtures(reference_portfolio):
    port, limit = spread(reference_portfolio, 3), 2 * pm.FFT_MIN_SIZE
    engine = LossEngine(eng.assemble(port, limit), tail_tol=1e-9)
    W, memo = port.columns.W, {}
    for scenario, writeoff in _scenarios(port):
        rep = _conditional(engine, port, scenario, writeoff)
        system = eng.assemble(port, limit, written_off=scenario if writeoff else ())
        components = cd._components([W[port.row(oid)] for oid in scenario], system.alphas)
        shifts = [] if writeoff else [pm.from_dict(port.severity_of(oid), limit)
                                      for oid in scenario]
        ref = panjer_fold_mixture(system, components, shifts, memo)
        out = rep.conditional_pmf
        assert np.max(np.abs(out.probs - ref.probs)) <= pm.FFT_ABS_ERROR, (scenario, writeoff)
        assert out.tail_mass == pytest.approx(ref.tail_mass, abs=pm.FFT_ABS_ERROR)
        assert rep.risk["quantiles"] == {str(t): pm.quantile(ref, t) for t in THETAS}


def test_fourier_conditionals_build_no_kernel_pmfs(reference_portfolio, monkeypatch):
    # From FFT_MIN_SIZE points on every stressed pmf comes from the kernel
    # spectra on the engine's grid: no Fourier compound, no convolution of
    # two long inputs and no kernel pmf, for a conditional or a write-off.
    negbins, long_convolutions, engines = [], [], []
    compound_negbin, convolve = pm.compound_negbin, pm.convolve
    written_off = LossEngine.written_off

    def counted_convolve(a, b):
        sizes = (pm._trimmed(a.probs).size, pm._trimmed(b.probs).size)
        if min(sizes) >= pm.FFT_MIN_SIZE:
            long_convolutions.append(sizes)
        return convolve(a, b)

    monkeypatch.setattr(pm, "compound_negbin", lambda *args: negbins.append(args)
                        or compound_negbin(*args))
    monkeypatch.setattr(pm, "convolve", counted_convolve)
    monkeypatch.setattr(LossEngine, "written_off", lambda self, portfolio, ids: engines.append(
        written_off(self, portfolio, ids)) or engines[-1])
    engines.append(LossEngine(eng.assemble(reference_portfolio, 600), tail_tol=1e-9))
    for scenario, writeoff in _scenarios(reference_portfolio):
        _conditional(engines[0], reference_portfolio, scenario, writeoff)
    assert len(engines) == 1 + 15
    assert negbins == [] and long_convolutions == []
    assert all(set(engine._cache) <= {"base", "grid", "spectra"} for engine in engines)


def _direct_shifts(engine, portfolio, scenario):
    """The conditional of ``scenario`` with each defaulted severity convolved
    directly into the engine's mixture, and the largest loss of each severity."""
    components, normalizer, _ = cd._scenario(engine, portfolio, scenario)
    out = engine.mixture(components.values(), normalizer)
    shifts = [pm.from_dict(portfolio.severity_of(oid), engine.system.limit)
              for oid in scenario]
    for shift in shifts:
        out = pm.convolve(out, shift)
    return out, sum(np.flatnonzero(shift.probs).max() for shift in shifts)


def _counted_convolutions(monkeypatch):
    """The ``pmf.convolve`` and ``pmf.from_dict`` calls of the test, by name."""
    calls = []
    for name in ("convolve", "from_dict"):
        def recorded(*args, _name=name, _fn=getattr(pm, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(pm, name, recorded)
    return calls


@pytest.mark.parametrize("limit", [600, 1000])
def test_severity_shifts_on_the_grid_match_direct_convolution(reference_portfolio, limit,
                                                              monkeypatch):
    port = spread(reference_portfolio, 3)
    engine = LossEngine(eng.assemble(port, limit), tail_tol=1e-9)
    n, need = engine._grid(), stressed_need(engine.system)
    assert n == 1024 and need < n
    calls = _counted_convolutions(monkeypatch)
    for scenario, _ in _scenarios(port)[::2]:
        want, reach = _direct_shifts(engine, port, scenario)
        assert need + reach <= n
        del calls[:]
        out = _conditional(engine, port, scenario, False).conditional_pmf
        assert calls == [], scenario  # one inverse FFT, no convolution
        assert np.max(np.abs(out.probs - want.probs)) <= pm.FFT_ABS_ERROR, scenario
        assert out.tail_mass == pytest.approx(want.tail_mass, abs=1e-12), scenario
    # E[D_A | X = x] = p_A P[X = x | A] / P[X = x] over the resolved levels.
    base = engine.loss_distribution().probs
    x = np.flatnonzero(base > 1e-9)
    for oid in port.ids:
        want, _ = _direct_shifts(engine, port, [oid])
        pd = port.columns.pd[port.row(oid)]
        got = cd.cond_default_intensity(engine, port, oid, x)
        np.testing.assert_allclose(got, pd * want.probs[x] / base[x], rtol=0,
                                   atol=pd * pm.FFT_ABS_ERROR / base[x].min())


def test_the_grid_holds_every_shift_of_a_large_severity(reference_portfolio, monkeypatch):
    # Z's loss of 450 sets the book's reach: the grid is sized for nu plus
    # two of it, 4096 points where the heaviest stress alone fits 2048, and
    # every scenario, Z's included, is one inverse FFT with its shifts on
    # the grid.
    ref = spread(reference_portfolio, 3)
    port = Portfolio(ref.sectors, ref.obligors + (
        Obligor("Z", 1e-6, [0.5, 0.5, 0.0], SeverityDist({450: 1.0})),))
    engine = LossEngine(eng.assemble(port, 600), tail_tol=1e-9)
    n, need = engine._grid(), stressed_need(engine.system)
    assert engine.system.reach == 450
    assert n == 4096 and need <= 2048 < need + 2 * 450 <= n
    calls = _counted_convolutions(monkeypatch)
    for scenario in (["Z"], ["Z", "A"], ["A", "Z"], ["A"]):
        want, reach = _direct_shifts(engine, port, scenario)
        del calls[:]
        out = _conditional(engine, port, scenario, False).conditional_pmf
        assert need + reach <= n and calls == [], scenario
        assert np.max(np.abs(out.probs - want.probs)) <= pm.FFT_ABS_ERROR, scenario
        assert out.tail_mass == pytest.approx(want.tail_mass, abs=1e-12), scenario


def test_shifts_up_to_twice_the_reach_go_on_the_grid(reference_portfolio, monkeypatch):
    # The grid holds shifts whose largest losses inside {0..L} sum to at
    # most 2 x the book's reach: at that sum they are factors of the one
    # inverse FFT, one loss further the mixture refuses them.
    port = spread(reference_portfolio, 3)
    limit = 600
    engine = LossEngine(eng.assemble(port, limit), tail_tol=1e-9)
    room = 2 * engine.system.reach
    assert room == 30
    components, normalizer, _ = cd._scenario(engine, port, ["A", "C"])
    mixture = engine.mixture(components.values(), normalizer)
    for shifts in ([{room: 1.0}], [{0: 0.3, room - 5: 0.7}, {5: 1.0}],
                   [{room - 5: 0.5, limit + 1: 0.5}, {5: 1.0}]):
        want = mixture
        for shift in shifts:
            want = pm.convolve(want, pm.from_dict(shift, limit))
        calls = _counted_convolutions(monkeypatch)
        got = engine.mixture(components.values(), normalizer, shifts)
        monkeypatch.undo()
        assert calls == [], shifts
        assert np.max(np.abs(got.probs - want.probs)) <= pm.FFT_ABS_ERROR, shifts
        assert got.tail_mass == pytest.approx(want.tail_mass, abs=1e-12), shifts
    for shifts in ([{room + 1: 1.0}], [{0: 0.3, room - 4: 0.7}, {5: 1.0}]):
        with pytest.raises(ValueError, match=f"sum to {room + 1}, above the {room} "):
            engine.mixture(components.values(), normalizer, shifts)


@pytest.mark.parametrize("book, limit, tail_tol", [
    ("reference", 200, 1e-9), ("reference", 600, 1e-9),
    ("sixteen", None, None), ("sixteen", 600, 1e-9),
])
def test_writeoff_conditionals_equal_those_of_a_fresh_engine(reference_portfolio, book, limit,
                                                             tail_tol):
    # Below FFT_MIN_SIZE the write-off engine patched from the base repeats a
    # fresh engine's arithmetic; from there on it may keep a larger grid.
    port = reference_portfolio if book == "reference" else sixteen_sector_book()
    limit = limit or eng.suggest_truncation(port)
    engine = LossEngine(eng.assemble(port, limit), tail_tol=tail_tol)
    engine.loss_distribution()
    ids = port.ids[:8]
    for scenario in [[a] for a in ids] + [list(pair) for pair in itertools.combinations(ids, 2)]:
        components, normalizer, got = cd._scenario(engine, port, scenario, writeoff=True)
        fresh = LossEngine(eng.assemble(port, limit, written_off=scenario), tail_tol=tail_tol)
        want = fresh.mixture(components.values(), normalizer)
        if limit + 1 < pm.FFT_MIN_SIZE:
            assert got.probs.tobytes() == want.probs.tobytes(), scenario
            assert got.tail_mass == want.tail_mass, scenario
        else:
            assert np.max(np.abs(got.probs - want.probs)) <= pm.FFT_ABS_ERROR, scenario
            assert got.tail_mass == pytest.approx(want.tail_mass, abs=pm.FFT_ABS_ERROR)


def test_two_defaults_rejects_same_obligor(reference_portfolio, reference_engine):
    with pytest.raises(PortfolioError, match="differ"):
        cd.loss_given_two_defaults(reference_engine, reference_portfolio, "A", "A")


def test_components_match_their_descriptors():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(0, 6))
        alphas = rng.uniform(0.1, 5.0, n)
        loadings = []
        for _ in range(2):
            w = rng.dirichlet(np.ones(n + 1))
            w[rng.random(n + 1) < 0.3] = 0.0  # unloaded sectors
            w[0] += w.sum() == 0.0
            loadings.append(w / w.sum())
        w1, w2 = loadings
        coupling = np.sum(w1[1:] * w2[1:] / alphas)
        for scenario, normalizer in (([w1], 1.0), ([w1, w2], 1.0 + coupling)):
            components = cd._components(scenario, alphas)
            total = sum(weight for weight, _ in components.values())
            assert total == pytest.approx(normalizer, rel=1e-14)
            assert list(components)[0] == "base" or len(scenario) == 2
            for key, (weight, sectors) in components.items():
                assert type(weight) is float, (key, type(weight))
                assert weight > 0.0 or key == "base"
                # One entry per unit of stress, in sector order.
                assert sectors == sorted(sectors) and len(sectors) <= len(scenario)
                assert all(1 <= j <= n for j in sectors)
                if not sectors:
                    assert key == "base"
                elif len(sectors) == 2 and sectors[0] == sectors[1]:
                    assert key == f"+2e_{sectors[0]}"
                else:
                    assert key == "".join(f"+e_{j}" for j in sectors)
            if len(scenario) == 1:
                assert components["base"][0] == w1[0]
                assert {k: w for k, (w, _) in components.items() if k != "base"} == {
                    f"+e_{j}": w1[j] for j in range(1, n + 1) if w1[j] > 0.0}


def sixteen_sector_book(n_obligors=40):
    """Obligors on 16 sectors loading 1 to 3 of them; every fifth has no
    idiosyncratic weight and every seventh (from o3) only that one."""
    rng = np.random.default_rng(16)
    sectors = tuple(Sector(f"s{k + 1}", float(a)) for k, a in enumerate(rng.uniform(0.3, 4.0, 16)))
    obligors = []
    for i in range(n_obligors):
        w = np.zeros(17)
        if i % 7 == 3:
            w[0] = 1.0
        else:
            w[0] = rng.uniform(0.1, 0.6) if i % 5 else 0.0
            ks = rng.choice(16, size=1 + i % 3, replace=False) + 1
            w[ks] = (1.0 - w[0]) * rng.dirichlet(np.ones(ks.size))
        obligors.append(Obligor(f"o{i}", float(rng.uniform(0.005, 0.03)), w,
                                SeverityDist({int(rng.integers(1, 9)): 1.0})))
    return Portfolio(sectors, tuple(obligors))


def _bits(x):
    return np.float64(x).tobytes()


def test_two_default_components_equal_the_full_enumeration():
    book = sixteen_sector_book()
    alphas = np.array([s.alpha for s in book.sectors])
    W = book.columns.W
    for a, b in itertools.permutations(range(W.shape[0]), 2):
        got = cd._components([W[a], W[b]], alphas)
        want = components_enumerated([W[a], W[b]], alphas)
        assert list(got) == list(want), (a, b)
        for key, (weight, sectors) in want.items():
            assert got[key][1] == sectors and _bits(got[key][0]) == _bits(weight), (a, b, key)


@pytest.mark.parametrize("limit", [None, 600])
def test_two_default_pmfs_equal_those_of_the_full_enumeration(limit, monkeypatch):
    # Pairs sharing a sector, on disjoint sectors, with no idiosyncratic
    # weight (o0, o5) and with an idiosyncratic-only obligor (o3, o10).
    book = sixteen_sector_book()
    limit = limit or eng.suggest_truncation(book)
    pairs = [("o1", "o2"), ("o0", "o5"), ("o3", "o8"), ("o10", "o11"), ("o4", "o9")]
    W = book.columns.W

    def loaded(oid):
        return set(np.flatnonzero(W[book.row(oid), 1:]).tolist())

    shared = [bool(loaded(a) & loaded(b)) for a, b in pairs]
    assert any(shared) and not all(shared)

    def reports():
        engine = LossEngine(eng.assemble(book, limit))
        return [cd.loss_given_two_defaults(engine, book, a, b, writeoff=writeoff)
                for a, b in pairs for writeoff in (False, True)]

    got = reports()
    monkeypatch.setattr(cd, "_components", components_enumerated)
    for g, w in zip(got, reports()):
        assert list(g.mixture_weights.items()) == list(w.mixture_weights.items())
        assert g.conditional_pmf.probs.tobytes() == w.conditional_pmf.probs.tobytes()
        assert _bits(g.conditional_pmf.tail_mass) == _bits(w.conditional_pmf.tail_mass)


# ------------------------------------------------------------- stressed_pd

def test_stressed_pd_examples(reference_portfolio, reference_engine):
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),
                   Obligor("B", 0.3, [0.0, 1.0], SeverityDist({1: 1.0})),
                   Obligor("Z", 0.3, [1.0, 0.0], SeverityDist({1: 1.0}))))
    system = eng.assemble(p, 40)
    assert cd.stressed_pd(p, system, "B", "A") == pytest.approx(0.6)
    assert cd.stressed_pd(p, system, "Z", "A") == pytest.approx(0.3)
    with pytest.raises(PortfolioError, match="differ"):
        cd.stressed_pd(p, system, "A", "A")
    zero = Portfolio(p.sectors, p.obligors[:2] + (Obligor("N", 0.0, [1.0, 0.0], SeverityDist({1: 1.0})),))
    with pytest.raises(PortfolioError, match="pd is 0"):
        cd.stressed_pd(zero, system, "A", "N")


def test_stressed_pds_match_the_formula(reference_portfolio):
    rng = np.random.default_rng(800)
    sectors = tuple(Sector(f"s{k}", a) for k, a in enumerate(rng.uniform(0.3, 4.0, 16), 1))
    obligors = []
    for i in range(800):
        w = np.zeros(17)
        w[0] = rng.uniform(0.05, 0.6)
        loaded = rng.choice(16, size=1 + i % 3, replace=False) + 1
        w[loaded] = rng.dirichlet(np.ones(loaded.size)) * (1.0 - w[0])
        obligors.append(Obligor(f"o{i}", rng.uniform(0.001, 0.05), w, SeverityDist({1: 1.0})))
    for port, defaulted in ((reference_portfolio, ["A", "C", "E"]),
                            (Portfolio(sectors, tuple(obligors)), ["o0", "o401", "o799"])):
        system = eng.assemble(port, 10)
        for oid in defaulted:
            w_a = port.obligor(oid).weights
            ref = []
            for o in port.obligors:  # p_B (1 + sum_k w_Ak w_Bk / alpha_k)
                coupling = 0.0
                for k in range(1, port.n_sectors + 1):
                    coupling += w_a[k] * o.weights[k] / port.sectors[k - 1].alpha
                ref.append(o.pd * (1.0 + coupling))
            np.testing.assert_allclose(cd.stressed_pds(port, system, oid), ref, rtol=1e-15, atol=0)
