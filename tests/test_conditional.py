import itertools

import numpy as np
import pytest

from crplus import conditional as cd
from crplus import engine as eng
from crplus import pmf as pm
from crplus.engine import LossEngine
from crplus.pmf import TruncationError
from crplus.portfolio import Obligor, Portfolio, PortfolioError, Sector, SeverityDist


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
    zeroed = LossEngine(eng.assemble(p.with_severity("A", SeverityDist({0: 1.0})), 60))
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


def test_component_tail_gate(reference_portfolio):
    # A's components are the base and the +e_1 stress; the stressed one has
    # the heavier tail, and the gate sits exactly at its tail mass.
    system = eng.assemble(reference_portfolio, 60)
    free = LossEngine(system)
    base_tail = free.loss_distribution().tail_mass
    stressed_tail = free.loss_distribution((1, 0)).tail_mass
    assert 1e-12 < base_tail < 0.9 * stressed_tail
    below = LossEngine(system, tail_tol=stressed_tail * (1 - 1e-6))
    with pytest.raises(TruncationError) as exc:
        cd.loss_given_one_default(below, reference_portfolio, "A")
    assert exc.value.tail_mass == pytest.approx(stressed_tail, rel=1e-9)
    above = LossEngine(system, tail_tol=stressed_tail * (1 + 1e-6))
    cd.loss_given_one_default(above, reference_portfolio, "A")


def test_two_defaults_rejects_same_obligor(reference_portfolio, reference_engine):
    with pytest.raises(PortfolioError, match="differ"):
        cd.loss_given_two_defaults(reference_engine, reference_portfolio, "A", "A")


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
