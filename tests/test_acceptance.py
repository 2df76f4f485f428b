"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Analytic checks run at desk scale on the 5-obligor reference
portfolio; Monte Carlo checks use 10^6 draws with fixed seeds.
"""

import functools
import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from crplus import conditional as cd
from crplus import engine as eng
from crplus import mc
from crplus import pmf as pm
from crplus.cli import main as cli_main
from crplus.engine import LossEngine
from crplus.portfolio import Obligor, Portfolio, Sector, SeverityDist, serialize_portfolio

from conftest import make_reference_portfolio

MC_DRAWS = 1_000_000


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"ACCEPTANCE {number:2d} [{description}]: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} [{description}]: PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def portfolio():
    return make_reference_portfolio()


@pytest.fixture(scope="module")
def engine(portfolio):
    return LossEngine(eng.assemble(portfolio, 200))


@pytest.fixture(scope="module")
def base(engine):
    return engine.loss_distribution()


@criterion(1, "closed-form negative binomial")
def test_criterion_01_negative_binomial():
    for alpha, pd in [(1.0, 0.1), (2.5, 0.3)]:
        p = Portfolio((Sector("s1", alpha),),
                      (Obligor("A", pd, [0.0, 1.0], SeverityDist({1: 1.0})),))
        out = LossEngine(eng.assemble(p, 50)).loss_distribution()
        delta = pd / (pd + alpha)
        target = stats.nbinom.pmf(np.arange(51), alpha, 1 - delta)
        np.testing.assert_allclose(out.probs, target, atol=1e-12)


@criterion(2, "closed-form compound Poisson")
def test_criterion_02_compound_poisson():
    p = Portfolio((), (Obligor("A", 0.2, [1.0], SeverityDist({2: 1.0})),))
    out = LossEngine(eng.assemble(p, 60)).loss_distribution()
    target = np.zeros(61)
    target[::2] = stats.poisson.pmf(np.arange(31), 0.2)
    np.testing.assert_allclose(out.probs, target, atol=1e-12)


@criterion(3, "moment identity on reference portfolio")
def test_criterion_03_mean_identity(portfolio, base):
    assert base.tail_mass < 1e-12
    assert pm.mean(base) == pytest.approx(portfolio.expected_loss(), abs=1e-9)


@criterion(4, "single-default total probability")
def test_criterion_04_total_probability_single(portfolio, engine, base):
    for o in portfolio.obligors:
        total = sum(
            cd.cond_default_intensity(engine, portfolio, o.id, x) * base[x]
            for x in range(201) if base[x] > 0
        )
        assert total == pytest.approx(o.pd, abs=1e-8)


@criterion(5, "joint-default total probability")
def test_criterion_05_total_probability_joint(portfolio, engine, base):
    for id1, id2 in itertools.combinations("ABCDE", 2):
        total = sum(
            cd.joint_cond_intensity(engine, portfolio, id1, id2, x) * base[x]
            for x in range(201) if base[x] > 0
        )
        expected = cd.joint_default_intensity(portfolio, engine.system, id1, id2)
        assert total == pytest.approx(expected, abs=1e-8)


@criterion(6, "two-default mixture weight identity")
def test_criterion_06_mixture_weights(portfolio, engine):
    for id1, id2 in itertools.combinations("ABCDE", 2):
        rep = cd.loss_given_two_defaults(engine, portfolio, id1, id2)
        o1, o2 = portfolio.obligor(id1), portfolio.obligor(id2)
        normalizer = 1.0 + float(
            np.sum(o1.weights[1:] * o2.weights[1:] / engine.system.alphas))
        assert sum(rep.mixture_weights.values()) == pytest.approx(normalizer, abs=1e-12)


@criterion(7, "Bayes coherence of the single-default pmf")
def test_criterion_07_bayes_coherence(portfolio, engine, base):
    for o in portfolio.obligors:
        rep = cd.loss_given_one_default(engine, portfolio, o.id)
        for x in range(201):
            if base[x] == 0:
                continue
            via_bayes = (
                cd.cond_default_intensity(engine, portfolio, o.id, x) * base[x] / o.pd
            )
            assert rep.conditional_pmf[x] == pytest.approx(via_bayes, abs=1e-12)


@criterion(8, "MC weighted conditional estimator convergence")
def test_criterion_08_mc_convergence(portfolio, engine):
    obligor_id = "B"
    pd = portfolio.obligor(obligor_id).pd
    ana = cd.loss_given_one_default(engine, portfolio, obligor_id).conditional_pmf.probs
    est = mc.estimate_conditional_one_default(
        portfolio, obligor_id, mc.SimConfig(draws=MC_DRAWS, seed=42), 200)
    mask = ana * MC_DRAWS * pd >= 25
    assert mask.sum() > 10
    within = np.abs(est.weighted - ana)[mask] <= 3 * est.weighted_se[mask]
    assert within.mean() >= 0.99


@criterion(9, "fundamental identity, two defaults, at the median")
def test_criterion_09_fundamental_identity(portfolio, base):
    x = pm.quantile(base, 0.5)
    for pair in [("A", "B"), ("A", "C")]:  # same-sector heavy and cross-sector
        report = mc.verify_fundamental_identity(
            portfolio, pair[0], pair[1], x, mc.SimConfig(draws=MC_DRAWS, seed=2718))
        assert report["consistent_3se"], report
    # A's severity 2 plus C's (2 or 4) exceeds the median 3, where both sides
    # are 0 on every draw; at x = 6 the cross-sector identity has mass.
    report = mc.verify_fundamental_identity(
        portfolio, "A", "C", 6, mc.SimConfig(draws=MC_DRAWS, seed=2718))
    assert report["right"] > 0 and report["left"] > 0, report
    assert report["consistent_3se"], report


@criterion(10, "Panjer vs naive compound enumeration")
def test_criterion_10_panjer_vs_naive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        support = rng.choice(np.arange(1, 7), size=3, replace=False)
        w = rng.uniform(0.1, 1.0, 3)
        sev = pm.from_dict(dict(zip(support.tolist(), (w / w.sum()).tolist())), 12)

        lam = rng.uniform(0.05, 1.0)
        out = pm.compound_poisson(lam, sev, 12)
        naive = _naive(lambda m: stats.poisson.pmf(m, lam), sev)
        np.testing.assert_allclose(out.probs[:11], naive[:11], atol=1e-10)

        mu, alpha = rng.uniform(0.05, 1.0), rng.uniform(0.3, 3.0)
        delta = mu / (mu + alpha)
        out = pm.compound_negbin(alpha, delta, sev, 12)
        naive = _naive(lambda m: stats.nbinom.pmf(m, alpha, 1 - delta), sev)
        np.testing.assert_allclose(out.probs[:11], naive[:11], atol=1e-10)


def _naive(count_pmf, severity, limit=12, max_claims=10):
    out = np.zeros(limit + 1)
    conv = np.zeros(limit + 1)
    conv[0] = 1.0
    for m in range(max_claims + 1):
        out += count_pmf(m) * conv
        conv = np.convolve(conv, severity.probs)[: limit + 1]
    return out


@criterion(11, "determinism and permutation invariance")
def test_criterion_11_determinism(portfolio, base, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(serialize_portfolio(portfolio))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["mc", "--portfolio", str(path), "--max-loss", "200",
                         "--draws", "200000", "--seed", "31415",
                         "--out", str(out)]) == 0
        outs.append((out / "mc_losses.csv").read_bytes()
                    + (out / "mc_result.json").read_bytes())
    assert outs[0] == outs[1]

    permuted = Portfolio(
        (portfolio.sectors[1], portfolio.sectors[0]),
        tuple(Obligor(o.id, o.pd, [o.weights[0], o.weights[2], o.weights[1]], o.severity)
              for o in reversed(portfolio.obligors)),
    )
    out = LossEngine(eng.assemble(permuted, 200)).loss_distribution()
    np.testing.assert_allclose(out.probs, base.probs, atol=1e-12)


@criterion(12, "double-default scenario at scale within 60 s")
def test_criterion_12_performance():
    rng = np.random.default_rng(2024)
    n_sec = 10
    sectors = tuple(Sector(f"s{k + 1}", float(a))
                    for k, a in enumerate(rng.uniform(0.5, 3.0, n_sec)))
    obligors = []
    for i in range(1000):
        w = np.zeros(n_sec + 1)
        w[0] = rng.uniform(0.1, 0.5)
        ks = rng.choice(n_sec, size=2, replace=False) + 1
        split = rng.uniform(0.2, 0.8)
        w[ks[0]] = (1 - w[0]) * split
        w[ks[1]] = (1 - w[0]) * (1 - split)
        sev = int(rng.integers(1, 51))
        obligors.append(Obligor(f"o{i}", float(rng.uniform(0.002, 0.02)),
                                w, SeverityDist({sev: 1.0})))
    big = Portfolio(sectors, tuple(obligors))
    start = time.perf_counter()
    engine = LossEngine(eng.assemble(big, 50_000))
    rep = cd.loss_given_two_defaults(engine, big, "o0", "o1")
    elapsed = time.perf_counter() - start
    total = rep.conditional_pmf.probs.sum() + rep.conditional_pmf.tail_mass
    assert total == pytest.approx(1.0, abs=1e-9)
    assert elapsed < 60.0, f"double-default scenario took {elapsed:.1f} s"
