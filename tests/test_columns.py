"""The columnar portfolio view and the array code that reads it.

``assemble``, ``suggest_truncation`` and ``validate`` are checked bitwise
against the per-obligor loops in conftest, the write-off system against
``assemble`` of the portfolio with the severity replaced (and the write-off
engine's patched system against that), and the columns ``parse_portfolio``
decodes against those built from obligor objects.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crplus import cli
from crplus import conditional as cd
from crplus import engine as eng
from crplus import mc
from crplus import portfolio as pf
from crplus.portfolio import ZERO_SEVERITY, Obligor, Portfolio, Sector, SeverityDist

from conftest import (assemble_loop, severity_mean, suggest_truncation_loop, validate_loop,
                      with_severity)

NAN, INF = float("nan"), float("inf")


def assert_same_system(a, b):
    assert a.mu.tobytes() == b.mu.tobytes()
    assert a.delta.tobytes() == b.delta.tobytes()
    assert len(a.q_polys) == len(b.q_polys)
    for qa, qb in zip(a.q_polys, b.q_polys):
        assert qa.probs.tobytes() == qb.probs.tobytes()
        assert qa.tail_mass == qb.tail_mass


@st.composite
def books(draw):
    """Valid books with zero pds, unloaded sectors, severity 0 and values beyond L.

    Severity entries come in random dict order, not only ascending.
    """
    limit = draw(st.integers(1, 60))
    n_sectors = draw(st.integers(0, 3))
    unloaded = draw(st.integers(0, n_sectors))  # 0: the idiosyncratic sector
    obligors = []
    for i in range(draw(st.integers(1, 8))):
        pd = draw(st.sampled_from([0.0, 0.25]) | st.floats(1e-6, 0.5))
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n_sectors + 1,
                            max_size=n_sectors + 1))
        raw[unloaded] = 0.0
        if sum(raw) == 0.0:
            raw[(unloaded + 1) % (n_sectors + 1)] = 1.0
        weights = [w / sum(raw) for w in raw]
        values = draw(st.lists(st.integers(0, limit + 10), min_size=1, max_size=4, unique=True))
        masses = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values),
                               max_size=len(values)))
        probs = {v: m / sum(masses) for v, m in zip(values, masses)}
        obligors.append(Obligor(f"o{i}", pd, weights, SeverityDist(probs)))
    sectors = tuple(Sector(f"s{k}", draw(st.floats(0.1, 5.0))) for k in range(n_sectors))
    portfolio = Portfolio(sectors, tuple(obligors))
    assert pf.validate(portfolio) == []
    return portfolio, limit


def test_columns_hold_the_obligors(reference_portfolio):
    c = reference_portfolio.columns
    assert reference_portfolio.columns is c  # built once
    np.testing.assert_array_equal(c.pd, [0.30, 0.40, 0.25, 0.20, 0.35])
    np.testing.assert_array_equal(c.W[1], [0.1, 0.5, 0.4])
    np.testing.assert_array_equal(c.owner, [0, 1, 1, 2, 2, 3, 4, 4, 4])
    np.testing.assert_array_equal(c.value, [2, 1, 3, 2, 4, 5, 1, 2, 5])
    np.testing.assert_array_equal(c.prob, [1.0, 0.5, 0.5, 0.3, 0.7, 1.0, 0.25, 0.5, 0.25])
    assert c.row == {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4}
    assert not c.W.flags.writeable and not c.prob.flags.writeable


def test_row_is_first_occurrence_and_rejects_unknown_ids():
    o = Obligor("A", 0.1, [1.0], SeverityDist({1: 1.0}))
    p = Portfolio((), (o, Obligor("B", 0.2, [1.0], SeverityDist({2: 1.0})), o))
    assert p.row("A") == 0 and p.row("B") == 1 and p.obligor("B").pd == 0.2
    with pytest.raises(pf.PortfolioError, match="unknown obligor 'Z'"):
        p.row("Z")


def test_empty_book():
    p = Portfolio((Sector("s1", 1.0),), ())
    assert p.columns.W.shape == (0, 2) and p.columns.value.size == 0
    assert pf.validate(p) == []
    assert_same_system(eng.assemble(p, 10), assemble_loop(p, 10))
    assert eng.suggest_truncation(p) == suggest_truncation_loop(p) == 1


def test_losses_beyond_int64_lie_beyond_the_limit():
    p = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({10**19: 1.0})),
                   Obligor("B", 0.2, [0.5, 0.5], SeverityDist({3: 1.0}))))
    assert p.columns.value[0] == np.iinfo(np.int64).max
    assert_same_system(eng.assemble(p, 20), assemble_loop(p, 20))
    assert eng.assemble(p, 20).reach == assemble_loop(p, 20).reach == 3
    # v * v overflows int64 from v ~ 3e9 on; the moments stay those of the loop.
    q = Portfolio((Sector("s1", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({5 * 10**9: 1.0})),))
    assert eng.suggest_truncation(q) == suggest_truncation_loop(q)


@settings(max_examples=150, deadline=None)
@given(books())
def test_assemble_and_truncation_match_the_loops(case):
    portfolio, limit = case
    system, ref = eng.assemble(portfolio, limit), assemble_loop(portfolio, limit)
    assert_same_system(system, ref)
    assert system.reach == ref.reach
    assert eng.suggest_truncation(portfolio) == suggest_truncation_loop(portfolio)


@pytest.mark.parametrize("limit", [56, 92, 200])
def test_reference_system_matches_the_loop(reference_portfolio, limit):
    assert_same_system(eng.assemble(reference_portfolio, limit),
                       assemble_loop(reference_portfolio, limit))
    assert eng.suggest_truncation(reference_portfolio) == 56


def _stripped(portfolio, ids):
    for oid in ids:
        portfolio = with_severity(portfolio, oid, ZERO_SEVERITY)
    return portfolio


@pytest.mark.parametrize("ids", [("A",), ("E",), ("B", "E"), ("C", "D")])
def test_writeoff_system_is_the_stripped_portfolios(reference_portfolio, ids):
    for limit in (3, 56):
        assert_same_system(eng.assemble(reference_portfolio, limit, written_off=ids),
                           eng.assemble(_stripped(reference_portfolio, ids), limit))


@settings(max_examples=100, deadline=None)
@given(books(), st.data())
def test_writeoff_system_matches_on_random_books(case, data):
    portfolio, limit = case
    ids = [o.id for o in portfolio.obligors]
    chosen = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2, unique=True))
    system = eng.assemble(portfolio, limit, written_off=chosen)
    assert_same_system(system, assemble_loop(_stripped(portfolio, chosen), limit))
    # The reach is the book's own: the written-off severities still count.
    assert system.reach == assemble_loop(portfolio, limit).reach


@settings(max_examples=100, deadline=None)
@given(books(), st.data())
def test_patched_writeoff_system_is_the_full_assembly(case, data):
    portfolio, limit = case
    ids = [o.id for o in portfolio.obligors]
    chosen = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2, unique=True))
    base = eng.assemble(portfolio, limit)
    patched = eng.LossEngine(base).written_off(portfolio, chosen).system
    full = eng.assemble(portfolio, limit, written_off=chosen)
    assert_same_system(patched, full)
    assert patched.alphas.tobytes() == full.alphas.tobytes()
    assert (patched.limit, patched.sector_ids, patched.reach) == (full.limit, full.sector_ids,
                                                                  full.reach)
    # Shared with the base: the intensities and the untouched sectors' mixtures.
    assert patched.mu is base.mu and patched.delta is base.delta
    loaded = (portfolio.columns.W[[portfolio.row(oid) for oid in chosen]] != 0.0).any(axis=0)
    for k, q in enumerate(patched.q_polys):
        assert (q is base.q_polys[k]) == (not loaded[k])


# ---------------------------------------------------------------- validate

S2 = (Sector("s1", 1.0), Sector("s2", 2.0))


def ob(oid, pd=0.1, w=(0.5, 0.5, 0.0), sev=None):
    return Obligor(oid, pd, list(w), SeverityDist({1: 1.0} if sev is None else sev))


# Each book with the diagnostics list that the per-obligor loop produced.
BROKEN = {
    "ragged": (
        Portfolio(S2, (ob("A", w=[0.5, 0.5]), ob("B", w=[0.2, 0.3, 0.4, 0.1]),
                       ob("C", w=[0.5, 0.6]), ob("D", w=[1.5]), ob("E", w=[]), ob("F"))),
        ["obligor A: weight vector length 2 != 3",
         "obligor B: weight vector length 4 != 3",
         "obligor C: weight vector length 2 != 3",
         "obligor C: weights sum to 1.1, not 1",
         "obligor D: weight vector length 1 != 3",
         "obligor D: weights must lie in [0, 1]",
         "obligor E: weight vector length 0 != 3",
         "obligor E: weights sum to 0.0, not 1"]),
    "duplicates": (
        Portfolio(S2, (ob("A"), ob("B"), ob("A", pd=NAN), ob("A"),
                       ob("B", w=[0.5, 0.4, 0.0]))),
        ["obligor A: duplicate obligor id",
         "obligor A: pd must be non-negative and finite (got nan)",
         "obligor A: duplicate obligor id",
         "obligor B: duplicate obligor id",
         "obligor B: weights sum to 0.9, not 1"]),
    "nan_negative": (
        Portfolio(S2, (ob("A", pd=NAN), ob("B", pd=-0.1), ob("C", pd=INF),
                       ob("D", w=[NAN, 0.5, 0.5]), ob("E", w=[-0.2, 0.6, 0.6]),
                       ob("F", sev={1: NAN}), ob("G", sev={-2: 1.0}),
                       ob("H", pd=-INF, w=[0.4, 0.4, 0.4]))),
        ["obligor A: pd must be non-negative and finite (got nan)",
         "obligor B: pd must be non-negative and finite (got -0.1)",
         "obligor C: pd must be non-negative and finite (got inf)",
         "obligor D: weights must lie in [0, 1]",
         "obligor E: weights must lie in [0, 1]",
         "obligor F: severity probability nan outside [0, 1]",
         "obligor G: severity support point -2 is negative",
         "obligor H: pd must be non-negative and finite (got -inf)",
         "obligor H: weights sum to 1.2000000000000002, not 1"]),
    "severities": (
        Portfolio(S2, (ob("A", sev={3: 0.5, -1: 0.2, 2: 1.3}), ob("B", sev={}),
                       ob("C", sev={1: 0.5, 2: 0.4}), ob("D", sev={1: -0.5, 2: 1.5}),
                       ob("E", sev={5: 0.1, 4: 0.2, 3: 0.3, 2: 0.4 + 1e-11}),
                       ob("F", sev={0: 1.0}))),
        ["obligor A: severity support point -1 is negative",
         "obligor A: severity probability 1.3 outside [0, 1]",
         "obligor A: severity probabilities sum to 2.0, not 1",
         "obligor B: severity probabilities sum to 0, not 1",
         "obligor C: severity probabilities sum to 0.9, not 1",
         "obligor D: severity probability -0.5 outside [0, 1]",
         "obligor D: severity probability 1.5 outside [0, 1]",
         "obligor E: severity probabilities sum to 1.00000000001, not 1"]),
    "sectors": (
        Portfolio((Sector("s1", 0.0), Sector("s1", NAN)),
                  (ob("A", w=[0.5, 0.6, 0.0]), ob("A"))),
        ["sector s1: alpha must be positive and finite (got 0.0)",
         "sector s1: alpha must be positive and finite (got nan)",
         "sector s1: duplicate sector id",
         "obligor A: weights sum to 1.1, not 1",
         "obligor A: duplicate obligor id"]),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_validate_reports_broken_books_as_the_loop_did(name):
    portfolio, expected = BROKEN[name]
    assert pf.validate(portfolio) == expected
    assert validate_loop(portfolio) == expected


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_engine_and_sampler_raise_the_first_obligor_diagnostic(name):
    portfolio, expected = BROKEN[name]
    first = re.escape(next(d for d in expected if d.startswith("obligor")))
    with pytest.raises(pf.PortfolioError, match=first):
        eng.assemble(portfolio, 10)
    with pytest.raises(pf.PortfolioError, match=first):
        eng.suggest_truncation(portfolio)
    with pytest.raises(pf.PortfolioError, match=first):
        mc.simulate(portfolio, mc.SimConfig(draws=10, seed=1))


@st.composite
def broken_books(draw):
    """Books that break any mix of the obligor rules, several per obligor."""
    n_sectors = draw(st.integers(0, 3))
    bad_float = st.sampled_from([NAN, INF, -INF, -0.5, 1.5, -0.0, 0.0, 1.0])
    obligors = []
    for _ in range(draw(st.integers(1, 6))):
        oid = draw(st.sampled_from("ABCDEF"))
        pd = draw(bad_float | st.floats(0.0, 0.5))
        size = draw(st.sampled_from([n_sectors + 1, n_sectors + 1, 0, n_sectors, n_sectors + 2]))
        weights = draw(st.lists(bad_float | st.floats(0.0, 1.0), min_size=size, max_size=size))
        values = draw(st.lists(st.integers(-3, 9), max_size=4, unique=True))
        probs = draw(st.lists(bad_float | st.floats(0.0, 1.0), min_size=len(values),
                              max_size=len(values)))
        obligors.append(Obligor(oid, pd, weights, SeverityDist(dict(zip(values, probs)))))
    return Portfolio(tuple(Sector(f"s{k}", 1.0) for k in range(n_sectors)), tuple(obligors))


@settings(max_examples=300, deadline=None)
@given(broken_books())
def test_validate_matches_the_loop_on_broken_books(portfolio):
    with np.errstate(invalid="ignore"):  # the loop sums inf and -inf weights
        expected = validate_loop(portfolio)
    assert pf.validate(portfolio) == expected


def test_a_parsed_portfolio_is_validated_once(monkeypatch, reference_portfolio):
    calls = []
    faults = pf._obligor_faults
    monkeypatch.setattr(pf, "_obligor_faults", lambda p: calls.append(p) or faults(p))
    portfolio = pf.parse_portfolio(pf.serialize_portfolio(reference_portfolio))
    assert len(calls) == 1
    eng.assemble(portfolio, eng.suggest_truncation(portfolio))
    eng.assemble(portfolio, 40, written_off=("A", "C"))
    mc.simulate(portfolio, mc.SimConfig(draws=10, seed=1))
    assert pf.validate(portfolio) == []
    assert calls == [portfolio]


# ---------------------------------------------------------------- parsing into columns

def assert_same_columns(a, b):
    for name in ("pd", "W", "owner", "value", "prob", "start"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.row == b.row and a.exact == b.exact
    assert a.ragged.keys() == b.ragged.keys()
    assert all(np.array_equal(a.ragged[r], b.ragged[r]) for r in a.ragged)


@settings(max_examples=150, deadline=None)
@given(books())
def test_parse_decodes_straight_into_the_columns(case):
    portfolio, _ = case
    text = pf.serialize_portfolio(portfolio)
    fresh = pf.parse_portfolio(text)
    for o in portfolio.obligors:  # one obligor at a time, before the tuple exists
        assert fresh.obligor(o.id) == o
    parsed = pf.parse_portfolio(text)
    assert parsed == portfolio
    assert_same_columns(parsed.columns, Portfolio(parsed.sectors, parsed.obligors).columns)
    for p in (parsed, portfolio):  # each obligor's mean in its dict's order
        assert p.expected_loss() == sum(o.pd * severity_mean(o.severity) for o in p.obligors)


@settings(max_examples=100, deadline=None)
@given(books(), st.data())
def test_with_pds_book_matches_the_objects(case, data):
    portfolio, _ = case
    n = len(portfolio.obligors)
    pd = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    for book in (portfolio, pf.parse_portfolio(pf.serialize_portfolio(portfolio))):
        stressed = book.with_pds(pd)
        objects = Portfolio(book.sectors, [Obligor(o.id, p, o.weights, o.severity)
                                           for o, p in zip(book.obligors, pd)])
        assert_same_columns(stressed.columns, objects.columns)
        assert stressed == objects


def test_hot_paths_build_no_obligor(monkeypatch, reference_portfolio):
    built = []
    post_init = Obligor.__post_init__
    monkeypatch.setattr(Obligor, "__post_init__", lambda o: built.append(o.id) or post_init(o))
    portfolio = pf.parse_portfolio(pf.serialize_portfolio(reference_portfolio))
    engine = eng.LossEngine(eng.assemble(portfolio, eng.suggest_truncation(portfolio) + 40))
    cfg = mc.SimConfig(draws=1000, seed=1)
    mc.simulate(portfolio, cfg)
    mc.estimate_conditional_one_default(portfolio, "A", cfg, engine.system.limit)
    mc.verify_fundamental_identity(portfolio, "A", "C", 3, cfg)
    cd.loss_given_one_default(engine, portfolio, "A")
    cd.loss_given_two_defaults(engine, portfolio, "B", "E", writeoff=True)
    cd.cond_default_intensity(engine, portfolio, "C", 4)
    cd.joint_cond_intensity(engine, portfolio, "C", "D", 8)
    cli._stressed_input_pmf(engine, portfolio, "E")
    assert built == [] and portfolio.expected_loss() == reference_portfolio.expected_loss()
    assert portfolio.obligor("B") == reference_portfolio.obligor("B")
    assert built == ["B", "B"]  # each book builds B from its row


def test_object_built_book_round_trips_through_its_rows():
    given = (
        Obligor("A", 0.3, [0.2, 0.3, 0.5], SeverityDist({5: 0.25, 2: 0.5, 1: 0.25})),
        Obligor("B", 0.1, [0.5, 0.5], SeverityDist({1: 1.0})),
        Obligor("C", 0.2, [0.25, 0.25, 0.25, 0.25], SeverityDist({3: 1.0})),
        Obligor("D", 0.05, [0.0, 1.0, 0.0], SeverityDist({2**70: 0.5, 3: 0.5})),
        Obligor("E", 0.4, [1.0, 0.0, 0.0], SeverityDist({})),
    )
    sectors = (Sector("s1", 1.5), Sector("s2", 0.8))
    p = Portfolio(sectors, given)
    assert sorted(p.__dict__) == ["columns", "ids", "sectors"]
    for o in given:
        assert p.obligor(o.id) == o and p.obligor(o.id) is not o
    assert repr(p) == (
        "Portfolio(sectors=(Sector(id='s1', alpha=1.5), Sector(id='s2', alpha=0.8)), "
        "obligors=(Obligor(id='A', pd=0.3, weights=array([0.2, 0.3, 0.5]), "
        "severity=SeverityDist(probabilities={5: 0.25, 2: 0.5, 1: 0.25})), "
        "Obligor(id='B', pd=0.1, weights=array([0.5, 0.5]), "
        "severity=SeverityDist(probabilities={1: 1.0})), "
        "Obligor(id='C', pd=0.2, weights=array([0.25, 0.25, 0.25, 0.25]), "
        "severity=SeverityDist(probabilities={3: 1.0})), "
        "Obligor(id='D', pd=0.05, weights=array([0., 1., 0.]), "
        "severity=SeverityDist(probabilities={1180591620717411303424: 0.5, 3: 0.5})), "
        "Obligor(id='E', pd=0.4, weights=array([1., 0., 0.]), "
        "severity=SeverityDist(probabilities={}))))")
    assert pf.validate(p) == ["obligor B: weight vector length 2 != 3",
                              "obligor C: weight vector length 4 != 3",
                              "obligor E: severity probabilities sum to 0, not 1"]
    with pytest.raises(pf.PortfolioError, match=r"obligor B: weight vector length 2 != 3"):
        pf.serialize_portfolio(p)
    valid = Portfolio(sectors, (given[0], given[3]))
    assert pf.parse_portfolio(pf.serialize_portfolio(valid)) == valid
    for weights in (0.5, [[0.2, 0.3, 0.5]]):  # a row holds one vector
        with pytest.raises(pf.PortfolioError, match=r"obligor X: weights must be a vector"):
            Obligor("X", 0.1, weights, SeverityDist({1: 1.0}))
