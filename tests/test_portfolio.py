import json

import numpy as np
import pytest

from crplus import portfolio as pf
from crplus.cli import main
from crplus.portfolio import Obligor, Portfolio, PortfolioError, Sector, SeverityDist

from conftest import make_reference_portfolio, severity_mean, with_severity

MINIMAL = {
    "sectors": [{"id": "s1", "alpha": 1.0}],
    "obligors": [{
        "id": "A", "pd": 0.1,
        "weights": {"s1": 1.0},
        "severity": {"type": "deterministic", "value": 1},
    }],
}


def test_parse_minimal_portfolio():
    p = pf.parse_portfolio(json.dumps(MINIMAL))
    assert p.n_sectors == 1
    o = p.obligor("A")
    assert o.pd == 0.1
    np.testing.assert_array_equal(o.weights, [0.0, 1.0])
    assert o.severity.probabilities == {1: 1.0}


def test_parse_weight_sum_violation():
    doc = json.loads(json.dumps(MINIMAL))
    doc["obligors"][0]["weights"] = {"s1": 0.9}
    with pytest.raises(PortfolioError, match="weights sum"):
        pf.parse_portfolio(json.dumps(doc))


def test_parse_pmf_severity():
    doc = json.loads(json.dumps(MINIMAL))
    doc["obligors"][0]["severity"] = {"type": "pmf", "values": [[1, 0.5], [2, 0.5]]}
    p = pf.parse_portfolio(json.dumps(doc))
    assert severity_mean(p.obligor("A").severity) == pytest.approx(1.5)


def test_parse_unknown_sector_reference():
    doc = json.loads(json.dumps(MINIMAL))
    doc["obligors"][0]["weights"] = {"nope": 1.0}
    with pytest.raises(PortfolioError, match="unknown sector"):
        pf.parse_portfolio(json.dumps(doc))


def test_parse_negative_pd():
    doc = json.loads(json.dumps(MINIMAL))
    doc["obligors"][0]["pd"] = -0.1
    with pytest.raises(PortfolioError, match="pd"):
        pf.parse_portfolio(json.dumps(doc))


def test_parse_severity_not_summing_to_one():
    doc = json.loads(json.dumps(MINIMAL))
    doc["obligors"][0]["severity"] = {"type": "pmf", "values": [[1, 0.5], [2, 0.4]]}
    with pytest.raises(PortfolioError, match="severity"):
        pf.parse_portfolio(json.dumps(doc))


def test_parse_malformed_json():
    with pytest.raises(PortfolioError, match="malformed"):
        pf.parse_portfolio("{not json")


def test_parse_renormalize_flag():
    doc = json.loads(json.dumps(MINIMAL))
    doc["obligors"][0]["weights"] = {"idiosyncratic": 0.2, "s1": 0.6}
    with pytest.raises(PortfolioError):
        pf.parse_portfolio(json.dumps(doc))
    p = pf.parse_portfolio(json.dumps(doc), renormalize_weights=True)
    np.testing.assert_allclose(p.obligor("A").weights, [0.25, 0.75])


def test_validate_valid_portfolio_is_clean():
    assert pf.validate(make_reference_portfolio()) == []


def test_validate_zero_alpha_sector():
    p = Portfolio((Sector("bad", 0.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),))
    diags = pf.validate(p)
    assert len(diags) == 1 and "bad" in diags[0] and "alpha" in diags[0]


def test_validate_duplicate_obligor_id():
    o = Obligor("A", 0.1, [1.0], SeverityDist({1: 1.0}))
    diags = pf.validate(Portfolio((), (o, o)))
    assert len(diags) == 1 and "duplicate" in diags[0] and "A" in diags[0]


def test_round_trip_identity():
    p = make_reference_portfolio()
    back = pf.parse_portfolio(pf.serialize_portfolio(p))
    assert back == p
    # and once more through the serializer: identical text
    assert pf.serialize_portfolio(back) == pf.serialize_portfolio(p)


def test_portfolio_types_are_unhashable_and_compare_by_value():
    p, q = make_reference_portfolio(), pf.parse_portfolio(
        pf.serialize_portfolio(make_reference_portfolio()))
    pairs = [(p, q), (p.obligor("A"), q.obligor("A")),
             (p.obligor("A").severity, q.obligor("A").severity)]
    for x, y in pairs:
        name = type(x).__name__
        with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
            hash(x)
        assert x == y and not x != y
    assert p.obligor("A") != p.obligor("B")
    assert p.obligor("A").severity != p.obligor("B").severity
    assert p != with_severity(p, "A", pf.ZERO_SEVERITY)


def test_with_severity_replaces_one_obligor():
    p = make_reference_portfolio()
    q = with_severity(p, "A", pf.ZERO_SEVERITY)
    assert severity_mean(q.obligor("A").severity) == 0.0
    assert q.obligor("B") == p.obligor("B")
    with pytest.raises(PortfolioError, match="unknown obligor"):
        with_severity(p, "nope", pf.ZERO_SEVERITY)


def test_severity_losses_must_be_integers():
    for loss in (2.5, 1e-9, float("nan"), float("inf"), "2", None):
        with pytest.raises(PortfolioError, match=f"severity loss {loss!r} is not an integer"):
            SeverityDist({loss: 1.0})
    with pytest.raises(PortfolioError, match="severity loss 1.7 "):
        SeverityDist({1: 0.5, 1.7: 0.5})
    # Integral floats and numpy integers are losses, stored as int.
    for loss in (2.0, np.int64(2), np.int32(2), np.float64(2.0), 2):
        sev = SeverityDist({loss: 1.0})
        assert sev == SeverityDist({2: 1.0})
        assert [type(x) for x in sev.probabilities] == [int]


def test_zero_pd_obligor_is_allowed():
    p = Portfolio((), (Obligor("Z", 0.0, [1.0], SeverityDist({3: 1.0})),))
    assert pf.validate(p) == []
    assert p.expected_loss() == 0.0


def test_sector_id_idiosyncratic_is_reserved():
    doc = json.loads(json.dumps(MINIMAL))
    doc["sectors"].append({"id": "idiosyncratic", "alpha": 2.0})
    doc["obligors"][0]["weights"] = {"s1": 0.5, "idiosyncratic": 0.5}
    with pytest.raises(PortfolioError, match="sector idiosyncratic: sector id 'idiosyncratic' "
                                             "is reserved for the idiosyncratic weight"):
        pf.parse_portfolio(json.dumps(doc))
    p = Portfolio((Sector("idiosyncratic", 1.0),),
                  (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),))
    assert pf.validate(p) == ["sector idiosyncratic: sector id 'idiosyncratic' is reserved "
                              "for the idiosyncratic weight"]


def _edit(path, value):
    """MINIMAL, with a two-point pmf severity, and ``value`` set (or appended) at ``path``."""
    doc = json.loads(json.dumps(MINIMAL))
    doc["obligors"][0]["severity"] = {"type": "pmf", "values": [[1, 0.5], [2, 0.5]]}
    node = doc
    for key in path[:-1]:
        node = node[key]
    if isinstance(node, list) and path[-1] == len(node):
        node.append(value)
    else:
        node[path[-1]] = value
    return doc


PMF = ("obligors", 0, "severity")
# Each malformed document with the PortfolioError message it must raise.
MALFORMED = {
    "pd_string": (_edit(("obligors", 0, "pd"), "abc"),
                  "obligor A: pd must be a number (got 'abc')"),
    "pd_numeric_string": (_edit(("obligors", 0, "pd"), "0.1"),
                          "obligor A: pd must be a number (got '0.1')"),
    "pd_null": (_edit(("obligors", 0, "pd"), None), "obligor A: pd must be a number (got None)"),
    "pd_list": (_edit(("obligors", 0, "pd"), [0.1]),
                "obligor A: pd must be a number (got [0.1])"),
    "pd_bool": (_edit(("obligors", 0, "pd"), True), "obligor A: pd must be a number (got True)"),
    "pd_beyond_float": (_edit(("obligors", 0, "pd"), 10**400),
                        "obligor A: pd must be a number (got 1000"),
    "alpha_string": (_edit(("sectors", 0, "alpha"), "abc"),
                     "sector s1: alpha must be a number (got 'abc')"),
    "alpha_bool": (_edit(("sectors", 0, "alpha"), True),
                   "sector s1: alpha must be a number (got True)"),
    "weight_string": (_edit(("obligors", 0, "weights", "s1"), "abc"),
                      "obligor A: weight 's1' must be a number (got 'abc')"),
    "weight_null": (_edit(("obligors", 0, "weights", "s1"), None),
                    "obligor A: weight 's1' must be a number (got None)"),
    "weight_bool": (_edit(("obligors", 0, "weights", "idiosyncratic"), False),
                    "obligor A: weight 'idiosyncratic' must be a number (got False)"),
    "weights_list": (_edit(("obligors", 0, "weights"), [1.0]),
                     "obligor A: weights must be an object (got [1.0])"),
    "weights_string": (_edit(("obligors", 0, "weights"), "s1"),
                       "obligor A: weights must be an object (got 's1')"),
    "probability_string": (_edit(PMF + ("values", 0, 1), "abc"),
                           "obligor A: pmf probability of loss 1 must be a number (got 'abc')"),
    "probability_null": (_edit(PMF + ("values", 1, 1), None),
                         "obligor A: pmf probability of loss 2 must be a number (got None)"),
    "probability_list": (_edit(PMF + ("values", 0, 1), [0.5]),
                         "obligor A: pmf probability of loss 1 must be a number (got [0.5])"),
    "probability_bool": (_edit(PMF + ("values", 0, 1), True),
                         "obligor A: pmf probability of loss 1 must be a number (got True)"),
    "loss_bool": (_edit(PMF + ("values", 0, 0), True),
                  "obligor A: pmf loss True is not a non-negative integer"),
    "loss_float": (_edit(PMF + ("values", 0, 0), 1.0),
                   "obligor A: pmf loss 1.0 is not a non-negative integer"),
    "value_bool": (_edit(PMF, {"type": "deterministic", "value": True}),
                   "obligor A: deterministic severity needs a non-negative integer 'value'"),
    "value_string": (_edit(PMF, {"type": "deterministic", "value": "1"}),
                     "obligor A: deterministic severity needs a non-negative integer 'value'"),
    "sectors_number": (_edit(("sectors",), 5), "sectors must be an array (got 5)"),
    "sectors_object": (_edit(("sectors",), {}), "sectors must be an array (got {})"),
    "sectors_null": (_edit(("sectors",), None), "sectors must be an array (got None)"),
    "obligors_string": (_edit(("obligors",), "ab"), "obligors must be an array (got 'ab')"),
    "obligors_object": (_edit(("obligors",), {"id": "A"}),
                        "obligors must be an array (got {'id': 'A'})"),
    "obligor_id_null": (_edit(("obligors", 0, "id"), None),
                        "obligors[0]: id must be a string (got None)"),
    "obligor_id_bool": (_edit(("obligors", 0, "id"), True),
                        "obligors[0]: id must be a string (got True)"),
    "obligor_id_list": (_edit(("obligors", 0, "id"), [1]),
                        "obligors[0]: id must be a string (got [1])"),
    "obligor_id_number": (_edit(("obligors", 1), dict(MINIMAL["obligors"][0], id=7)),
                          "obligors[1]: id must be a string (got 7)"),
    "sector_id_null": (_edit(("sectors", 0, "id"), None),
                       "sectors[0]: id must be a string (got None)"),
    "sector_id_number": (_edit(("sectors", 1), {"id": 2, "alpha": 2.0}),
                         "sectors[1]: id must be a string (got 2)"),
    "reserved_sector": (_edit(("sectors", 1), {"id": "idiosyncratic", "alpha": 2.0}),
                        "invalid portfolio: sector idiosyncratic: sector id 'idiosyncratic' is "
                        "reserved"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_fields_are_named(name, tmp_path, capsys):
    doc, message = MALFORMED[name]
    with pytest.raises(PortfolioError) as info:
        pf.parse_portfolio(json.dumps(doc))
    assert str(info.value).startswith(message)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["dist", "--portfolio", str(path), "--max-loss", "10",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_integer_numbers_are_accepted():
    doc = json.loads(json.dumps(MINIMAL))
    doc["sectors"][0]["alpha"] = 2
    doc["obligors"][0]["pd"] = 0
    doc["obligors"][0]["weights"] = {"s1": 1}
    doc["obligors"][0]["severity"] = {"type": "pmf", "values": [[3, 1]]}
    p = pf.parse_portfolio(json.dumps(doc))
    assert p.sectors[0].alpha == 2.0 and p.obligor("A").pd == 0.0
    assert p.obligor("A").severity.probabilities == {3: 1.0}
    assert p == pf.parse_portfolio(pf.serialize_portfolio(p))


def test_losses_beyond_int64_keep_their_exact_value():
    doc = json.loads(json.dumps(MINIMAL))
    doc["obligors"][0]["severity"] = {"type": "pmf", "values": [[10**19, 0.5], [2, 0.5]]}
    doc["obligors"].append(dict(doc["obligors"][0], id="B"))
    p = pf.parse_portfolio(json.dumps(doc))
    assert p.columns.value.tolist() == [np.iinfo(np.int64).max, 2] * 2
    assert p.obligor("B").severity.probabilities == {10**19: 0.5, 2: 0.5}
    assert p.expected_loss() == 2 * 0.1 * (10**19 * 0.5 + 2 * 0.5)
    built = Portfolio(p.sectors, p.obligors)
    assert built.columns.exact == p.columns.exact == {0: 10**19, 2: 10**19}
    assert p == built and p.expected_loss() == built.expected_loss()
    zeroed = p.with_pds([0.0, 0.1])
    assert zeroed.obligor("B") == p.obligor("B") and zeroed.columns.exact == p.columns.exact
    assert zeroed.obligor("A").pd == 0.0
    assert zeroed.expected_loss() == 0.1 * (10**19 * 0.5 + 2 * 0.5)
