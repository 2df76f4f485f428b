import json

import numpy as np
import pytest
from scipy import stats

from crplus import pmf as pm
from crplus import Obligor, Portfolio, SeverityDist, serialize_portfolio
from crplus.cli import main

from conftest import make_reference_portfolio


@pytest.fixture
def portfolio_file(tmp_path):
    path = tmp_path / "portfolio.json"
    path.write_text(serialize_portfolio(make_reference_portfolio()))
    return path


def run(args):
    return main([str(a) for a in args])


def test_dist_writes_outputs(portfolio_file, tmp_path):
    out = tmp_path / "out"
    code = run(["dist", "--portfolio", portfolio_file, "--max-loss", 200,
                "--theta", 0.99, "--out", out])
    assert code == 0
    p = pm.from_csv((out / "pmf.csv").read_text())
    assert abs(p.probs.sum() + p.tail_mass - 1.0) < 1e-10
    report = json.loads((out / "report.json").read_text())
    assert report["risk"]["quantiles"]["0.99"] >= 0
    assert report["metadata"]["portfolio_sha256"]


def test_dist_missing_file(tmp_path, capsys):
    code = run(["dist", "--portfolio", tmp_path / "nope.json"])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_dist_truncation_failure(portfolio_file, tmp_path, capsys):
    code = run(["dist", "--portfolio", portfolio_file, "--max-loss", 3,
                "--out", tmp_path / "o"])
    assert code == 3
    assert "tail" in capsys.readouterr().err


def _write_idiosyncratic_book(tmp_path):
    # 1600 obligors of pd 0.5 and severity 1: mu_0 = 800, auto L = 1140.
    port = Portfolio((), tuple(Obligor(f"o{i}", 0.5, [1.0], SeverityDist({1: 1.0}))
                               for i in range(1600)))
    path = tmp_path / "big.json"
    path.write_text(serialize_portfolio(port))
    return path


def test_dist_large_intensity_on_fourier_path(tmp_path):
    # At auto L = 1140 the sector pmf comes from its PGF on an FFT grid,
    # which needs no start value: Poisson(800) where g0 = exp(-800) = 0.
    path = _write_idiosyncratic_book(tmp_path)
    out = tmp_path / "o"
    assert run(["dist", "--portfolio", path, "--max-loss", "auto", "--out", out]) == 0
    p = pm.from_csv((out / "pmf.csv").read_text())
    assert p.truncation_limit == 1140
    x = np.arange(p.truncation_limit + 1)
    np.testing.assert_allclose(p.probs, stats.poisson.pmf(x, 800), rtol=0, atol=1e-13)


def test_dist_panjer_underflow_names_its_cause(tmp_path, capsys):
    # At L = 400 the Panjer recursion runs and g0 = exp(-800) underflows
    # whatever L is, so raising L (what a tail-tolerance message suggests)
    # cannot help.
    path = _write_idiosyncratic_book(tmp_path)
    code = run(["dist", "--portfolio", path, "--max-loss", 400, "--out", tmp_path / "o"])
    assert code == 3
    err = capsys.readouterr().err
    assert "g0 = exp" in err and "underflows" in err and "intensity 800" in err
    assert "tail tolerance" not in err


def test_dist_invalid_theta(portfolio_file, tmp_path):
    assert run(["dist", "--portfolio", portfolio_file, "--max-loss", 200,
                "--theta", 1.5, "--out", tmp_path / "o"]) == 2


def test_cond_single_default(portfolio_file, tmp_path):
    out = tmp_path / "out"
    code = run(["cond", "--portfolio", portfolio_file, "--max-loss", 200,
                "--obligor", "A", "--out", out])
    assert code == 0
    doc = json.loads((out / "scenario_A.json").read_text())
    assert doc["scenario"] == ["A"]
    assert doc["normalizer"] == 1.0
    assert (out / "conditional_A.csv").is_file()
    assert (out / "report.json").is_file()  # unconditional side-by-side


def test_cond_two_defaults_writeoff(portfolio_file, tmp_path):
    out = tmp_path / "out"
    code = run(["cond", "--portfolio", portfolio_file, "--max-loss", 200,
                "--obligor", "A", "--obligor", "B", "--writeoff", "--out", out])
    assert code == 0
    doc = json.loads((out / "scenario_A_B_writeoff.json").read_text())
    assert doc["writeoff"] is True
    assert sum(doc["mixture_weights"].values()) == pytest.approx(doc["normalizer"])


def test_cond_duplicate_obligor(portfolio_file, tmp_path):
    assert run(["cond", "--portfolio", portfolio_file, "--max-loss", 200,
                "--obligor", "A", "--obligor", "A", "--out", tmp_path]) == 2


def test_cond_unknown_obligor(portfolio_file, tmp_path):
    assert run(["cond", "--portfolio", portfolio_file, "--max-loss", 200,
                "--obligor", "nope", "--out", tmp_path]) == 2


def test_mc_deterministic_outputs(portfolio_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = run(["mc", "--portfolio", portfolio_file, "--max-loss", 200,
                    "--draws", 50_000, "--seed", 42, "--out", out])
        assert code == 0
    assert (out1 / "mc_losses.csv").read_bytes() == (out2 / "mc_losses.csv").read_bytes()
    assert (out1 / "mc_result.json").read_bytes() == (out2 / "mc_result.json").read_bytes()


def test_compare_runs(portfolio_file, tmp_path):
    out = tmp_path / "cmp"
    code = run(["compare", "--portfolio", portfolio_file, "--max-loss", 200,
                "--obligor", "A", "--draws", 100_000, "--seed", 7, "--out", out])
    assert code == 0
    doc = json.loads((out / "compare_A.json").read_text())
    assert doc["max_abs_deviation"]["mc_vs_analytic"] < 0.01
    header = (out / "compare_A.csv").read_text().splitlines()[0]
    assert header == "x,analytic,mc_weighted,mc_weighted_se,stressed_inputs"


def test_compare_zero_pd_obligor(tmp_path):
    doc = json.loads(serialize_portfolio(make_reference_portfolio()))
    doc["obligors"].append({"id": "Z", "pd": 0.0,
                            "weights": {"idiosyncratic": 1.0},
                            "severity": {"type": "deterministic", "value": 1}})
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert run(["compare", "--portfolio", path, "--max-loss", 200,
                "--obligor", "Z", "--out", tmp_path / "o"]) == 2
