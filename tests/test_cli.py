import json
import math

import numpy as np
import pytest
from scipy import stats

from crplus import pmf as pm
from crplus import Obligor, Portfolio, Sector, SeverityDist, parse_portfolio, serialize_portfolio
from crplus import cli, conditional, engine as eng, mc
from crplus.cli import main

from conftest import from_csv, make_reference_portfolio


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
    p = from_csv((out / "pmf.csv").read_text())
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
    p = from_csv((out / "pmf.csv").read_text())
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


@pytest.mark.parametrize("command", ["dist", "mc"])
@pytest.mark.parametrize("field, value, rule", [
    ("pd", math.nan, "pd must be non-negative and finite"),
    ("pd", math.inf, "pd must be non-negative and finite"),
    ("weight", math.nan, "weights must lie in [0, 1]"),
])
def test_non_finite_input_is_rejected(tmp_path, capsys, command, field, value, rule):
    # json.loads accepts the NaN and Infinity literals json.dumps writes here.
    doc = json.loads(serialize_portfolio(make_reference_portfolio()))
    obligor = doc["obligors"][1]
    if field == "pd":
        obligor["pd"] = value
    else:
        obligor["weights"]["s1"] = value
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert ("NaN" if math.isnan(value) else "Infinity") in path.read_text()
    args = [command, "--portfolio", path, "--max-loss", 200, "--out", tmp_path / "o"]
    if command == "mc":
        args += ["--draws", 1000]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert f"obligor B: {rule}" in err


def test_dist_invalid_theta(portfolio_file, tmp_path):
    assert run(["dist", "--portfolio", portfolio_file, "--max-loss", 200,
                "--theta", 1.5, "--out", tmp_path / "o"]) == 2


def test_cond_single_default(portfolio_file, tmp_path):
    out = tmp_path / "out"
    common = ["--portfolio", portfolio_file, "--max-loss", 200, "--theta", 0.9, "--theta", 0.999]
    code = run(["cond", *common, "--obligor", "A", "--out", out])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["conditional_A.csv", "scenario_A.json"]
    doc = json.loads((out / "scenario_A.json").read_text())
    assert doc["scenario"] == ["A"]
    assert doc["normalizer"] == 1.0
    # The unconditional risk side by side: dist's report at the same L and thetas.
    assert run(["dist", *common, "--out", tmp_path / "dist"]) == 0
    assert doc["base_risk"] == json.loads((tmp_path / "dist" / "report.json").read_text())["risk"]


def test_cond_leaves_the_dist_files_alone(portfolio_file, tmp_path):
    out = tmp_path / "out"
    common = ["--portfolio", portfolio_file, "--max-loss", 200, "--out", out]
    assert run(["dist", *common, "--theta", 0.999]) == 0
    written = _files(out)
    assert sorted(written) == ["pmf.csv", "report.json"]
    assert run(["cond", *common, "--obligor", "A"]) == 0
    after = _files(out)
    assert {name: after[name] for name in written} == written


def test_cond_two_defaults_writeoff(portfolio_file, tmp_path):
    out = tmp_path / "out"
    code = run(["cond", "--portfolio", portfolio_file, "--max-loss", 200,
                "--obligor", "A", "--obligor", "B", "--writeoff", "--out", out])
    assert code == 0
    doc = json.loads((out / "scenario_A_B_writeoff.json").read_text())
    assert doc["writeoff"] is True
    assert sum(doc["mixture_weights"].values()) == pytest.approx(doc["normalizer"])


@pytest.mark.parametrize("flags, passes", [([], 1), (["--writeoff"], 2)])
@pytest.mark.parametrize("obligors", [["A"], ["C", "E"]])
def test_cond_makes_one_panjer_pass_per_engine(portfolio_file, tmp_path, panjer_passes,
                                               obligors, flags, passes):
    # Below FFT_MIN_SIZE the engine computes all sector pmfs and kernels in
    # one pass; a write-off engine adds one pass over its changed sectors.
    argv = ["cond", "--portfolio", portfolio_file, "--max-loss", 200, "--out", tmp_path / "o"]
    assert run(argv + [a for oid in obligors for a in ("--obligor", oid)] + flags) == 0
    assert len(panjer_passes) == passes


def test_cond_duplicate_obligor(portfolio_file, tmp_path):
    assert run(["cond", "--portfolio", portfolio_file, "--max-loss", 200,
                "--obligor", "A", "--obligor", "A", "--out", tmp_path]) == 2


def test_cond_unknown_obligor(portfolio_file, tmp_path):
    assert run(["cond", "--portfolio", portfolio_file, "--max-loss", 200,
                "--obligor", "nope", "--out", tmp_path]) == 2


@pytest.mark.parametrize("oid", ["a/b", "a\0b"])
@pytest.mark.parametrize("command", ["cond", "compare"])
def test_obligor_id_that_cannot_name_a_file_is_rejected(tmp_path, monkeypatch, capsys,
                                                        command, oid):
    book = Portfolio((Sector("s1", 1.0),),
                     (Obligor(oid, 0.1, [0.5, 0.5], SeverityDist({1: 1.0})),
                      Obligor("c", 0.2, [0.0, 1.0], SeverityDist({2: 1.0}))))
    path = tmp_path / "p.json"
    path.write_text(serialize_portfolio(book))
    assert run(["dist", "--portfolio", path, "--max-loss", 60, "--out", tmp_path / "d"]) == 0

    def no_work(args, prepared):
        raise AssertionError("an engine was built before the obligor id was checked")

    monkeypatch.setattr(cli, "_base_for", no_work)
    capsys.readouterr()
    assert run([command, "--portfolio", path, "--max-loss", 60, "--obligor", oid,
                "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(oid) in err
    assert not (tmp_path / "o").exists()


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


def test_stressed_input_pmf_is_the_book_without_the_scenario_obligor(reference_portfolio,
                                                                     tmp_path):
    basket = parse_portfolio(_seeded_basket(tmp_path / "p.json").read_text())
    for port, limit in ((reference_portfolio, 200), (basket, eng.suggest_truncation(basket))):
        engine = eng.LossEngine(eng.assemble(port, limit))
        for o in port.obligors:
            pds = conditional.stressed_pds(port, engine.system, o.id).tolist()
            others = Portfolio(port.sectors, [Obligor(b.id, p, b.weights, b.severity)
                                              for b, p in zip(port.obligors, pds) if b.id != o.id])
            ref = pm.convolve(eng.loss_distribution(eng.assemble(others, limit)),
                              pm.from_dict(o.severity.probabilities, limit))
            out = cli._stressed_input_pmf(engine, port, o.id)
            assert out.probs.tobytes() == ref.probs.tobytes(), o.id
            assert out.tail_mass == ref.tail_mass


def test_compare_zero_pd_obligor(tmp_path):
    doc = json.loads(serialize_portfolio(make_reference_portfolio()))
    doc["obligors"].append({"id": "Z", "pd": 0.0,
                            "weights": {"idiosyncratic": 1.0},
                            "severity": {"type": "deterministic", "value": 1}})
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert run(["compare", "--portfolio", path, "--max-loss", 200,
                "--obligor", "Z", "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("command", ["mc", "compare"])
@pytest.mark.parametrize("draws", [0, -3])
def test_draws_checked_before_any_work(portfolio_file, tmp_path, monkeypatch, capsys,
                                       command, draws):
    def no_work(args):
        raise AssertionError("the portfolio was read before --draws was checked")

    monkeypatch.setattr(cli, "_load", no_work)
    argv = [command, "--portfolio", portfolio_file, "--max-loss", 200, "--draws", draws,
            "--out", tmp_path / "o"]
    assert run(argv + (["--obligor", "A"] if command == "compare" else [])) == 2
    assert capsys.readouterr().err == f"error: --draws must be >= 1, got {draws}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("max_loss, message", [
    ("abc", "--max-loss must be an integer or 'auto', got 'abc'"),
    ("1.5", "--max-loss must be an integer or 'auto', got '1.5'"),
    ("-1", "--max-loss must be non-negative"),
])
def test_mc_rejects_a_malformed_max_loss(portfolio_file, tmp_path, capsys, max_loss, message):
    assert run(["mc", "--portfolio", portfolio_file, "--max-loss", max_loss,
                "--draws", 100, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_compare_with_no_sampled_default_names_the_obligor_and_draws(portfolio_file, tmp_path,
                                                                     capsys):
    # The first draw of seed 1 holds no default of E.
    assert run(["compare", "--portfolio", portfolio_file, "--max-loss", 200, "--obligor", "E",
                "--draws", 1, "--seed", 1, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == \
        "error: obligor E defaults in none of the 1 draws; raise --draws\n"
    assert not (tmp_path / "o").exists()


def test_mc_and_compare_report_standard_errors(portfolio_file, tmp_path):
    out = tmp_path / "mc"
    assert run(["mc", "--portfolio", portfolio_file, "--max-loss", 200,
                "--draws", 50_000, "--seed", 42, "--out", out]) == 0
    doc = json.loads((out / "mc_result.json").read_text())
    x, counts = np.loadtxt(out / "mc_losses.csv", delimiter=",", skiprows=1, unpack=True)
    mean = float(np.dot(x, counts)) / 50_000
    assert doc["loss_mean"] == pytest.approx(mean, rel=1e-12)
    sd = math.sqrt(float(np.dot((x - mean) ** 2, counts)) / (50_000 - 1))
    assert doc["loss_mean_se"] == pytest.approx(sd / math.sqrt(50_000), rel=1e-12)
    assert abs(doc["loss_mean"] - make_reference_portfolio().expected_loss()) < 4 * doc["loss_mean_se"]

    out = tmp_path / "cmp"
    assert run(["compare", "--portfolio", portfolio_file, "--max-loss", 200,
                "--obligor", "A", "--draws", 100_000, "--seed", 7, "--out", out]) == 0
    doc = json.loads((out / "compare_A.json").read_text())
    cols = np.loadtxt(out / "compare_A.csv", delimiter=",", skiprows=1)
    se = cols[:, 3]
    dev = np.abs(cols[:, 2] - cols[:, 1])[se > 0] / se[se > 0]
    assert doc["max_abs_deviation_se"] == pytest.approx(dev.max(), rel=1e-12)
    assert 0 < doc["max_abs_deviation_se"] < 10


# Repeated calls in one process reuse the last prepared portfolio text.

def _files(out):
    """Every file under ``out`` by relative path, as bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _cold(argv, out):
    """``argv`` run with nothing remembered, and the files it wrote."""
    cli._last = None
    mc._kept = None
    assert run(argv + ["--out", out]) == 0
    return _files(out)


def _seeded_basket(path, seed=11, n=30, n_sectors=3):
    """A random book of ``n`` obligors on ``n_sectors`` sectors, written to ``path``."""
    rng = np.random.default_rng(seed)
    sectors = tuple(Sector(f"s{k}", a) for k, a in enumerate(rng.uniform(1.0, 4.0, n_sectors), 1))
    obligors = []
    for i in range(n):
        w = np.zeros(n_sectors + 1)
        w[0] = rng.uniform(0.2, 0.8)
        loaded = rng.choice(n_sectors, size=1 + i % 2, replace=False) + 1
        w[loaded] = rng.dirichlet(np.ones(loaded.size)) * (1.0 - w[0])
        losses = rng.choice(np.arange(1, 9), size=1 + i % 3, replace=False)
        sev = SeverityDist(dict(zip(losses.tolist(), rng.dirichlet(np.ones(losses.size)))))
        obligors.append(Obligor(f"b{i}", rng.uniform(0.02, 0.2), w, sev))
    path.write_text(serialize_portfolio(Portfolio(sectors, tuple(obligors))))
    return path


def _command_argvs(path, max_loss, a, b):
    common = ["--portfolio", path, "--max-loss", max_loss]
    mc_flags = ["--draws", 3000, "--seed", 5]
    return {
        "dist": ["dist", *common, "--theta", 0.9, "--theta", 0.999],
        "cond": ["cond", *common, "--obligor", a],
        "cond_pair": ["cond", *common, "--obligor", a, "--obligor", b],
        "writeoff": ["cond", *common, "--obligor", a, "--writeoff"],
        "writeoff_pair": ["cond", *common, "--obligor", b, "--obligor", a, "--writeoff"],
        "mc": ["mc", *common, *mc_flags],
        "compare": ["compare", *common, "--obligor", b, *mc_flags],
    }


@pytest.mark.parametrize("book, max_loss, a, b", [
    ("reference", 200, "A", "C"),
    ("reference", 600, "E", "B"),  # the Fourier path: grid and spectra kept between calls
    ("basket", "auto", "b3", "b17"),
])
def test_warm_calls_write_the_cold_files(tmp_path, book, max_loss, a, b):
    if book == "reference":
        path = tmp_path / "p.json"
        path.write_text(serialize_portfolio(make_reference_portfolio()))
    else:
        path = _seeded_basket(tmp_path / "p.json")
    argvs = _command_argvs(path, max_loss, a, b)
    cold = {name: _cold(argv, tmp_path / "cold" / name) for name, argv in argvs.items()}
    cli._last = None
    for rnd in ("warm1", "warm2"):  # in sequence on one record, then again fully warm
        for name, argv in argvs.items():
            out = tmp_path / rnd / name
            assert run(argv + ["--out", out]) == 0
            assert _files(out) == cold[name], (rnd, name)
    assert cli._last.digest == json.loads(
        (tmp_path / "cold" / "dist" / "report.json").read_text())["metadata"]["portfolio_sha256"]


def _mc_and_compare(path, seed):
    common = ["--portfolio", path, "--max-loss", 200, "--draws", 20_000, "--seed", seed]
    return ["mc", *common], ["compare", *common, "--obligor", "B"]


def test_compare_after_mc_reads_its_sample(portfolio_file, tmp_path, sampling_passes):
    mc_argv, compare_argv = _mc_and_compare(portfolio_file, 91)
    cold = _cold(compare_argv, tmp_path / "cold")
    cli._last, mc._kept = None, None
    sampling_passes.clear()
    assert run(mc_argv + ["--out", tmp_path / "mc"]) == 0
    assert run(compare_argv + ["--out", tmp_path / "warm"]) == 0
    assert len(sampling_passes) == 1
    assert _files(tmp_path / "warm") == cold
    # Another seed is another sample, drawn afresh.
    _, other_argv = _mc_and_compare(portfolio_file, 92)
    assert run(other_argv + ["--out", tmp_path / "other"]) == 0
    assert len(sampling_passes) == 2
    assert _files(tmp_path / "other") == _cold(other_argv, tmp_path / "other_cold")


def test_mc_after_compare_writes_the_cold_files(portfolio_file, tmp_path, sampling_passes):
    mc_argv, compare_argv = _mc_and_compare(portfolio_file, 93)
    cold = _cold(mc_argv, tmp_path / "cold")
    cli._last, mc._kept = None, None
    sampling_passes.clear()
    assert run(compare_argv + ["--out", tmp_path / "compare"]) == 0
    assert run(mc_argv + ["--out", tmp_path / "warm"]) == 0
    assert len(sampling_passes) == 1
    assert _files(tmp_path / "warm") == cold


def test_second_cond_reuses_the_base(portfolio_file, tmp_path, panjer_passes):
    argv = ["cond", "--portfolio", portfolio_file, "--max-loss", 200, "--out", tmp_path / "o"]
    assert run(argv + ["--obligor", "A"]) == 0
    assert len(panjer_passes) == 1
    assert run(argv + ["--obligor", "C", "--obligor", "E"]) == 0
    assert len(panjer_passes) == 1  # no pass: the base and its kernels are remembered
    assert run(argv + ["--obligor", "A", "--writeoff"]) == 0
    assert len(panjer_passes) == 2  # the write-off engine's changed sectors only


def test_parse_runs_once_per_text(portfolio_file, tmp_path, monkeypatch):
    texts = []
    parse = cli.pf.parse_portfolio
    monkeypatch.setattr(cli.pf, "parse_portfolio", lambda text: texts.append(text) or parse(text))
    argv = ["--portfolio", portfolio_file, "--max-loss", 200, "--out", tmp_path / "o"]
    assert run(["dist", *argv]) == 0
    assert run(["cond", *argv, "--obligor", "B"]) == 0
    assert run(["mc", *argv, "--draws", 100]) == 0
    assert len(texts) == 1
    portfolio_file.write_text(portfolio_file.read_text() + "\n")  # same book, new text
    assert run(["dist", *argv]) == 0
    assert len(texts) == 2


def test_auto_limit_runs_once_per_text(portfolio_file, tmp_path, monkeypatch):
    books = []
    suggest = eng.suggest_truncation
    monkeypatch.setattr(cli.eng, "suggest_truncation", lambda p: books.append(p) or suggest(p))
    argv = ["cond", "--portfolio", portfolio_file, "--max-loss", "auto", "--tail-tol", 1e-5,
            "--out", tmp_path / "o"]
    assert run(argv + ["--obligor", "A"]) == 0
    assert run(argv + ["--obligor", "B", "--writeoff"]) == 0
    assert len(books) == 1
    portfolio_file.write_text(portfolio_file.read_text() + "\n")  # same book, new text
    assert run(argv + ["--obligor", "A"]) == 0
    assert len(books) == 2 and books[1] is not books[0]


def test_rewritten_file_is_read_afresh(portfolio_file, tmp_path):
    argv = ["cond", "--portfolio", portfolio_file, "--max-loss", 200, "--obligor", "A"]
    assert run(argv + ["--out", tmp_path / "old"]) == 0
    doc = json.loads(portfolio_file.read_text())
    doc["obligors"][1]["pd"] = 0.45
    portfolio_file.write_text(json.dumps(doc))
    assert run(argv + ["--out", tmp_path / "new"]) == 0
    new = _files(tmp_path / "new")
    assert new == _cold(argv, tmp_path / "cold")
    old = _files(tmp_path / "old")
    assert new["conditional_A.csv"] != old["conditional_A.csv"]
    # B's pd moves the unconditional risk as well as A's conditional.
    new_doc, old_doc = (json.loads(files["scenario_A.json"]) for files in (new, old))
    assert new_doc["base_risk"] != old_doc["base_risk"]
    assert new_doc["risk"] != old_doc["risk"]


def test_failures_are_not_remembered(portfolio_file, tmp_path, capsys):
    argv = ["dist", "--portfolio", portfolio_file, "--out", tmp_path / "o"]
    for _ in range(2):
        assert run(argv + ["--max-loss", 3]) == 3
        assert "tail tolerance 1e-09 not met at L=3" in capsys.readouterr().err
    assert run(argv + ["--max-loss", 200]) == 0
    assert _files(tmp_path / "o") == _cold(argv + ["--max-loss", 200], tmp_path / "cold")
    assert run(argv + ["--max-loss", 3]) == 3


@pytest.mark.parametrize("first, then", [
    (["--max-loss", 200], ["--max-loss", 150]),
    (["--max-loss", 150], ["--max-loss", "auto", "--tail-tol", 1e-5]),
    (["--max-loss", 80, "--tail-tol", 1e-5], ["--max-loss", 80, "--tail-tol", 1e-6]),
])
@pytest.mark.parametrize("command", [["dist"], ["cond", "--obligor", "E"]])
def test_other_limit_or_tolerance_gives_the_cold_result(portfolio_file, tmp_path, command,
                                                        first, then):
    argv = [*command, "--portfolio", portfolio_file]
    assert run(argv + first + ["--out", tmp_path / "first"]) == 0
    assert run(argv + then + ["--out", tmp_path / "then"]) == 0
    assert _files(tmp_path / "then") == _cold(argv + then, tmp_path / "cold")


def test_stricter_tolerance_at_the_same_limit_still_fails(portfolio_file, tmp_path, capsys):
    # At L = 60 the base's tail is 3.5e-8: within 1e-6, beyond 1e-9.
    argv = ["dist", "--portfolio", portfolio_file, "--max-loss", 60, "--out", tmp_path / "o"]
    assert run(argv + ["--tail-tol", 1e-6]) == 0
    assert run(argv + ["--tail-tol", 1e-9]) == 3
    assert "achieved tail mass 3.534e-08" in capsys.readouterr().err
    assert run(argv + ["--tail-tol", 1e-6]) == 0
