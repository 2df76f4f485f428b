"""The three workloads: desk (CLI, small books), sweep (many scenarios on one
engine) and scale (the criterion-12 book at a large truncation).

Each workload makes its inputs from the seed once, then ``run_round`` times
the four phases of one round (setup, conditionals, write-offs, Monte Carlo)
and checks every output afterwards, outside the timed phases.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import numpy as np

import checks
import inputs
from checks import Book

THETAS = (0.95, 0.99)
TAIL_TOL = 1e-9  # the CLI default

# desk: (obligors, sectors, truncation target, pairs) of each seeded basket.
DESK_BASKETS = [(24, 2, 120, 3), (32, 3, 140, 3), (40, 3, 160, 3)]
DESK_REFERENCE_LIMIT = 200
DESK_MC_DRAWS = {"reference": 100_000, "basket": 20_000}

# sweep: one book, one engine.
SWEEP_BOOK = dict(n_obligors=800, n_sectors=16, loads=[1, 2, 3], severity_points=[1, 1, 2, 3],
                  max_severity=40, pd_range=(0.002, 0.03), target_limit=1600)
SWEEP_SINGLES = 60
SWEEP_PAIRS = 24
SWEEP_WRITEOFF_SINGLES = 3
SWEEP_WRITEOFF_PAIRS = 3
SWEEP_MC_DRAWS = 6_000

# scale: the criterion-12 recipe at a truncation far above the heuristic.
SCALE_LIMIT = 8_000
SCALE_MC_DRAWS = 10_000


def _read_pmf_csv(path):
    lines = path.read_text().splitlines()
    key, _, val = lines[-1].lstrip("# ").partition("=")
    if key != "tail_mass":
        raise ValueError(f"{path.name}: no tail_mass line")
    rows = [line.split(",") for line in lines[1:-1]]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path.name}: loss column is not 0..L")
    return np.array([float(r[1]) for r in rows]), float(val)


def _read_columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: data[:, j] for j, name in enumerate(header)}


def _mc_obligor(book):
    """The obligor with the largest pd: the most weighted hits per draw."""
    return book.ids[int(np.argmax(book.pd))]


class Desk:
    """The reference portfolio and seeded baskets driven through the CLI."""

    def __init__(self, mods, seed, workdir):
        self.cli = mods["cli"]
        self.workdir = workdir
        rng = np.random.default_rng([seed, 1])
        self.mc_seed = int(rng.integers(1, 2**31))
        docs = [("ref", inputs.reference_portfolio(), str(DESK_REFERENCE_LIMIT), 2,
                 DESK_MC_DRAWS["reference"])]
        for i, (n, n_sec, limit, n_pairs) in enumerate(DESK_BASKETS):
            doc = inputs.random_book(rng, n, n_sec, loads=[1, 2, 3], severity_points=[1, 2, 3],
                                     max_severity=8, pd_range=(0.02, 0.2),
                                     alpha_range=(2.0, 5.0), idio_range=(0.5, 0.9),
                                     target_limit=limit, prefix=f"b{i}_")
            docs.append((f"basket{i}", doc, "auto", n_pairs, DESK_MC_DRAWS["basket"]))
        self.books = []
        for name, doc, max_loss, n_pairs, draws in docs:
            path = workdir / f"{name}.json"
            path.write_text(inputs.dumps(doc))
            book = Book(doc)
            picks = rng.choice(len(book.ids), size=(n_pairs, 2), replace=False)
            pairs = [(book.ids[a], book.ids[b]) for a, b in picks]
            self.books.append(dict(name=name, book=book, path=str(path), max_loss=max_loss,
                                   pairs=pairs, draws=draws, mc_obligor=_mc_obligor(book)))
        self.calls = self._plan()

    def _plan(self):
        """(phase, kind, book, obligor ids, writeoff, argv without --out) of one round."""
        calls = []
        for b in self.books:
            common = ["--portfolio", b["path"], "--max-loss", b["max_loss"]]
            calls.append(("setup_s", "dist", b, (), False, ["dist", *common]))
        for phase, writeoff in (("cond_s", False), ("writeoff_s", True)):
            flag = ["--writeoff"] if writeoff else []
            for b in self.books:
                common = ["--portfolio", b["path"], "--max-loss", b["max_loss"]]
                for ids in [(oid,) for oid in b["book"].ids] + b["pairs"]:
                    argv = ["cond", *common, *[a for oid in ids for a in ("--obligor", oid)],
                            *flag]
                    calls.append((phase, "cond", b, ids, writeoff, argv))
        for b in self.books:
            common = ["--portfolio", b["path"], "--max-loss", b["max_loss"],
                      "--draws", str(b["draws"]), "--seed", str(self.mc_seed)]
            calls.append(("mc_s", "mc", b, (), False, ["mc", *common]))
            calls.append(("mc_s", "compare", b, (b["mc_obligor"],), False,
                          ["compare", *common, "--obligor", b["mc_obligor"]]))
        return calls

    def warm_up(self):
        b = self.books[0]
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(["dist", "--portfolio", b["path"], "--max-loss", b["max_loss"],
                           "--out", str(self.workdir / "warm-up")])

    def run_round(self, rnd):
        round_dir = self.workdir / "round"
        codes = []
        for phase, group in itertools.groupby(self.calls, key=lambda call: call[0]):
            argvs = [[*call[5], "--out", str(round_dir / str(len(codes) + j))]
                     for j, call in enumerate(group)]
            with rnd.phase(phase), contextlib.redirect_stdout(io.StringIO()):
                codes.extend(self.cli.main(argv) for argv in argvs)
        base_q = {}
        for i, (phase, kind, b, ids, writeoff, argv) in enumerate(self.calls):
            op = f"{i}:{' '.join(argv[:1] + list(ids))}{' --writeoff' if writeoff else ''}"
            if codes[i] != 0:
                rnd.record(op, [f"exit code {codes[i]}"])
                continue
            try:
                errors = self._check(kind, b, ids, writeoff, round_dir / str(i), base_q)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"unreadable output: {exc!r}"]
            rnd.record(op, errors)
        shutil.rmtree(round_dir, ignore_errors=True)

    def _check(self, kind, b, ids, writeoff, out, base_q):
        book = b["book"]
        if kind == "dist":
            probs, tail = _read_pmf_csv(out / "pmf.csv")
            report = json.loads((out / "report.json").read_text())
            base_q[b["name"]] = report["risk"]["quantiles"]
            return checks.check_base(probs, tail, book, TAIL_TOL)
        if kind == "cond":
            tag = "_".join(ids) + ("_writeoff" if writeoff else "")
            probs, tail = _read_pmf_csv(out / f"conditional_{tag}.csv")
            doc = json.loads((out / f"scenario_{tag}.json").read_text())
            return checks.check_conditional(probs, tail, book, list(ids), writeoff, 1.0,
                                            doc["risk"]["quantiles"], base_q[b["name"]])
        if kind == "mc":
            counts = _read_columns(out / "mc_losses.csv")["count"]
            return checks.check_mc_mean(counts, book, b["draws"])
        (oid,) = ids
        cols = _read_columns(out / f"compare_{oid}.csv")
        analytic = cols["analytic"]
        errors = checks.check_conditional(analytic, max(1.0 - analytic.sum(), 0.0), book,
                                          [oid], False, 1.0)
        return errors + checks.check_mc_conditional(
            analytic, cols["mc_weighted"], cols["mc_weighted_se"], b["draws"],
            book.pd[book.pos[oid]])


class _Library:
    """What the library workloads (sweep, scale) share."""

    limit = None  # None: the truncation heuristic

    def __init__(self, mods, seed, workdir):
        self.m = mods
        self.seed = seed
        self.doc = self.make_doc(np.random.default_rng([seed, self.stream]))
        self.text = inputs.dumps(self.doc)
        self.book = Book(self.doc)
        self.plan()

    def warm_up(self):
        m = self.m
        port = m["portfolio"].parse_portfolio(inputs.dumps(inputs.reference_portfolio()))
        engine = m["engine"].LossEngine(m["engine"].assemble(port, 60))
        m["conditional"].loss_given_two_defaults(engine, port, "A", "B")
        m["mc"].simulate(port, m["mc"].SimConfig(draws=1000, seed=1))

    def run_round(self, rnd):
        m = self.m
        eng, cd, mc = m["engine"], m["conditional"], m["mc"]
        results = {}
        with rnd.phase("setup_s"):
            port = m["portfolio"].parse_portfolio(self.text)
            limit = self.limit if self.limit is not None else eng.suggest_truncation(port)
            engine = eng.LossEngine(eng.assemble(port, limit), tail_tol=None)
            base = engine.loss_distribution()
            base_risk = eng.risk_report(base, THETAS)
        for phase, writeoff, scenarios in (("cond_s", False, self.cond),
                                           ("writeoff_s", True, self.writeoffs)):
            with rnd.phase(phase):
                for ids in scenarios:
                    try:
                        if len(ids) == 1:
                            rep = cd.loss_given_one_default(engine, port, ids[0],
                                                            writeoff=writeoff, thetas=THETAS)
                        else:
                            rep = cd.loss_given_two_defaults(engine, port, *ids,
                                                             writeoff=writeoff, thetas=THETAS)
                    except (ValueError, ArithmeticError) as exc:
                        rep = exc
                    results[(ids, writeoff)] = rep
        cfg = mc.SimConfig(draws=self.draws, seed=self.mc_seed)
        with rnd.phase("mc_s"):
            sim = mc.simulate(port, cfg)
            est = mc.estimate_conditional_one_default(port, self.mc_obligor, cfg, limit)

        rnd.record("base", checks.check_base(base.probs, base.tail_mass, self.book, TAIL_TOL)
                   + _check_risk(base_risk, base))
        for (ids, writeoff), rep in results.items():
            op = f"{'writeoff' if writeoff else 'cond'} {','.join(ids)}"
            if isinstance(rep, Exception):
                rnd.record(op, [repr(rep)])
                continue
            p = rep.conditional_pmf
            rnd.record(op, checks.check_conditional(
                p.probs, p.tail_mass, self.book, list(ids), writeoff, 1.0,
                {t: rep.risk["quantiles"][str(t)] for t in THETAS},
                {t: base_risk["quantiles"][str(t)] for t in THETAS}))
        rnd.record("mc simulate", checks.check_mc_mean(sim.loss_counts, self.book, self.draws))
        analytic = results[((self.mc_obligor,), False)]
        if isinstance(analytic, Exception):
            rnd.record("mc estimate", ["no analytic conditional to compare with"])
            return
        rnd.record("mc estimate", checks.check_mc_conditional(
            analytic.conditional_pmf.probs, est.weighted, est.weighted_se, self.draws,
            self.book.pd[self.book.pos[self.mc_obligor]]))


def _check_risk(risk, pmf):
    """The reported mean and tail mass are the pmf's own."""
    x = np.arange(pmf.probs.size)
    mean = float(np.dot(x, pmf.probs))
    errors = []
    if abs(risk["mean"] - mean) > 1e-12 * max(mean, 1.0):
        errors.append(f"risk report mean {risk['mean']!r} != pmf mean {mean!r}")
    if risk["tail_mass"] != pmf.tail_mass:
        errors.append("risk report tail mass differs from the pmf's")
    return errors


class Sweep(_Library):
    """Hundreds of scenarios on one engine of a mid-size book."""

    stream = 2
    draws = SWEEP_MC_DRAWS

    def make_doc(self, rng):
        self.mc_seed = int(rng.integers(1, 2**31))
        return inputs.random_book(rng, **SWEEP_BOOK)

    def plan(self):
        ids = self.book.ids
        singles = [(oid,) for oid in ids[:SWEEP_SINGLES]]
        pair_ids = ids[SWEEP_SINGLES:SWEEP_SINGLES + 2 * SWEEP_PAIRS]
        pairs = list(zip(pair_ids[0::2], pair_ids[1::2]))
        # The MC obligor is the largest pd among the singles, so its analytic
        # conditional is at hand and every seed runs the same operations.
        self.mc_obligor = max(ids[:SWEEP_SINGLES], key=lambda oid: self.book.pd[self.book.pos[oid]])
        self.cond = singles + pairs
        self.writeoffs = singles[:SWEEP_WRITEOFF_SINGLES] + pairs[:SWEEP_WRITEOFF_PAIRS]


class Scale(_Library):
    """The criterion-12 book far above the truncation heuristic."""

    stream = 3
    draws = SCALE_MC_DRAWS
    limit = SCALE_LIMIT

    def make_doc(self, rng):
        self.mc_seed = int(rng.integers(1, 2**31))
        return inputs.criterion12_book(rng)

    def plan(self):
        # One cold two-default scenario on two obligors with disjoint sectors
        # (s2, s5 and s7, s9: 9 mixture components), then the single default
        # of the first one, which the Monte Carlo estimator is checked
        # against. Fixed sectors keep the convolution count the same for
        # every seed; within them the largest pd gives the most MC hits.
        book = self.book
        loaded = book.w[:, 1:] > 0

        def pick(sectors):
            want = np.zeros(loaded.shape[1], dtype=bool)
            want[[k - 1 for k in sectors]] = True
            rows = np.flatnonzero((loaded == want).all(axis=1))
            return book.ids[rows[np.argmax(book.pd[rows])]]

        a, b = pick((2, 5)), pick((7, 9))
        self.mc_obligor = a
        self.cond = [(a, b), (a,)]
        self.writeoffs = [(a,)]


WORKLOADS = {"desk": Desk, "sweep": Sweep, "scale": Scale}
