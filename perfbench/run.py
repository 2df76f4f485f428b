#!/usr/bin/env python3
"""crplus benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload desk|sweep|scale --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``crplus`` is imported from ``src/``.
A run repeats whole rounds of its workload and stops at the round boundary
nearest to ``--seconds`` after its start; it reports the median over rounds
of each phase. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` untraced and traced
rounds alternate and the metrics are the per-layer ones from the traced
rounds (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: on a 2-core machine a second thread inside np.convolve
# competes with everything else on the host and makes timings jump.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PHASES = ("setup_s", "cond_s", "writeoff_s", "mc_s")


def import_crplus():
    """Import crplus from this checkout's src/, or exit with an error."""
    if not (SRC / "crplus" / "__init__.py").is_file():
        sys.exit(f"error: no crplus package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import crplus
    from crplus import cli, conditional, engine, mc, pmf, portfolio
    if Path(crplus.__file__).resolve().parent != (SRC / "crplus").resolve():
        sys.exit(f"error: imported crplus from {crplus.__file__}, not from {SRC}")
    return {"portfolio": portfolio, "pmf": pmf, "engine": engine,
            "conditional": conditional, "mc": mc, "cli": cli}


class Round:
    """Phase timers and operation tallies of one round."""

    def __init__(self):
        self.times = dict.fromkeys(PHASES, 0.0)
        self.attempted = 0
        self.errors = []  # (operation, message)

    @contextlib.contextmanager
    def phase(self, name):
        gc.collect()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] += time.perf_counter() - start

    def record(self, op, errors):
        self.attempted += 1
        self.errors.extend((op, e) for e in errors)

    @property
    def failed(self):
        return len({op for op, _ in self.errors})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "sweep", "scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mods = import_crplus()
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import PER_LAYER, Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](mods, args.seed, workdir)
        workload.warm_up()
        tracer = Tracer(mods) if args.trace else None
        rounds, traced, layer_rows = [], [], []
        start = time.perf_counter()
        while True:
            trace_this = tracer is not None and (len(rounds) + len(traced)) % 2 == 1
            if trace_this:
                tracer.reset(len(rounds) + len(traced) + 1)
                tracer.install()
            rnd = Round()
            try:
                workload.run_round(rnd)
            finally:
                if trace_this:
                    tracer.uninstall()
            (traced if trace_this else rounds).append((rnd, sum(rnd.times.values())))
            print(f"round {len(rounds) + len(traced)}{' traced' if trace_this else ''}: "
                  + " ".join(f"{k}={v:.4f}" for k, v in rnd.times.items()), file=sys.stderr)
            if trace_this:
                layer_rows.append(tracer.round_metrics())
            # Stop at the round boundary nearest to --seconds: the run
            # measures about --seconds, never a whole round more.
            elapsed = time.perf_counter() - start
            typical = statistics.median(total for _, total in rounds + traced)
            enough = len(rounds) >= 1 and (tracer is None or len(traced) >= 1)
            if enough and elapsed + typical / 2 >= args.seconds:
                break
        all_rounds = [r for r, _ in rounds + traced]
        attempted = sum(r.attempted for r in all_rounds)
        failed = sum(r.failed for r in all_rounds)
        for r in all_rounds:
            for op, msg in r.errors[:20]:
                print(f"check failed: {op}: {msg}", file=sys.stderr)

        if tracer is None:
            metrics = {name: {"value": statistics.median(r.times[name] for r, _ in rounds),
                              "unit": "s"}
                       for name in PHASES}
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"}
        else:
            metrics = {name: {"value": statistics.median(row[name] for row in layer_rows),
                              "unit": unit}
                       for name, unit in PER_LAYER}
            overhead = (statistics.median(s for _, s in traced)
                        / statistics.median(s for _, s in rounds) - 1.0) * 100.0
            metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            counts = [name for name, unit in PER_LAYER if unit == "count"]
            for row in layer_rows[1:]:
                diff = {k: (layer_rows[0][k], row[k]) for k in counts
                        if row[k] != layer_rows[0][k]}
                if diff:
                    print(f"warning: per-layer counts differ between traced rounds: {diff}",
                          file=sys.stderr)
        print(f"{args.workload}: {len(all_rounds)} rounds, {attempted} operations, "
              f"{failed} failed", file=sys.stderr)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
