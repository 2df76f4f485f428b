#!/usr/bin/env python3
"""Steadiness check: run each workload with several seeds, one process at a time.

    python3 perfbench/steady.py [--workloads desk,sweep,scale] [--runs 10] [--first-seed 1]

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, that is
the inter-quartile distance as a share of the median, next to the bound in
BENCHMARK.json. A spread below a third of the bound is steady enough. The
raw results go to perfbench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            res, wall = run_once(workload, args.first_seed + i, spec["run_seconds"])
            results.append(res)
            print(f"{workload} seed {args.first_seed + i}: attempted {res['attempted']} "
                  f"failed {res['failed']} correct {res['correct']} in {wall:.1f} s",
                  file=sys.stderr)
        (HERE / "out" / f"steady-{workload}.json").write_text(json.dumps(results, indent=1))
        print(f"\n{workload}: {args.runs} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in results})}")
        print(f"{'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{name:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bounds[name]:>6}{flag}")


if __name__ == "__main__":
    main()
