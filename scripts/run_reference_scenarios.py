#!/usr/bin/env python3
"""End-to-end demo on the 5-obligor reference portfolio.

Writes the portfolio file, then runs the four CLI commands into out/:
unconditional distribution, one- and two-default scenarios (plus the
write-off variants), a Monte Carlo run, and the three-way comparison.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from conftest import make_reference_portfolio  # noqa: E402

from crplus.cli import main  # noqa: E402
from crplus.portfolio import serialize_portfolio  # noqa: E402


def run(args):
    code = main(args)
    if code != 0:
        raise SystemExit(code)


def main_script(out_dir="out"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    portfolio_path = out / "reference_portfolio.json"
    portfolio_path.write_text(serialize_portfolio(make_reference_portfolio()))
    common = ["--portfolio", str(portfolio_path), "--max-loss", "200"]

    run(["dist", *common, "--theta", "0.95", "--theta", "0.99", "--out", str(out / "dist")])
    run(["cond", *common, "--obligor", "A", "--out", str(out / "cond_A")])
    run(["cond", *common, "--obligor", "A", "--writeoff", "--out", str(out / "cond_A_writeoff")])
    run(["cond", *common, "--obligor", "A", "--obligor", "C", "--out", str(out / "cond_A_C")])
    run(["mc", *common, "--draws", "1000000", "--seed", "42", "--out", str(out / "mc")])
    run(["compare", *common, "--obligor", "A", "--draws", "1000000", "--seed", "42",
         "--out", str(out / "compare_A")])
    print(f"all outputs under {out}/")


if __name__ == "__main__":
    main_script(sys.argv[1] if len(sys.argv) > 1 else "out")
