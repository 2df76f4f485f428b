"""Command-line front end: dist, cond, mc and compare.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure
(truncated support cannot honor the requested tail tolerance; a Panjer
start value underflows, which can happen only below ``pmf.FFT_MIN_SIZE``
points, where sector pmfs come from the recursion; or a sector's Fourier
grid would need more than ``pmf.MAX_GRID`` points).
Every JSON output carries a metadata block (tool version, input digest,
config echo) so runs can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, conditional, engine as eng, mc, pmf as pm, portfolio as pf
from .pmf import AliasingError, TruncationError, UnderflowError
from .portfolio import PortfolioError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TOLERANCE = 3


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _add_common(parser):
    parser.add_argument("--portfolio", required=True, help="portfolio JSON file")
    parser.add_argument("--max-loss", default="auto",
                        help="truncation limit L, or 'auto' for the moment heuristic")
    parser.add_argument("--tail-tol", type=float, default=1e-9,
                        help="maximum admissible truncated tail mass")
    parser.add_argument("--theta", action="append", type=float, default=None,
                        help="quantile level(s) for the risk report (repeatable)")
    parser.add_argument("--out", default=".", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crplus",
        description="Credit portfolio loss distributions, conditional on defaults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="unconditional loss distribution and risk report")
    _add_common(p)

    p = sub.add_parser("cond", help="loss distribution conditional on 1 or 2 defaults")
    _add_common(p)
    p.add_argument("--obligor", action="append", required=True,
                   help="obligor id (repeat for a two-default scenario)")
    p.add_argument("--writeoff", action="store_true",
                   help="zero the defaulted severities (write-off variant)")

    p = sub.add_parser("mc", help="Monte Carlo simulation of the loss distribution")
    _add_common(p)
    p.add_argument("--draws", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("compare", help="analytic vs MC vs stressed-input conditionals")
    _add_common(p)
    p.add_argument("--obligor", action="append", required=True)
    p.add_argument("--draws", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    return parser


def _load(args):
    path = Path(args.portfolio)
    if not path.is_file():
        raise CliError(f"portfolio file not found: {path}", EXIT_INPUT)
    text = path.read_text()
    try:
        port = pf.parse_portfolio(text)
    except PortfolioError as exc:
        raise CliError(str(exc), EXIT_INPUT) from exc
    digest = hashlib.sha256(text.encode()).hexdigest()
    return port, digest


def _resolve_limit(args, port):
    if args.max_loss == "auto":
        return eng.suggest_truncation(port)
    try:
        limit = int(args.max_loss)
    except ValueError:
        raise CliError(f"--max-loss must be an integer or 'auto', got {args.max_loss!r}",
                       EXIT_INPUT) from None
    if limit < 0:
        raise CliError("--max-loss must be non-negative", EXIT_INPUT)
    return limit


def _thetas(args):
    thetas = args.theta if args.theta else [0.95, 0.99]
    if not (0 < args.tail_tol < 1):
        raise CliError(f"--tail-tol must lie in (0, 1), got {args.tail_tol}", EXIT_INPUT)
    for t in thetas:
        if not 0 < t < 1:
            raise CliError(f"--theta must lie in (0, 1), got {t}", EXIT_INPUT)
    return thetas


def _metadata(args, digest):
    # Filesystem locations are excluded so equal runs into different
    # directories stay byte-identical; the digest pins the input content.
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "out", "portfolio")}
    return {"tool": "crplus", "version": __version__,
            "portfolio_sha256": digest, "config": echo}


def _engine_for(args, port):
    limit = _resolve_limit(args, port)
    system = eng.assemble(port, limit)
    engine = eng.LossEngine(system, tail_tol=args.tail_tol)
    try:
        base = engine.loss_distribution()
    except TruncationError as exc:
        raise CliError(
            f"tail tolerance {args.tail_tol:g} not met at L={limit}: "
            f"achieved tail mass {exc.tail_mass:.3e}", EXIT_TOLERANCE) from exc
    return engine, base


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_dist(args):
    port, digest = _load(args)
    thetas = _thetas(args)
    engine, base = _engine_for(args, port)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "pmf.csv").write_text(pm.to_csv(base))
    report = {"metadata": _metadata(args, digest),
              "risk": eng.risk_report(base, thetas),
              "pmf_csv": "pmf.csv"}
    _write_json(out / "report.json", report)
    print(f"wrote {out / 'pmf.csv'} and {out / 'report.json'}")
    return EXIT_OK


def _scenario_obligors(args, port, expected=None):
    ids = args.obligor
    if expected is not None and len(ids) != expected:
        raise CliError(f"expected {expected} --obligor flag(s), got {len(ids)}", EXIT_INPUT)
    if len(ids) not in (1, 2):
        raise CliError(f"expected 1 or 2 --obligor flags, got {len(ids)}", EXIT_INPUT)
    if len(ids) == 2 and ids[0] == ids[1]:
        raise CliError(f"scenario obligors must differ, got {ids[0]!r} twice", EXIT_INPUT)
    for oid in ids:
        try:
            port.obligor(oid)
        except PortfolioError as exc:
            raise CliError(str(exc), EXIT_INPUT) from exc
    return ids


def cmd_cond(args):
    port, digest = _load(args)
    thetas = _thetas(args)
    ids = _scenario_obligors(args, port)
    engine, base = _engine_for(args, port)
    if len(ids) == 1:
        report = conditional.loss_given_one_default(
            engine, port, ids[0], writeoff=args.writeoff, thetas=thetas)
    else:
        report = conditional.loss_given_two_defaults(
            engine, port, ids[0], ids[1], writeoff=args.writeoff, thetas=thetas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tag = "_".join(ids) + ("_writeoff" if args.writeoff else "")
    pmf_name = f"conditional_{tag}.csv"
    (out / pmf_name).write_text(pm.to_csv(report.conditional_pmf))
    doc = report.to_json_dict(pmf_csv_path=pmf_name)
    doc["metadata"] = _metadata(args, digest)
    _write_json(out / f"scenario_{tag}.json", doc)
    # Unconditional distribution alongside, for side-by-side comparison.
    (out / "pmf.csv").write_text(pm.to_csv(base))
    _write_json(out / "report.json",
                {"metadata": _metadata(args, digest),
                 "risk": eng.risk_report(base, thetas), "pmf_csv": "pmf.csv"})
    print(f"wrote {out / ('scenario_' + tag + '.json')}")
    return EXIT_OK


def cmd_mc(args):
    port, digest = _load(args)
    _thetas(args)
    if args.draws < 1:
        raise CliError("--draws must be >= 1", EXIT_INPUT)
    result = mc.simulate(port, mc.SimConfig(draws=args.draws, seed=args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "mc_losses.csv").write_text(result.to_csv())
    doc = result.sidecar()
    doc["metadata"] = _metadata(args, digest)
    _write_json(out / "mc_result.json", doc)
    print(f"wrote {out / 'mc_losses.csv'} and {out / 'mc_result.json'}")
    return EXIT_OK


def _stressed_input_pmf(engine, port, obligor_id):
    """Biased comparison model: re-run with conditional PDs for the others.

    The scenario obligor is removed, every other obligor gets its PD
    conditional on the scenario default, and the result is shifted by the
    scenario obligor's severity (the occurred-loss socket).
    """
    system = engine.system
    obligors = []
    for o in port.obligors:
        if o.id == obligor_id:
            continue
        obligors.append(pf.Obligor(o.id, conditional.stressed_pd(port, system, o.id, obligor_id),
                                   o.weights, o.severity))
    stressed = pf.Portfolio(port.sectors, tuple(obligors))
    stressed_engine = eng.LossEngine(eng.assemble(stressed, system.limit))
    base = stressed_engine.loss_distribution()
    sev = pm.from_dict(port.obligor(obligor_id).severity.probabilities, system.limit)
    return pm.convolve(base, sev)


def cmd_compare(args):
    port, digest = _load(args)
    thetas = _thetas(args)
    ids = _scenario_obligors(args, port, expected=1)
    oid = ids[0]
    if port.obligor(oid).pd == 0.0:
        raise CliError(f"obligor {oid}: pd is 0, cannot condition on its default", EXIT_INPUT)
    engine, _ = _engine_for(args, port)
    limit = engine.system.limit

    analytic = conditional.loss_given_one_default(engine, port, oid, thetas=thetas)
    estimate = mc.estimate_conditional_one_default(
        port, oid, mc.SimConfig(draws=args.draws, seed=args.seed), limit)
    stressed = _stressed_input_pmf(engine, port, oid)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["x,analytic,mc_weighted,mc_weighted_se,stressed_inputs"]
    a = analytic.conditional_pmf.probs
    for x in range(limit + 1):
        lines.append(f"{x},{a[x]:.17g},{estimate.weighted[x]:.17g},"
                     f"{estimate.weighted_se[x]:.17g},{stressed.probs[x]:.17g}")
    (out / f"compare_{oid}.csv").write_text("\n".join(lines) + "\n")

    def risk_of(p):
        return eng.risk_report(p, thetas)

    doc = {
        "metadata": _metadata(args, digest),
        "obligor": oid,
        "risk": {
            "analytic": analytic.risk,
            "mc_weighted": risk_of(pm.Pmf(estimate.weighted,
                                          tail_mass=max(1 - estimate.weighted.sum(), 0.0))),
            "stressed_inputs": risk_of(stressed),
        },
        "max_abs_deviation": {
            "mc_vs_analytic": float(np.max(np.abs(estimate.weighted - a))),
            "stressed_vs_analytic": float(np.max(np.abs(stressed.probs - a))),
        },
    }
    _write_json(out / f"compare_{oid}.json", doc)
    print(f"wrote {out / ('compare_' + oid + '.csv')} and {out / ('compare_' + oid + '.json')}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"dist": cmd_dist, "cond": cmd_cond, "mc": cmd_mc, "compare": cmd_compare}
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (TruncationError, UnderflowError, AliasingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except PortfolioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
