"""Command-line front end: dist, cond, mc and compare.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure
(truncated support cannot honor the requested tail tolerance; a Panjer
start value underflows, which can happen only below ``pmf.FFT_MIN_SIZE``
points, where sector pmfs come from the recursion; or the engine's one
Fourier grid, the smallest power of two above L that keeps the Chernoff
bound on the aliased mass of the portfolio base under its heaviest
supported stress, shifted by two of the book's largest losses, at most
``pmf.ALIAS_FLOOR``, would need more than ``pmf.MAX_GRID`` points).
Every JSON output carries a metadata block (tool version, input digest,
config echo) so runs can be reproduced byte for byte.

Each subcommand writes only its own files: ``dist`` the unconditional
``pmf.csv`` and ``report.json``; ``cond`` ``conditional_<tag>.csv`` and
``scenario_<tag>.json``, whose ``base_risk`` is the unconditional risk
report at the same L, tail tolerance and thetas; ``mc`` ``mc_losses.csv``
and ``mc_result.json``; ``compare`` ``compare_<id>.csv`` and
``compare_<id>.json``.

Repeated calls in one process reuse the last portfolio text they prepared.
Each call still reads the file and hashes its text; while the SHA-256 is
the one of the previous call, the validated portfolio, the L of
``--max-loss auto``, the base engine of each (L, tail tolerance) and the
base's risk reports are taken from that record, and a new digest replaces
it.  Only successes are recorded, so a failing call fails again when
repeated.  Write-off and stressed-input engines are built on every call.
As ``mc`` and a later ``compare`` on the same text get one portfolio
object, a ``compare`` with the ``--seed`` and ``--draws`` (at most
``mc.BATCH``) of the preceding ``mc`` reads that call's Monte Carlo sample
instead of drawing it again (``mc._batches``); the files are the same.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
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


class _Base:
    """An engine whose base met its tail tolerance, with the base's risk
    report computed once per tuple of thetas."""

    def __init__(self, engine, pmf):
        self.engine = engine
        self.pmf = pmf
        self._risk = {}

    def risk(self, thetas):
        key = tuple(thetas)
        if key not in self._risk:
            self._risk[key] = eng.risk_report(self.pmf, thetas)
        return self._risk[key]


class _Prepared:
    """A validated portfolio and its bases, for one portfolio text.

    ``digest`` is the text's SHA-256; ``bases`` maps (L, tail_tol) to the
    ``_Base`` built there; ``auto_limit`` is ``--max-loss auto``'s L.  Only
    successes are stored: a call that raises leaves nothing behind, so the
    next one raises afresh.
    """

    def __init__(self, digest, portfolio):
        self.digest = digest
        self.portfolio = portfolio
        self.bases = {}

    @functools.cached_property
    def auto_limit(self):
        return eng.suggest_truncation(self.portfolio)


_last = None  # the _Prepared of the last portfolio text this process parsed


def _load(args):
    """The ``_Prepared`` record of the portfolio file's current text.

    The file is read and hashed on every call; the record is reused while
    the digest matches and replaced when it does not.
    """
    global _last
    path = Path(args.portfolio)
    if not path.is_file():
        raise CliError(f"portfolio file not found: {path}", EXIT_INPUT)
    text = path.read_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if _last is None or _last.digest != digest:
        try:
            port = pf.parse_portfolio(text)
        except PortfolioError as exc:
            raise CliError(str(exc), EXIT_INPUT) from exc
        _last = _Prepared(digest, port)
    return _last


def _max_loss(args):
    """``--max-loss`` as an int, or None for 'auto'."""
    if args.max_loss == "auto":
        return None
    try:
        limit = int(args.max_loss)
    except ValueError:
        raise CliError(f"--max-loss must be an integer or 'auto', got {args.max_loss!r}",
                       EXIT_INPUT) from None
    if limit < 0:
        raise CliError("--max-loss must be non-negative", EXIT_INPUT)
    return limit


def _draws(args):
    """``--draws``, checked before ``mc`` or ``compare`` does any work."""
    if args.draws < 1:
        raise CliError(f"--draws must be >= 1, got {args.draws}", EXIT_INPUT)
    return args.draws


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


def _base_for(args, prepared):
    """The ``_Base`` at the resolved L and ``--tail-tol``, built on first use."""
    limit = _max_loss(args)
    limit = prepared.auto_limit if limit is None else limit
    key = (limit, args.tail_tol)
    if key in prepared.bases:
        return prepared.bases[key]
    engine = eng.LossEngine(eng.assemble(prepared.portfolio, limit), tail_tol=args.tail_tol)
    try:
        base = engine.loss_distribution()
    except TruncationError as exc:
        raise CliError(
            f"tail tolerance {args.tail_tol:g} not met at L={limit}: "
            f"achieved tail mass {exc.tail_mass:.3e}", EXIT_TOLERANCE) from exc
    prepared.bases[key] = out = _Base(engine, base)
    return out


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_dist(args):
    prepared = _load(args)
    thetas = _thetas(args)
    base = _base_for(args, prepared)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "pmf.csv").write_text(pm.to_csv(base.pmf))
    _write_json(out / "report.json",
                {"metadata": _metadata(args, prepared.digest), "risk": base.risk(thetas),
                 "pmf_csv": "pmf.csv"})
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
            port.row(oid)
        except PortfolioError as exc:
            raise CliError(str(exc), EXIT_INPUT) from exc
        if any(ch and ch in oid for ch in ("/", os.sep, os.altsep, "\0")):  # ids name files
            raise CliError(f"obligor id {oid!r} holds a path separator or NUL, so it cannot "
                           "name an output file", EXIT_INPUT)
    return ids


def cmd_cond(args):
    prepared = _load(args)
    port = prepared.portfolio
    thetas = _thetas(args)
    ids = _scenario_obligors(args, port)
    base = _base_for(args, prepared)
    if len(ids) == 1:
        report = conditional.loss_given_one_default(
            base.engine, port, ids[0], writeoff=args.writeoff, thetas=thetas)
    else:
        report = conditional.loss_given_two_defaults(
            base.engine, port, ids[0], ids[1], writeoff=args.writeoff, thetas=thetas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tag = "_".join(ids) + ("_writeoff" if args.writeoff else "")
    pmf_name = f"conditional_{tag}.csv"
    (out / pmf_name).write_text(pm.to_csv(report.conditional_pmf))
    doc = report.to_json_dict(pmf_csv_path=pmf_name)
    # The unconditional risk alongside, for side-by-side comparison; the
    # unconditional pmf itself is dist's output.
    doc["base_risk"] = base.risk(thetas)
    doc["metadata"] = _metadata(args, prepared.digest)
    _write_json(out / f"scenario_{tag}.json", doc)
    print(f"wrote {out / ('scenario_' + tag + '.json')}")
    return EXIT_OK


def cmd_mc(args):
    draws = _draws(args)
    prepared = _load(args)
    _thetas(args)
    _max_loss(args)  # unused by the sampler, but echoed in mc_result.json
    result = mc.simulate(prepared.portfolio, mc.SimConfig(draws=draws, seed=args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "mc_losses.csv").write_text(result.to_csv())
    doc = result.sidecar()
    doc["metadata"] = _metadata(args, prepared.digest)
    _write_json(out / "mc_result.json", doc)
    print(f"wrote {out / 'mc_losses.csv'} and {out / 'mc_result.json'}")
    return EXIT_OK


def _stressed_input_pmf(engine, port, obligor_id):
    """Biased comparison model: re-run with conditional PDs for the others.

    The scenario obligor's pd is set to 0, every other obligor gets its PD
    conditional on the scenario default (``conditional.stressed_pds``), and
    the result is shifted by the scenario obligor's severity (the
    occurred-loss socket).
    """
    system = engine.system
    pd = conditional.stressed_pds(port, system, obligor_id)
    pd[port.row(obligor_id)] = 0.0
    base = eng.LossEngine(eng.assemble(port.with_pds(pd), system.limit)).loss_distribution()
    return pm.convolve(base, pm.from_dict(port.severity_of(obligor_id), system.limit))


def cmd_compare(args):
    draws = _draws(args)
    prepared = _load(args)
    port = prepared.portfolio
    thetas = _thetas(args)
    ids = _scenario_obligors(args, port, expected=1)
    oid = ids[0]
    if port.columns.pd[port.row(oid)] == 0.0:
        raise CliError(f"obligor {oid}: pd is 0, cannot condition on its default", EXIT_INPUT)
    engine = _base_for(args, prepared).engine
    limit = engine.system.limit

    analytic = conditional.loss_given_one_default(engine, port, oid, thetas=thetas)
    try:
        estimate = mc.estimate_conditional_one_default(
            port, oid, mc.SimConfig(draws=draws, seed=args.seed), limit)
    except mc.NoAcceptedDrawsError as exc:
        raise CliError(f"obligor {oid} defaults in none of the {draws} draws; raise --draws",
                       EXIT_INPUT) from exc
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

    se = estimate.weighted_se
    resolved = se > 0
    doc = {
        "metadata": _metadata(args, prepared.digest),
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
        # Largest |mc - analytic| in MC standard errors, over bins with se > 0.
        "max_abs_deviation_se": float(np.max(
            np.abs(estimate.weighted - a)[resolved] / se[resolved], initial=0.0)),
    }
    _write_json(out / f"compare_{oid}.json", doc)
    print(f"wrote {out / ('compare_' + oid + '.csv')} and {out / ('compare_' + oid + '.json')}")
    return EXIT_OK


@functools.cache
def _parser():
    """The argument parser, built once per process (parsing does not change it)."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
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
