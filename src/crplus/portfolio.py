"""Portfolio data model, validation and JSON file ingestion.

An obligor carries a default probability, factor loadings on the economic
sectors (index 0 is the idiosyncratic weight) and an integer-valued loss
severity distribution.  Portfolios are immutable after construction;
constructors coerce types, :func:`validate` checks the invariants, and
:func:`parse_portfolio` rejects any input with non-empty diagnostics.
``Portfolio.columns`` holds the obligors as arrays, built once per
portfolio; validation, the engine's sector sums and the Monte Carlo tables
all read them.  ``Portfolio.obligor_diagnostics`` holds the obligor
diagnostics, also found once per portfolio.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

WEIGHT_SUM_TOL = 1e-9
SEVERITY_SUM_TOL = 1e-12

IDIOSYNCRATIC = "idiosyncratic"


class PortfolioError(ValueError):
    """Malformed or invalid portfolio input."""


@dataclass(frozen=True)
class SeverityDist:
    """Loss severity as a finite pmf on non-negative integers.

    ``{v: 1.0}`` represents a deterministic severity v; severity 0 is allowed
    (used by the write-off conditioning variant).
    """

    probabilities: dict

    def __post_init__(self):
        probs = {int(x): float(p) for x, p in self.probabilities.items()}
        object.__setattr__(self, "probabilities", probs)

    @property
    def deterministic(self):
        return len(self.probabilities) == 1

    def mean(self):
        return sum(x * p for x, p in self.probabilities.items())

    def values_and_probs(self):
        items = sorted(self.probabilities.items())
        return np.array([x for x, _ in items]), np.array([p for _, p in items])


ZERO_SEVERITY = SeverityDist({0: 1.0})


@dataclass(frozen=True)
class Obligor:
    id: str
    pd: float
    weights: np.ndarray  # length N+1, index 0 idiosyncratic
    severity: SeverityDist

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "pd", float(self.pd))

    def __eq__(self, other):
        if not isinstance(other, Obligor):
            return NotImplemented
        return (
            self.id == other.id
            and self.pd == other.pd
            and np.array_equal(self.weights, other.weights)
            and self.severity == other.severity
        )


@dataclass(frozen=True)
class Sector:
    id: str
    alpha: float  # Gamma shape; unit mean implies scale 1/alpha

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))


# A portfolio's obligors as arrays (see ``Portfolio.columns``).
Columns = namedtuple("Columns", "pd W wsize owner value prob row")


@dataclass(frozen=True)
class Portfolio:
    sectors: tuple
    obligors: tuple

    def __post_init__(self):
        object.__setattr__(self, "sectors", tuple(self.sectors))
        object.__setattr__(self, "obligors", tuple(self.obligors))

    @property
    def n_sectors(self):
        return len(self.sectors)

    @cached_property
    def columns(self):
        """The obligors as read-only arrays, row a for obligor a, built once.

        ``pd`` (n,) and ``W`` (n, N+1) hold the pds and weights; ``W`` has a
        NaN row where the length ``wsize`` of a weight vector is not N+1.
        Entry j of the flat severity arrays gives obligor ``owner[j]`` the
        loss ``value[j]`` with probability ``prob[j]``, each obligor's
        entries in its dict's order.  ``row`` maps an id to its first row.
        """
        obligors, width = self.obligors, self.n_sectors + 1
        n = len(obligors)
        wsize = np.fromiter((o.weights.size for o in obligors), np.intp, n)
        fits = wsize == width
        W = np.full((n, width), np.nan)
        W[fits] = np.concatenate([np.zeros(0)] + [o.weights for o in obligors
                                                  if o.weights.size == width]).reshape(-1, width)
        severities = [o.severity.probabilities for o in obligors]
        owner = np.repeat(np.arange(n), [len(s) for s in severities])
        try:
            value = np.fromiter(chain.from_iterable(severities), np.int64, owner.size)
        except OverflowError:  # a loss beyond int64 lies beyond any L: clip it
            big = np.iinfo(np.int64)
            value = np.fromiter((min(max(x, big.min), big.max)
                                 for x in chain.from_iterable(severities)), np.int64, owner.size)
        prob = np.fromiter(chain.from_iterable(s.values() for s in severities), float, owner.size)
        pd = np.fromiter((o.pd for o in obligors), float, n)
        for a in (pd, W, wsize, owner, value, prob):
            a.setflags(write=False)
        ids = [o.id for o in obligors]
        return Columns(pd, W, wsize, owner, value, prob,
                       row=dict(zip(reversed(ids), range(n - 1, -1, -1))))

    @cached_property
    def obligor_diagnostics(self):
        """The obligor diagnostics of ``validate``, in report order, found once.

        Parsing, ``check_obligors`` (so every ``assemble`` and
        ``suggest_truncation``) and the sampler all read this tuple.
        """
        return tuple(_obligor_faults(self))

    def row(self, obligor_id):
        """Index of the obligor in ``obligors`` (its first occurrence)."""
        try:
            return self.columns.row[obligor_id]
        except KeyError:
            raise PortfolioError(f"unknown obligor {obligor_id!r}") from None

    def obligor(self, obligor_id):
        return self.obligors[self.row(obligor_id)]

    def expected_loss(self):
        return sum(o.pd * o.severity.mean() for o in self.obligors)

    def with_severity(self, obligor_id, severity):
        """Copy of the portfolio with one obligor's severity replaced."""
        self.obligor(obligor_id)
        obligors = tuple(
            Obligor(o.id, o.pd, o.weights, severity) if o.id == obligor_id else o
            for o in self.obligors
        )
        return Portfolio(self.sectors, obligors)


def _weight_faults(W):
    """Per row of W: whether a weight lies outside [0, 1] (NaN does), and the row sum."""
    with np.errstate(invalid="ignore", over="ignore"):  # only in rows outside [0, 1]
        return ~((W >= 0) & (W <= 1)).all(axis=1), W.sum(axis=1)


def _obligor_faults(p):
    """Yield a diagnostic for each obligor rule p breaks, in report order.

    Each rule is one mask over ``p.columns``; only flagged obligors are visited.
    """
    c, obligors, width = p.columns, p.obligors, p.n_sectors + 1
    n = len(obligors)
    ragged = c.wsize != width
    bad_weights, weight_sums = _weight_faults(c.W)
    for a in np.flatnonzero(ragged):  # their rows of W are NaN: check the vectors
        (bad_weights[a],), (weight_sums[a],) = _weight_faults(obligors[a].weights[None, :])
    duplicate = np.ones(n, dtype=bool)
    duplicate[list(c.row.values())] = False
    bad_pd = ~(np.isfinite(c.pd) & (c.pd >= 0))
    bad_sum = ~bad_weights & (np.abs(weight_sums - 1.0) > WEIGHT_SUM_TOL)
    negative, outside = c.value < 0, ~((c.prob >= 0.0) & (c.prob <= 1.0))
    bad_entries = np.bincount(c.owner, negative | outside, n) > 0
    bad_total = np.abs(np.bincount(c.owner, c.prob, n) - 1.0) > SEVERITY_SUM_TOL
    start = np.searchsorted(c.owner, np.arange(n + 1))  # a's entries: start[a]:start[a+1]
    flagged = duplicate | bad_pd | ragged | bad_weights | bad_sum | bad_entries | bad_total
    for a in np.flatnonzero(flagged):
        o = obligors[a]
        at = f"obligor {o.id}: "
        if duplicate[a]:
            yield at + "duplicate obligor id"
        if bad_pd[a]:
            yield at + f"pd must be non-negative and finite (got {o.pd})"
        if ragged[a]:
            yield at + f"weight vector length {o.weights.size} != {width}"
        if bad_weights[a]:
            yield at + "weights must lie in [0, 1]"
        if bad_sum[a]:
            yield at + f"weights sum to {o.weights.sum()!r}, not 1"
        for j in range(start[a], start[a + 1]):
            if negative[j]:
                yield at + f"severity support point {c.value[j]} is negative"
            if outside[j]:
                yield at + f"severity probability {float(c.prob[j])!r} outside [0, 1]"
        if bad_total[a]:
            total = sum(o.severity.probabilities.values())
            yield at + f"severity probabilities sum to {total!r}, not 1"


def validate(p):
    """Diagnostics for a portfolio; empty list iff all invariants hold.

    Each diagnostic names the violating entity and the rule it breaks:
    sectors first, then obligor by obligor.  The obligor rules are array
    masks over ``p.columns``, evaluated once per portfolio
    (``Portfolio.obligor_diagnostics``).
    """
    diagnostics = []
    seen = set()
    for s in p.sectors:
        if not (np.isfinite(s.alpha) and s.alpha > 0):
            diagnostics.append(f"sector {s.id}: alpha must be positive and finite (got {s.alpha})")
        if s.id in seen:
            diagnostics.append(f"sector {s.id}: duplicate sector id")
        seen.add(s.id)
    diagnostics.extend(p.obligor_diagnostics)
    return diagnostics


def check_obligors(p):
    """Raise PortfolioError with the first obligor diagnostic of ``validate``.

    The engine and the sampler call this: a portfolio built in Python skips
    ``parse_portfolio``, and a NaN pd or weight would pass silently into
    every sector sum.
    """
    if p.obligor_diagnostics:
        raise PortfolioError(p.obligor_diagnostics[0])


def _parse_severity(spec, where):
    if not isinstance(spec, dict) or "type" not in spec:
        raise PortfolioError(f"{where}: severity must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "deterministic":
        value = spec.get("value")
        if not isinstance(value, int) or value < 0:
            raise PortfolioError(
                f"{where}: deterministic severity needs a non-negative integer 'value'"
            )
        return SeverityDist({value: 1.0})
    if kind == "pmf":
        values = spec.get("values")
        if not isinstance(values, list) or not values:
            raise PortfolioError(f"{where}: pmf severity needs a non-empty 'values' list")
        probs = {}
        for pair in values:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise PortfolioError(f"{where}: pmf entries must be [loss, probability] pairs")
            x, pr = pair
            if not isinstance(x, int) or x < 0:
                raise PortfolioError(f"{where}: pmf loss {x!r} is not a non-negative integer")
            probs[x] = probs.get(x, 0.0) + float(pr)
        return SeverityDist(probs)
    raise PortfolioError(f"{where}: unknown severity type {kind!r}")


def parse_portfolio(text, renormalize_weights=False):
    """Parse and validate a portfolio from its JSON file content.

    Omitted weight keys default to 0; "idiosyncratic" maps to weight index 0.
    With ``renormalize_weights`` the weight vectors are rescaled to sum to 1
    instead of rejecting near-miss inputs (off by default on purpose).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PortfolioError(f"malformed portfolio JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PortfolioError("portfolio file must contain a JSON object")

    sectors = []
    for entry in doc.get("sectors", []):
        if not isinstance(entry, dict) or "id" not in entry or "alpha" not in entry:
            raise PortfolioError("each sector needs 'id' and 'alpha'")
        sectors.append(Sector(str(entry["id"]), float(entry["alpha"])))
    sector_index = {s.id: k + 1 for k, s in enumerate(sectors)}

    obligors = []
    for entry in doc.get("obligors", []):
        if not isinstance(entry, dict) or "id" not in entry:
            raise PortfolioError("each obligor needs an 'id'")
        oid = str(entry["id"])
        if "pd" not in entry or "severity" not in entry:
            raise PortfolioError(f"obligor {oid}: 'pd' and 'severity' are required")
        weights = np.zeros(len(sectors) + 1)
        for key, w in (entry.get("weights") or {}).items():
            if key == IDIOSYNCRATIC:
                weights[0] = float(w)
            elif key in sector_index:
                weights[sector_index[key]] = float(w)
            else:
                raise PortfolioError(f"obligor {oid}: unknown sector id {key!r} in weights")
        if renormalize_weights and weights.sum() > 0:
            weights = weights / weights.sum()
        severity = _parse_severity(entry["severity"], f"obligor {oid}")
        obligors.append(Obligor(oid, float(entry["pd"]), weights, severity))

    portfolio = Portfolio(tuple(sectors), tuple(obligors))
    diagnostics = validate(portfolio)
    if diagnostics:
        raise PortfolioError("invalid portfolio: " + "; ".join(diagnostics))
    return portfolio


def serialize_portfolio(p):
    """Inverse of parse_portfolio on valid portfolios."""
    doc = {
        "sectors": [{"id": s.id, "alpha": s.alpha} for s in p.sectors],
        "obligors": [],
    }
    for o in p.obligors:
        weights = {}
        if o.weights[0] != 0.0:
            weights[IDIOSYNCRATIC] = float(o.weights[0])
        for k, s in enumerate(p.sectors):
            if o.weights[k + 1] != 0.0:
                weights[s.id] = float(o.weights[k + 1])
        if o.severity.deterministic:
            (value,) = o.severity.probabilities
            severity = {"type": "deterministic", "value": value}
        else:
            severity = {
                "type": "pmf",
                "values": [[x, pr] for x, pr in sorted(o.severity.probabilities.items())],
            }
        doc["obligors"].append(
            {"id": o.id, "pd": o.pd, "weights": weights, "severity": severity}
        )
    return json.dumps(doc, indent=2) + "\n"
