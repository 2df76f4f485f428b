"""Portfolio data model, validation and JSON file ingestion.

An obligor carries a default probability, factor loadings on the economic
sectors (index 0 is the idiosyncratic weight) and an integer-valued loss
severity distribution.  Portfolios are immutable after construction;
constructors coerce types, :func:`validate` checks the invariants, and
:func:`parse_portfolio` rejects any input with non-empty diagnostics.
A portfolio is its columns (``Portfolio.columns``), the obligors as arrays:
``Portfolio(sectors, obligors)`` converts its objects into them at once and
:func:`parse_portfolio` decodes a file straight into them.  Validation,
serialization, the engine's sector sums, the conditionals and the Monte
Carlo tables all read them; an ``Obligor`` is only ever a view built from
its row.  ``Portfolio.obligor_diagnostics`` holds the obligor diagnostics,
found once per portfolio.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass
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
    (used by the write-off conditioning variant).  Losses are stored as int:
    an integral float or numpy integer is converted, any other loss raises
    PortfolioError.  Unhashable, like the dict it holds; equality compares
    the dicts.
    """

    probabilities: dict
    __hash__ = None

    def __post_init__(self):
        probs = {}
        for x, p in self.probabilities.items():
            try:
                loss = int(x)
            except (TypeError, ValueError, OverflowError):
                loss = None
            if loss is None or loss != x:
                raise PortfolioError(f"severity loss {x!r} is not an integer")
            probs[loss] = float(p)
        object.__setattr__(self, "probabilities", probs)


ZERO_SEVERITY = SeverityDist({0: 1.0})


@dataclass(frozen=True, eq=False)
class Obligor:
    """One obligor; unhashable, since its weights are an array.  Equality
    compares every field, the weights element by element."""

    id: str
    pd: float
    weights: np.ndarray  # length N+1, index 0 idiosyncratic
    severity: SeverityDist

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 1:
            raise PortfolioError(f"obligor {self.id}: weights must be a vector (shape {w.shape})")
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

    __hash__ = None


@dataclass(frozen=True)
class Sector:
    id: str
    alpha: float  # Gamma shape; unit mean implies scale 1/alpha

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))


# A portfolio's obligors as read-only arrays, row a for obligor a.  ``pd``
# (n,) and ``W`` (n, N+1) hold the pds and weights; a weight vector whose
# length is not N+1 has a NaN row in ``W`` and is kept whole in ``ragged``,
# by row.  Entry j of the flat severity arrays gives obligor ``owner[j]`` the
# loss ``value[j]`` with probability ``prob[j]``, each obligor's entries in
# its dict's order; obligor a's are ``start[a]:start[a+1]``.  ``value`` clips
# losses beyond int64, whose exact values ``exact`` maps by entry.  ``row``
# maps an id to its first row.  A parsed book has no ragged or exact entries.
Columns = namedtuple("Columns", "pd W ragged owner value prob start exact row")


def _columns(ids, pd, W, ragged, sizes, values, probs):
    """Columns from the row arrays and the flat severity entries (lists or arrays).

    Row a owns the next ``sizes[a]`` entries of ``values`` and ``probs``.
    """
    n = len(ids)
    owner = np.repeat(np.arange(n), sizes)
    exact = {}
    try:
        value = np.array(values, dtype=np.int64)
    except OverflowError:  # a loss beyond int64 lies beyond any L: clip it
        big = np.iinfo(np.int64)
        exact = {j: x for j, x in enumerate(values) if not big.min <= x <= big.max}
        value = np.array([min(max(x, big.min), big.max) for x in values], dtype=np.int64)
    prob = np.array(probs, dtype=float)
    start = np.searchsorted(owner, np.arange(n + 1))
    for a in (pd, W, owner, value, prob, start):
        a.setflags(write=False)
    return Columns(pd, W, ragged, owner, value, prob, start, exact,
                   row=dict(zip(reversed(ids), range(n - 1, -1, -1))))


class Portfolio:
    """Sectors, obligor ids and ``columns``, immutable.

    ``Portfolio(sectors, obligors)`` converts the given ``Obligor`` objects
    into columns and keeps none of them.  ``obligor(id)`` builds that one
    obligor from its row, and ``obligors`` builds the whole tuple on first
    access.  Equality compares the sectors and the obligors; a portfolio is
    unhashable, as its obligors are.
    """

    def __init__(self, sectors, obligors):
        sectors, obligors = tuple(sectors), tuple(obligors)
        n, width = len(obligors), len(sectors) + 1
        ids = tuple(o.id for o in obligors)
        ragged = {a: o.weights for a, o in enumerate(obligors) if o.weights.size != width}
        fits = [a for a in range(n) if a not in ragged]
        W = np.full((n, width), np.nan)
        W[fits] = np.reshape([obligors[a].weights for a in fits], (-1, width))
        severities = [o.severity.probabilities for o in obligors]
        columns = _columns(ids, np.fromiter((o.pd for o in obligors), float, n), W, ragged,
                           [len(s) for s in severities], list(chain.from_iterable(severities)),
                           list(chain.from_iterable(s.values() for s in severities)))
        self.__dict__.update(sectors=sectors, ids=ids, columns=columns)

    @classmethod
    def _from_columns(cls, sectors, ids, columns):
        p = cls.__new__(cls)
        p.__dict__.update(sectors=tuple(sectors), ids=tuple(ids), columns=columns)
        return p

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sectors, self.obligors) == (other.sectors, other.obligors)

    __hash__ = None

    def __repr__(self):
        return f"Portfolio(sectors={self.sectors!r}, obligors={self.obligors!r})"

    @property
    def n_sectors(self):
        return len(self.sectors)

    @cached_property
    def obligors(self):
        return tuple(self._obligor_at(a) for a in range(len(self.ids)))

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

    def _severity_at(self, a):
        c = self.columns
        lo, hi = int(c.start[a]), int(c.start[a + 1])
        values = c.value[lo:hi].tolist()
        if c.exact:
            values = [c.exact.get(j, x) for j, x in enumerate(values, lo)]
        return dict(zip(values, c.prob[lo:hi].tolist()))

    def _obligor_at(self, a):
        c = self.columns
        return Obligor(self.ids[a], c.pd[a], c.ragged.get(a, c.W[a]),
                       SeverityDist(self._severity_at(a)))

    def obligor(self, obligor_id):
        """The ``Obligor`` of the id's row, built from the columns."""
        return self._obligor_at(self.row(obligor_id))

    def severity_of(self, obligor_id):
        """The obligor's severity as a {loss: probability} dict, from the columns."""
        return self._severity_at(self.row(obligor_id))

    def expected_loss(self):
        c = self.columns
        v = c.value.astype(float)
        for j, x in c.exact.items():
            v[j] = x
        mean = np.bincount(c.owner, v * c.prob, c.pd.size)  # each obligor's, in entry order
        return sum((c.pd * mean).tolist())

    def with_pds(self, pd):
        """Copy of the portfolio with the pd vector ``pd``, built from the columns."""
        pd = np.array(pd, dtype=float)
        pd.setflags(write=False)
        return Portfolio._from_columns(self.sectors, self.ids, self.columns._replace(pd=pd))


def _weight_faults(W):
    """Per row of W: whether a weight lies outside [0, 1] (NaN does), and the row sum."""
    with np.errstate(invalid="ignore", over="ignore"):  # only in rows outside [0, 1]
        return ~((W >= 0) & (W <= 1)).all(axis=1), W.sum(axis=1)


def _obligor_faults(p):
    """Yield a diagnostic for each obligor rule p breaks, in report order.

    Each rule is one mask over ``p.columns``; only flagged obligors are
    visited, and no ``Obligor`` is built.  A ragged weight vector, whose row
    of ``W`` is NaN, is checked from ``columns.ragged``.
    """
    c, ids, width = p.columns, p.ids, p.n_sectors + 1
    n = len(ids)
    ragged = np.isin(np.arange(n), list(c.ragged))
    bad_weights, weight_sums = _weight_faults(c.W)
    for a, w in c.ragged.items():
        (bad_weights[a],), (weight_sums[a],) = _weight_faults(w[None, :])
    duplicate = np.ones(n, dtype=bool)
    duplicate[list(c.row.values())] = False
    bad_pd = ~(np.isfinite(c.pd) & (c.pd >= 0))
    bad_sum = ~bad_weights & (np.abs(weight_sums - 1.0) > WEIGHT_SUM_TOL)
    negative, outside = c.value < 0, ~((c.prob >= 0.0) & (c.prob <= 1.0))
    bad_entries = np.bincount(c.owner, negative | outside, n) > 0
    bad_total = np.abs(np.bincount(c.owner, c.prob, n) - 1.0) > SEVERITY_SUM_TOL
    start = c.start
    flagged = duplicate | bad_pd | ragged | bad_weights | bad_sum | bad_entries | bad_total
    for a in np.flatnonzero(flagged):
        at = f"obligor {ids[a]}: "
        if duplicate[a]:
            yield at + "duplicate obligor id"
        if bad_pd[a]:
            yield at + f"pd must be non-negative and finite (got {float(c.pd[a])})"
        if ragged[a]:
            yield at + f"weight vector length {c.ragged[a].size} != {width}"
        if bad_weights[a]:
            yield at + "weights must lie in [0, 1]"
        if bad_sum[a]:
            yield at + f"weights sum to {float(weight_sums[a])!r}, not 1"
        for j in range(start[a], start[a + 1]):
            if negative[j]:
                yield at + f"severity support point {c.value[j]} is negative"
            if outside[j]:
                yield at + f"severity probability {float(c.prob[j])!r} outside [0, 1]"
        if bad_total[a]:
            total = sum(c.prob[start[a]:start[a + 1]].tolist())
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
        if s.id == IDIOSYNCRATIC:
            diagnostics.append(f"sector {s.id}: sector id {IDIOSYNCRATIC!r} is reserved "
                               "for the idiosyncratic weight")
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


def _number(x, where, field):
    """``x`` as a float if it is a JSON number (booleans are not), else PortfolioError."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:  # an integer beyond the float range
            pass
    raise PortfolioError(f"{where}: {field} must be a number (got {x!r})")


def _array(doc, field):
    """The top-level ``field`` if it is a JSON array, [] if it is left out, else PortfolioError."""
    value = doc.get(field, [])
    if type(value) is not list:
        raise PortfolioError(f"{field} must be an array (got {value!r})")
    return value


def _string_id(entry, where):
    """The entry's ``id`` if it is a JSON string, else PortfolioError naming ``where``."""
    value = entry["id"]
    if type(value) is not str:
        raise PortfolioError(f"{where}: id must be a string (got {value!r})")
    return value


def _parse_severity(spec, oid):
    """The losses and probabilities of the severity ``spec``, equal losses merged."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise PortfolioError(f"obligor {oid}: severity must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "deterministic":
        value = spec.get("value")
        if type(value) is not int or value < 0:  # a JSON integer; bool is not one
            raise PortfolioError(
                f"obligor {oid}: deterministic severity needs a non-negative integer 'value'"
            )
        return (value,), (1.0,)
    if kind == "pmf":
        values = spec.get("values")
        if not isinstance(values, list) or not values:
            raise PortfolioError(f"obligor {oid}: pmf severity needs a non-empty 'values' list")
        probs = {}
        for pair in values:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise PortfolioError(
                    f"obligor {oid}: pmf entries must be [loss, probability] pairs")
            x, pr = pair
            if type(x) is not int or x < 0:
                raise PortfolioError(
                    f"obligor {oid}: pmf loss {x!r} is not a non-negative integer")
            if type(pr) is not float:
                pr = _number(pr, f"obligor {oid}", f"pmf probability of loss {x}")
            probs[x] = probs.get(x, 0.0) + pr
        return probs.keys(), probs.values()
    raise PortfolioError(f"obligor {oid}: unknown severity type {kind!r}")


def parse_portfolio(text, renormalize_weights=False):
    """Parse and validate a portfolio from its JSON file content.

    Omitted weight keys default to 0; "idiosyncratic" maps to weight index 0.
    With ``renormalize_weights`` the weight vectors are rescaled to sum to 1
    instead of rejecting near-miss inputs (off by default on purpose).
    ``sectors`` and ``obligors`` must be JSON arrays (left out, empty),
    every id a JSON string, ``alpha``, ``pd``, the weights and the pmf
    probabilities JSON numbers, severity losses JSON integers and
    ``weights`` an object.  The entries go straight into
    ``Portfolio.columns``; no ``Obligor`` is built.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PortfolioError(f"malformed portfolio JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PortfolioError("portfolio file must contain a JSON object")

    sectors = []
    for i, entry in enumerate(_array(doc, "sectors")):
        if not isinstance(entry, dict) or "id" not in entry or "alpha" not in entry:
            raise PortfolioError("each sector needs 'id' and 'alpha'")
        sid = _string_id(entry, f"sectors[{i}]")
        sectors.append(Sector(sid, _number(entry["alpha"], f"sector {sid}", "alpha")))
    column = {s.id: k + 1 for k, s in enumerate(sectors)}
    column[IDIOSYNCRATIC] = 0

    ids, pds, sizes, values, probs = [], [], [], [], []
    cell_row, cell_col, cell_w = [], [], []  # the weights present in the file
    for i, entry in enumerate(_array(doc, "obligors")):
        if not isinstance(entry, dict) or "id" not in entry:
            raise PortfolioError("each obligor needs an 'id'")
        oid = _string_id(entry, f"obligors[{i}]")
        if "pd" not in entry or "severity" not in entry:
            raise PortfolioError(f"obligor {oid}: 'pd' and 'severity' are required")
        weights = entry.get("weights")
        if weights is None:
            weights = {}
        elif not isinstance(weights, dict):
            raise PortfolioError(f"obligor {oid}: weights must be an object (got {weights!r})")
        row = len(ids)
        for key, w in weights.items():
            if key not in column:
                raise PortfolioError(f"obligor {oid}: unknown sector id {key!r} in weights")
            if type(w) is not float:
                w = _number(w, f"obligor {oid}", f"weight {key!r}")
            cell_row.append(row)
            cell_col.append(column[key])
            cell_w.append(w)
        losses, masses = _parse_severity(entry["severity"], oid)
        pd = entry["pd"]
        pds.append(pd if type(pd) is float else _number(pd, f"obligor {oid}", "pd"))
        ids.append(oid)
        sizes.append(len(losses))
        values.extend(losses)
        probs.extend(masses)

    width = len(sectors) + 1
    W = np.zeros((len(ids), width))
    W[cell_row, cell_col] = cell_w
    if renormalize_weights:
        total = W.sum(axis=1)
        scaled = total > 0
        W[scaled] /= total[scaled, None]
    columns = _columns(ids, np.array(pds, dtype=float), W, {}, sizes, values, probs)
    portfolio = Portfolio._from_columns(sectors, ids, columns)
    diagnostics = validate(portfolio)
    if diagnostics:
        raise PortfolioError("invalid portfolio: " + "; ".join(diagnostics))
    return portfolio


def serialize_portfolio(p):
    """Inverse of parse_portfolio, read row by row from the columns; raises
    PortfolioError as ``check_obligors`` does (a ragged row has no weights to write)."""
    check_obligors(p)
    c = p.columns
    keys = [IDIOSYNCRATIC] + [s.id for s in p.sectors]
    doc = {
        "sectors": [{"id": s.id, "alpha": s.alpha} for s in p.sectors],
        "obligors": [],
    }
    for a, oid in enumerate(p.ids):
        weights = {key: w for key, w in zip(keys, c.W[a].tolist()) if w != 0.0}
        probs = p._severity_at(a)
        if len(probs) == 1:
            (value,) = probs
            severity = {"type": "deterministic", "value": value}
        else:
            severity = {"type": "pmf", "values": [[x, pr] for x, pr in sorted(probs.items())]}
        doc["obligors"].append(
            {"id": oid, "pd": float(c.pd[a]), "weights": weights, "severity": severity}
        )
    return json.dumps(doc, indent=2) + "\n"
