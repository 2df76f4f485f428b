"""Seeded portfolio documents for the benchmark workloads.

Every generator returns a portfolio as a plain dict in the JSON file layout
that ``crplus`` reads (``sectors`` / ``obligors``), so the benchmark can
write it to a file, hand its text to ``parse_portfolio`` and compute its
closed-form moments without going through ``crplus`` at all.

The shape of each input (obligor count, sector count, sectors per obligor,
severity support sizes) is fixed per workload; the seed only draws values.
Where a workload uses the truncation heuristic, the default probabilities
are scaled so that mean + 12 standard deviations lands half-way between
two integers just below a fixed target, so the heuristic yields the same L
for every seed and convolution sizes do not change from seed to seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from checks import Book

IDIO = "idiosyncratic"


def reference_portfolio():
    """The 5-obligor reference portfolio of the acceptance suite."""
    def sev(pairs):
        if len(pairs) == 1:
            return {"type": "deterministic", "value": pairs[0][0]}
        return {"type": "pmf", "values": [list(p) for p in pairs]}

    def obl(oid, pd, w, pairs):
        weights = {k: v for k, v in zip((IDIO, "s1", "s2"), w) if v != 0.0}
        return {"id": oid, "pd": pd, "weights": weights, "severity": sev(pairs)}

    return {
        "sectors": [{"id": "s1", "alpha": 1.5}, {"id": "s2", "alpha": 0.8}],
        "obligors": [
            obl("A", 0.30, [0.2, 0.8, 0.0], [(2, 1.0)]),
            obl("B", 0.40, [0.1, 0.5, 0.4], [(1, 0.5), (3, 0.5)]),
            obl("C", 0.25, [0.0, 0.0, 1.0], [(2, 0.3), (4, 0.7)]),
            obl("D", 0.20, [1.0, 0.0, 0.0], [(5, 1.0)]),
            obl("E", 0.35, [0.3, 0.2, 0.5], [(1, 0.25), (2, 0.5), (5, 0.25)]),
        ],
    }


def _severity(rng, n_points, max_value):
    if n_points == 1:
        return {"type": "deterministic", "value": int(rng.integers(1, max_value + 1))}
    values = np.sort(rng.choice(np.arange(1, max_value + 1), size=n_points, replace=False))
    probs = rng.uniform(0.2, 1.0, n_points)
    probs = probs / probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    return {"type": "pmf", "values": [[int(v), float(p)] for v, p in zip(values, probs)]}


def _weights(rng, chosen, sector_ids, idio_range):
    """Idiosyncratic share plus a random split over the ``chosen`` sectors."""
    idio = float(rng.uniform(*idio_range))
    n_loaded = len(chosen)
    split = rng.uniform(0.2, 1.0, n_loaded)
    split = (1.0 - idio) * split / split.sum()
    weights = {IDIO: idio}
    for k, w in zip(chosen, split):
        weights[sector_ids[k]] = float(w)
    return weights


def _scale_to_truncation(doc, target):
    """Scale all pds by one factor c so that ceil(mean + 12 sd) == target.

    Under p -> c p the mean is c * m and the variance c * v1 + c^2 * v2, so
    mean + 12 sd is increasing in c; bisection puts it at target - 0.5.
    """
    book = Book(doc)
    m = book.mean()
    v2 = book.variance() - float(np.dot(book.pd, book.s2))
    v1 = book.variance() - v2
    goal = target - 0.5

    def reach(c):
        return c * m + 12.0 * math.sqrt(c * v1 + c * c * v2)

    lo, hi = 0.0, 1.0
    while reach(hi) < goal:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if reach(mid) < goal:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    for o in doc["obligors"]:
        o["pd"] = o["pd"] * c
    return doc


def random_book(rng, n_obligors, n_sectors, loads, severity_points, max_severity,
                pd_range, alpha_range=(0.5, 3.0), idio_range=(0.1, 0.5), target_limit=None,
                prefix="o"):
    """A book with a fixed shape and seeded values.

    ``loads[i % len(loads)]`` is the number of sectors obligor i loads on
    and ``severity_points[i % len(severity_points)]`` its severity support
    size. Which sectors it loads on comes from a fixed stream, so the
    structure (and with it the number of convolutions a scenario needs) is
    the same for every seed.
    """
    shape = np.random.default_rng([n_obligors, n_sectors])
    sector_ids = [f"s{k + 1}" for k in range(n_sectors)]
    sectors = [{"id": sid, "alpha": float(a)}
               for sid, a in zip(sector_ids, rng.uniform(*alpha_range, n_sectors))]
    obligors = []
    for i in range(n_obligors):
        n_loaded = min(loads[i % len(loads)], n_sectors)
        chosen = shape.choice(n_sectors, size=n_loaded, replace=False)
        obligors.append({
            "id": f"{prefix}{i}",
            "pd": float(rng.uniform(*pd_range)),
            "weights": _weights(rng, chosen, sector_ids, idio_range),
            "severity": _severity(rng, severity_points[i % len(severity_points)],
                                  max_severity),
        })
    doc = {"sectors": sectors, "obligors": obligors}
    if target_limit is not None:
        doc = _scale_to_truncation(doc, target_limit)
    return doc


def criterion12_book(rng, n_obligors=1000, n_sectors=10):
    """The acceptance criterion-12 recipe: two sectors per obligor, deterministic 1-50.

    As in :func:`random_book`, the sectors each obligor loads on come from
    a fixed stream; the seed draws alphas, weights, pds and severities.
    """
    shape = np.random.default_rng([n_obligors, n_sectors])
    sector_ids = [f"s{k + 1}" for k in range(n_sectors)]
    sectors = [{"id": sid, "alpha": float(a)}
               for sid, a in zip(sector_ids, rng.uniform(0.5, 3.0, n_sectors))]
    obligors = []
    for i in range(n_obligors):
        idio = float(rng.uniform(0.1, 0.5))
        ks = shape.choice(n_sectors, size=2, replace=False)
        split = float(rng.uniform(0.2, 0.8))
        weights = {IDIO: idio,
                   sector_ids[ks[0]]: (1.0 - idio) * split,
                   sector_ids[ks[1]]: (1.0 - idio) * (1.0 - split)}
        obligors.append({
            "id": f"o{i}",
            "pd": float(rng.uniform(0.002, 0.02)),
            "weights": weights,
            "severity": {"type": "deterministic", "value": int(rng.integers(1, 51))},
        })
    return {"sectors": sectors, "obligors": obligors}


def dumps(doc):
    return json.dumps(doc, indent=1) + "\n"
