import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from crplus import LossEngine, Obligor, Portfolio, Sector, SectorSystem, SeverityDist, assemble
from crplus import cli, mc
from crplus import engine as eng
from crplus import pmf as pm
from crplus.pmf import Pmf
from crplus.portfolio import IDIOSYNCRATIC, SEVERITY_SUM_TOL, WEIGHT_SUM_TOL, PortfolioError

REFERENCE_LIMIT = 200


def make_reference_portfolio():
    """5 obligors, 2 factor sectors + idiosyncratic, severity support <= 5."""
    return Portfolio(
        (Sector("s1", 1.5), Sector("s2", 0.8)),
        (
            Obligor("A", 0.30, [0.2, 0.8, 0.0], SeverityDist({2: 1.0})),
            Obligor("B", 0.40, [0.1, 0.5, 0.4], SeverityDist({1: 0.5, 3: 0.5})),
            Obligor("C", 0.25, [0.0, 0.0, 1.0], SeverityDist({2: 0.3, 4: 0.7})),
            Obligor("D", 0.20, [1.0, 0.0, 0.0], SeverityDist({5: 1.0})),
            Obligor("E", 0.35, [0.3, 0.2, 0.5], SeverityDist({1: 0.25, 2: 0.5, 5: 0.25})),
        ),
    )


def with_severity(portfolio, obligor_id, severity):
    """Copy of the portfolio with one obligor's severity replaced: the write-off reference."""
    portfolio.row(obligor_id)
    return Portfolio(portfolio.sectors, [
        Obligor(o.id, o.pd, o.weights, severity) if o.id == obligor_id else o
        for o in portfolio.obligors])


def severity_mean(severity):
    """Mean loss of a ``SeverityDist``, summed in its dict's order."""
    return sum(x * p for x, p in severity.probabilities.items())


@pytest.fixture(autouse=True)
def cold_cli(monkeypatch):
    """Each test starts with no portfolio remembered by the CLI and no kept
    Monte Carlo sample."""
    monkeypatch.setattr(cli, "_last", None)
    monkeypatch.setattr(mc, "_kept", None)


@pytest.fixture(scope="session")
def reference_portfolio():
    return make_reference_portfolio()


@pytest.fixture(scope="session")
def reference_engine(reference_portfolio):
    return LossEngine(assemble(reference_portfolio, REFERENCE_LIMIT))


# The scenarios the quadrature gates, and the limit of its Fourier-path gate.
QUADRATURE_SCENARIOS = [(), ("A",), ("B",), ("C",), ("D",), ("E",), ("A", "B"), ("C", "E")]
QUADRATURE_FOURIER_LIMIT = 600


@pytest.fixture(scope="session")
def quadrature_references(reference_portfolio):
    """L -> defaulted obligors -> ``quadrature_reference`` pmf on the reference
    portfolio, for L = 200 (the Panjer path) and 600 (the Fourier path)."""
    out = {}
    for limit in (REFERENCE_LIMIT, QUADRATURE_FOURIER_LIMIT):
        nodes = quadrature_nodes(reference_portfolio, limit)
        out[limit] = {ids: quadrature_reference(reference_portfolio, limit, ids, nodes)
                      for ids in QUADRATURE_SCENARIOS}
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def sampling_passes(monkeypatch):
    """The portfolio of every fresh Monte Carlo pass (``mc._sector_tables`` call) in the test."""
    passes, tables = [], mc._sector_tables
    monkeypatch.setattr(mc, "_sector_tables", lambda p: passes.append(p) or tables(p))
    return passes


@pytest.fixture
def panjer_passes(monkeypatch):
    """The number of rows of every ``pmf._panjer`` pass made during the test."""
    passes, panjer = [], pm._panjer

    def counted(a, b, g0, q, limit):
        passes.append(a.size)
        return panjer(a, b, g0, q, limit)

    monkeypatch.setattr(pm, "_panjer", counted)
    return passes


# Obligor B breaks a rule that parse_portfolio would catch; built in Python it
# reaches the engine and the sampler, which must name it: (pd, weights, message).
UNVALIDATED = [
    pytest.param(float("nan"), [0.0, 1.0],
                 r"obligor B: pd must be non-negative and finite \(got nan\)", id="nan_pd"),
    pytest.param(float("inf"), [0.0, 1.0],
                 r"obligor B: pd must be non-negative and finite \(got inf\)", id="inf_pd"),
    pytest.param(-0.1, [0.0, 1.0],
                 r"obligor B: pd must be non-negative and finite \(got -0.1\)",
                 id="negative_pd"),
    pytest.param(0.1, [float("nan"), 1.0], r"obligor B: weights must lie in \[0, 1\]",
                 id="nan_weight"),
    pytest.param(0.1, [1.0], r"obligor B: weight vector length 1 != 2", id="short_weights"),
]


def unvalidated_portfolio(pd, weights):
    return Portfolio((Sector("s1", 1.0),),
                     (Obligor("A", 0.1, [0.0, 1.0], SeverityDist({1: 1.0})),
                      Obligor("B", pd, weights, SeverityDist({2: 1.0}))))


def panjer_reference(a, b, g0, q, limit):
    """Panjer's (a, b, 0) recursion for one pmf, level by level and term by term.

    g_n = sum_{j=1}^{min(n, m)} (a + b j/n) q_j g_{n-j} / (1 - a q_0) with q
    the trimmed severity vector (m = q.size - 1).  A scalar loop apart from
    the batched ``pmf._panjer``: the tests' reference.  Each level's sum runs
    from j = m down to 1, the order ``pmf._panjer`` keeps, so both agree bit
    for bit.
    """
    q = q.tolist()
    m = len(q) - 1
    g = [g0]
    for n in range(1, limit + 1):
        total = 0.0
        for j in range(min(n, m), 0, -1):
            total += (a + b * j / n) * q[j] / (1.0 - a * q[0]) * g[n - j]
        g.append(total)
    g = np.array(g)
    return Pmf(g, tail_mass=max(1.0 - g.sum(), 0.0))


def panjer_poisson(intensity, severity, limit):
    """Compound Poisson pmf by Panjer's recursion at any L: the tests' reference."""
    q = pm._trimmed(severity.probs)
    return panjer_reference(0.0, intensity, math.exp(intensity * (q[0] - 1.0)), q, limit)


def panjer_negbin(alpha, delta, severity, limit):
    """Compound negative binomial pmf by Panjer's recursion at any L: the tests' reference."""
    q = pm._trimmed(severity.probs)
    g0 = math.exp(alpha * (math.log1p(-delta) - math.log1p(-delta * q[0])))
    return panjer_reference(delta, (alpha - 1.0) * delta, g0, q, limit)


def assemble_loop(portfolio, limit):
    """Sector system by per-obligor, per-sector loops: the tests' reference for ``assemble``."""
    n = portfolio.n_sectors
    mu = np.zeros(n + 1)
    q_vecs = [np.zeros(limit + 1) for _ in range(n + 1)]
    reach = 0
    for o in portfolio.obligors:
        total = sum(o.severity.probabilities.values())
        if abs(total - 1.0) > SEVERITY_SUM_TOL:
            raise PortfolioError(f"obligor {o.id}: severity probabilities sum to {total!r}, not 1")
        reach = max([reach] + [v for v, q in o.severity.probabilities.items() if q and v <= limit])
        if o.pd == 0.0:
            continue
        for k in range(n + 1):
            wp = o.weights[k] * o.pd
            if wp == 0.0:
                continue
            mu[k] += wp
            for v, q in sorted(o.severity.probabilities.items()):
                if v <= limit:
                    q_vecs[k][v] += wp * q
    alphas = np.array([s.alpha for s in portfolio.sectors])
    delta = mu[1:] / (mu[1:] + alphas)
    q_polys = tuple(
        Pmf(q_vecs[k] / mu[k], tail_mass=max(1.0 - q_vecs[k].sum() / mu[k], 0.0))
        if mu[k] > 0
        else pm.point_mass(0, limit)
        for k in range(n + 1)
    )
    return SectorSystem(mu=mu, delta=delta, alphas=alphas, q_polys=q_polys, limit=limit,
                        sector_ids=tuple(s.id for s in portfolio.sectors), reach=reach)


def stressed_need(system):
    """The Chernoff need nu (``pmf.aliasing_need``) of ``system`` under its
    heaviest supported stress, every factor sector at alpha_k + 2."""
    return pm.aliasing_need([(eng._claims(system, "stressed", k), q)
                             for k, q in enumerate(system.q_polys)])


def suggest_truncation_loop(portfolio):
    """ceil(mean + 12 sd) by per-obligor loops: the tests' reference for ``suggest_truncation``."""
    n = portfolio.n_sectors
    mu = np.zeros(n + 1)
    m1 = np.zeros(n + 1)
    m2 = np.zeros(n + 1)
    for o in portfolio.obligors:
        for k in range(n + 1):
            wp = o.weights[k] * o.pd
            mu[k] += wp
            m1[k] += wp * severity_mean(o.severity)
            m2[k] += wp * sum(x * x * p for x, p in o.severity.probabilities.items())
    mean = m1.sum()
    var = m2[0]
    for k in range(1, n + 1):
        if mu[k] == 0:
            continue
        alpha = portfolio.sectors[k - 1].alpha
        q_mean = m1[k] / mu[k]
        q_sec = m2[k] / mu[k]
        count_var = mu[k] * (1.0 + mu[k] / alpha)
        var += mu[k] * (q_sec - q_mean**2) + count_var * q_mean**2
    return max(1, math.ceil(mean + 12.0 * math.sqrt(max(var, 0.0))))


def validate_loop(p):
    """Diagnostics by a loop over the obligors: the tests' reference for ``validate``."""
    diagnostics = []
    seen = set()
    for s in p.sectors:
        if not (np.isfinite(s.alpha) and s.alpha > 0):
            diagnostics.append(f"sector {s.id}: alpha must be positive and finite (got {s.alpha})")
        if s.id == IDIOSYNCRATIC:
            diagnostics.append(f"sector {s.id}: sector id 'idiosyncratic' is reserved "
                               "for the idiosyncratic weight")
        if s.id in seen:
            diagnostics.append(f"sector {s.id}: duplicate sector id")
        seen.add(s.id)
    seen = set()
    for o in p.obligors:
        if o.id in seen:
            diagnostics.append(f"obligor {o.id}: duplicate obligor id")
        seen.add(o.id)
        if not (np.isfinite(o.pd) and o.pd >= 0):
            diagnostics.append(f"obligor {o.id}: pd must be non-negative and finite (got {o.pd})")
        if o.weights.size != p.n_sectors + 1:
            diagnostics.append(
                f"obligor {o.id}: weight vector length {o.weights.size} != {p.n_sectors + 1}"
            )
        if not np.all((o.weights >= 0) & (o.weights <= 1)):
            diagnostics.append(f"obligor {o.id}: weights must lie in [0, 1]")
        elif abs(o.weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            diagnostics.append(f"obligor {o.id}: weights sum to {float(o.weights.sum())!r}, not 1")
        for x, pr in o.severity.probabilities.items():
            if x < 0:
                diagnostics.append(f"obligor {o.id}: severity support point {x} is negative")
            if not 0.0 <= pr <= 1.0:
                diagnostics.append(f"obligor {o.id}: severity probability {pr!r} outside [0, 1]")
        total = sum(o.severity.probabilities.values())
        if abs(total - 1.0) > SEVERITY_SUM_TOL:
            diagnostics.append(f"obligor {o.id}: severity probabilities sum to {total!r}, not 1")
    return diagnostics


def batches_searchsorted(portfolio, cfg):
    """``mc._batches`` with one binary search per sector for the pair lookup: the tests' reference.

    The Philox calls, the tables and the batch size (``mc.BATCH``, read per
    call) are the sampler's; each sector's uniforms are scaled by its total
    mass and mapped to pairs by ``searchsorted`` over the whole cumulative
    table, clipped to the last pair, with no guide table.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    mu, tables, sev_type = mc._sector_tables(portfolio)
    alphas = np.array([s.alpha for s in portfolio.sectors])
    n = alphas.size
    rows = np.arange(mc.BATCH, dtype=np.int32)
    done = 0
    while done < cfg.draws:
        b = min(mc.BATCH, cfg.draws - done)
        done += b
        if n:
            factors = rng.gamma(shape=alphas, scale=1.0 / alphas, size=(b, n))
        else:
            factors = np.zeros((b, 0))
        intensity = np.empty((n + 1, b))
        intensity[0] = mu[0]
        np.multiply(factors.T, mu[1:, None], out=intensity[1:])
        counts = rng.poisson(intensity)
        totals = counts.sum(axis=1)
        u = rng.random(int(totals.sum()))
        draw = np.empty(u.size, dtype=np.int32)
        obligor = np.empty(u.size, dtype=np.int32)
        sev = np.empty(u.size, dtype=sev_type)
        start = 0
        for table, count, total in zip(tables, counts, totals):
            if total == 0:
                continue
            stop = start + int(total)
            draw[start:stop] = np.repeat(rows[:b], count)
            u[start:stop] *= table.cum[-1]
            pick = np.searchsorted(table.cum, u[start:stop], side="right")
            np.minimum(pick, table.cum.size - 1, out=pick)
            obligor[start:stop] = table.owner[pick]
            sev[start:stop] = table.vals[pick]
            start = stop
        losses = np.bincount(draw, weights=sev, minlength=b).astype(np.int64)
        yield factors, draw, obligor, losses


def components_enumerated(loadings, alphas):
    """``conditional._components`` by enumerating every candidate term: the tests' reference.

    Builds all of base, +e_j, +2e_j (j = 1..N) and +e_i+e_j (i < j) in that
    order, then drops the terms of weight 0.
    """
    n = alphas.size
    if len(loadings) == 1:
        (w,) = loadings
        out = {"base": (float(w[0]), [])}
        out.update((f"+e_{j}", (float(w[j]), [j])) for j in range(1, n + 1) if w[j] > 0.0)
        return out
    w1, w2 = loadings
    terms = [("base", w1[0] * w2[0], [])]
    for j in range(1, n + 1):
        terms.append((f"+e_{j}", w1[0] * w2[j] + w1[j] * w2[0], [j]))
        terms.append((f"+2e_{j}", w1[j] * w2[j] * (alphas[j - 1] + 1.0) / alphas[j - 1], [j, j]))
    terms += [(f"+e_{i}+e_{j}", w1[i] * w2[j] + w1[j] * w2[i], [i, j])
              for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {key: (weight, sectors) for key, weight, sectors in terms if weight > 0.0}


def from_csv(text):
    """Parse the CSV layout written by ``pmf.to_csv``: the tests' reader of CLI output."""
    probs = {}
    tail = 0.0
    limit = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "x,probability":
            continue
        if line.startswith("#"):
            key, _, val = line.lstrip("# ").partition("=")
            if key.strip() == "tail_mass":
                tail = float(val)
            continue
        xs, _, ps = line.partition(",")
        x = int(xs)
        probs[x] = float(ps)
        limit = max(limit, x)
    out = np.zeros(limit + 1)
    for x, v in probs.items():
        out[x] = v
    return Pmf(out, tail_mass=tail)


def half_table_spectrum(points, roots, limit):
    """``pmf.points_spectrum`` on the half table of roots w^0..w^(n/2), the
    rfft of a unit impulse at 1: the tests' reference for the gather.

    Each loss v's row reads w^r at r = j v mod n, and above n/2 the
    conjugate of w^(n - r).
    """
    half = roots.size - 1
    out = np.zeros(half + 1, dtype=complex)
    for x, p in points.items():
        if x > limit:
            continue
        if x == 0:
            out += p
            continue
        power = np.arange(0, (half + 1) * int(x), int(x))
        power &= 2 * half - 1
        flip = power > half
        np.subtract(2 * half, power, out=power, where=flip)
        row = roots.take(power)
        np.negative(row.imag, out=row.imag, where=flip)
        out += p * row
    return out


# Gauss-Laguerre nodes per factor sector of the quadrature reference.
QUADRATURE_NODES = 48
# Nodes per pmf.panjer pass of the quadrature reference.
QUADRATURE_BLOCK = 384


class Quadrature(NamedTuple):
    """The node pass of ``quadrature_reference``: per node i, its weight,
    every obligor's intensity p_A(s_i) and the book's pmf given S = s_i."""

    weight: np.ndarray  # (R,), summing to 1 up to round-off
    intensity: np.ndarray  # (R, obligors)
    rows: np.ndarray  # (R, L + 1)
    severity: np.ndarray  # (obligors, L + 1), mass inside {0..L}


def quadrature_nodes(portfolio, limit, nodes=QUADRATURE_NODES):
    """The tensor Gauss-Laguerre grid of the gamma factors and batched
    ``pmf.panjer`` passes over its nodes, ``QUADRATURE_BLOCK`` at a time: a
    reference that shares no code with the engine's sector assembly,
    kernels, mixture weights or Fourier path.

    S_k ~ Gamma(alpha_k, rate alpha_k), so with u = alpha_k s_k the density
    is u^(alpha_k - 1) e^(-u) / Gamma(alpha_k): generalized Gauss-Laguerre
    (``scipy.special.roots_genlaguerre`` with parameter alpha_k - 1; Golub &
    Welsch 1969, "Calculation of Gauss quadrature rules", Math. Comp. 23),
    weights normalized to sum to 1.  Given S = s the book is one compound
    Poisson, intensity lambda(s) = sum_A p_A(s), p_A(s) = p_A (w_A0 +
    sum_k w_Ak s_k), and severity sum_A p_A(s) S_A / lambda(s).  The grid
    has nodes^K points, so keep K <= 2.
    """
    c = portfolio.columns
    axes = [roots_genlaguerre(nodes, sector.alpha - 1.0) for sector in portfolio.sectors]
    factors = [u / sector.alpha for (u, _), sector in zip(axes, portfolio.sectors)]
    weight = np.prod(list(itertools.product(*(w / w.sum() for _, w in axes))), axis=1)
    loads = np.ones((weight.size, len(axes) + 1))  # (1, s_1, ..., s_K) per node
    loads[:, 1:] = list(itertools.product(*factors))
    intensity = c.pd * (loads @ c.W.T)
    inside = c.value <= limit
    severity = np.zeros((c.pd.size, limit + 1))
    np.add.at(severity, (c.owner[inside], c.value[inside]), c.prob[inside])
    rows = np.empty((weight.size, limit + 1))
    # pmf.panjer's coefficients take 8 L m bytes per row: blocks of nodes
    # keep the pass to tens of MB.
    for i in range(0, weight.size, QUADRATURE_BLOCK):
        block = intensity[i : i + QUADRATURE_BLOCK]
        lam = block.sum(axis=1)
        q = block @ severity / lam[:, None]
        terms = [(pm.poisson_claims(l), Pmf(row, tail_mass=max(1.0 - row.sum(), 0.0)))
                 for l, row in zip(lam.tolist(), q)]
        rows[i : i + lam.size] = [g.probs for g in pm.panjer(terms, limit)]
    return Quadrature(weight, intensity, rows, severity)


def quadrature_reference(portfolio, limit, defaulted=(), quadrature=None):
    """The loss pmf on {0..L} given the default of the obligors ``defaulted``
    (none: the base), by quadrature over the gamma factors.

    P[X = x | D] = E[prod_{A in D} p_A(S) P[X + sum_A E_A = x | S]] /
    E[prod_A p_A(S)] (E_A the severity of A): each node's pmf is weighted by
    prod_A p_A(s), and the mean is then convolved with the defaulted
    severities.  ``quadrature`` is the ``quadrature_nodes`` pass of
    (portfolio, L), computed when not given.
    """
    q = quadrature_nodes(portfolio, limit) if quadrature is None else quadrature
    weight = q.weight
    for oid in defaulted:
        weight = weight * q.intensity[:, portfolio.row(oid)]
    probs = weight @ q.rows / weight.sum()
    for oid in defaulted:
        probs = np.convolve(probs, q.severity[portfolio.row(oid)])[: limit + 1]
    return Pmf(probs, tail_mass=max(1.0 - probs.sum(), 0.0))
