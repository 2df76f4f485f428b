"""Dense truncated probability mass functions over integer losses.

All distributions in the engine are carried as dense vectors on {0, ..., L}
with the probability mass beyond L tracked explicitly as ``tail_mass``.

Every sector loss is a compound sum whose claim count lies in Panjer's
(a, b, 0) class, P[N = n] = (a + b/n) P[N = n - 1]: Poisson (a = 0,
b = intensity) and negative binomial (a = delta, b = (alpha - 1) delta),
the stress kernel being the negative binomial with alpha = 1.  One routine,
``_compound``, computes them all from the count's ``Claims``: (a, b) and the
log of its PGF; a zero claim count (a = b = 0) is an exact point mass at 0.
Below ``FFT_MIN_SIZE`` points ``panjer`` runs the recursion for any number
of them at once, one vectorised step per loss level.

Below ``FFT_MIN_SIZE`` points every computation is exact up to relative
round-off: compound distributions come from the (a, b, 0) Panjer recursion
and convolutions are direct, so impossible loss levels stay exact zeros.
From ``FFT_MIN_SIZE`` points on, compound distributions are their
closed-form probability generating functions evaluated on a real-FFT grid
(``Claims.log_pgf`` of the severity's rfft, inverted by ``from_spectrum``)
and convolutions are FFT products; entries are then accurate to the
absolute bound ``abs_error_bound(limit)``, not relatively.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# Negative entries larger than this magnitude are treated as data errors,
# smaller ones as round-off and clipped to 0.
_NEG_TOL = 1e-12

# Length from which the FFT replaces the O(n m) methods: convolve switches
# when the shorter trimmed input has this many points, compound_poisson and
# compound_negbin when the pmf has (L + 1 >= FFT_MIN_SIZE).  Measured with
# one BLAS thread on a 2-core x86 host (numpy 2.4): direct convolution of two
# n-point vectors wins below n = 400-500 (n = 400: 31 us direct, 43 us FFT;
# n = 1000: 144 us vs 69 us; n = 8000: 12.6 ms vs 0.58 ms).  The Panjer pass
# (one product and one running sum per loss level, for all rows of a batch
# at once) is slower than the Fourier path from well below that: one row
# with a 3-point severity takes 1.0 ms at L = 498 against 0.10 ms on the
# Fourier path at L = 499.  A row alone costs about twice a scalar loop of
# one dot product per level (0.51 ms), which is why the engine batches: 7
# rows with 9-point severities at L = 160 take 0.44 ms together, 1.4 ms as
# 7 scalar loops.  The sector pmfs still share the convolution's threshold
# because the FFT gives up exact zeros and relative accuracy: below it every
# result keeps them, above it none does, and one threshold keeps that a
# property of L alone.
FFT_MIN_SIZE = 500

# Stated absolute error bound on an entry of a pmf computed at L + 1 >=
# FFT_MIN_SIZE (see abs_error_bound).  First-order round-off of one FFT
# product is eps log2(n) |a|_2 |b|_2 (convolve), of one Fourier sector pmf
# eps log2(N) (1 + mu) mean|G| (compound_*, mu the mean claim count) and of
# the portfolio base eps log2(N) (1 + sum_k mu_k) mean|G| (one inverse FFT of
# the product G of the N+1 sector PGFs on the grid).  Measured maxima: 1.7e-18
# for convolve at L = 50 000; for sector pmfs against Panjer over 1500
# random cases (alpha <= 50, delta <= 0.999, intensities <= 700,
# L <= 4000) 2.7e-15 at alpha = 44, delta = 1e-8, 3e-16 elsewhere; for the
# base against the Panjer fold over 3000 random systems (an idiosyncratic
# sector with mu <= 50, one to three factor sectors with alpha in
# [0.05, 50], delta <= 0.999 and mean claim counts <= 700, an unloaded
# sector, q0 > 0 allowed, L <= 4000, grids up to 2**18 points) 2.0e-15, and
# at most 0.30 of the first-order bound over 1500 of them.  negbin_claims
# takes log1p(-delta) from the complex routine on the grid (see there): with
# the real one, a system with a factor sector of alpha = 49.6, delta = 0.99
# and all severities 0 read 1.4e-14.  The tests hold the Fourier path to
# this bound.
FFT_ABS_ERROR = 1e-14

# The Fourier sector pmfs grow their grid until the Chernoff bound on the
# mass that wraps around it is at most ALIAS_FLOOR (see grid_size): far
# below FFT_ABS_ERROR, so aliasing never dominates round-off.
ALIAS_FLOOR = 1e-20

# Largest Fourier grid (32 MB per real vector); a sector whose aliasing
# bound needs more points raises AliasingError.
MAX_GRID = 1 << 22


class TruncationError(ValueError):
    """Truncated support {0..L} cannot carry the requested probability mass."""

    def __init__(self, message, tail_mass=None):
        super().__init__(message)
        self.tail_mass = tail_mass


class UnderflowError(ArithmeticError):
    """A Panjer start value g_0 is below the smallest normal double.

    Every later term of the recursion is a multiple of g_0, so the pmf would
    come back as zeros (or as subnormal numbers with few significant bits)
    whatever the truncation limit.
    """


class AliasingError(ArithmeticError):
    """The Fourier grid that keeps the aliasing bound below ALIAS_FLOOR
    would exceed MAX_GRID points (a claim count tail too heavy for L)."""


def abs_error_bound(limit):
    """Absolute error bound on the entries of pmfs computed at truncation limit L.

    0 below ``FFT_MIN_SIZE`` points, where Panjer and direct convolution keep
    exact zeros exact; ``FFT_ABS_ERROR`` from there on, where an entry at or
    below the bound cannot be told from round-off.
    """
    return 0.0 if limit + 1 < FFT_MIN_SIZE else FFT_ABS_ERROR


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on {0..L} with explicit tail accounting.

    probs[x] is P[X = x] for x = 0..L; ``tail_mass`` is the probability
    pushed beyond L by truncation.  Invariant: sum(probs) + tail_mass = 1.
    """

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-d vector")
        low = probs.min()
        if not low >= -_NEG_TOL:
            raise ValueError(f"negative probability beyond round-off, or nan: {low:g}")
        probs = np.maximum(probs, 0.0)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tail_mass", float(self.tail_mass))
        if not self.tail_mass >= -1e-10:
            raise ValueError(f"negative tail mass, or nan: {self.tail_mass:g}")
        total = probs.sum() + self.tail_mass
        if not abs(total - 1.0) <= 1e-8:
            raise ValueError(f"total mass {total!r} is not 1")

    @property
    def truncation_limit(self):
        return self.probs.size - 1

    def __getitem__(self, x):
        return float(self.probs[x])

    def cdf(self):
        return np.cumsum(self.probs)


def point_mass(value, limit):
    """Degenerate pmf concentrated at ``value`` (value > limit goes to tail)."""
    if value < 0 or value != int(value):
        raise ValueError(f"support point {value} is not a non-negative integer")
    probs = np.zeros(limit + 1)
    if value <= limit:
        probs[int(value)] = 1.0
        return Pmf(probs)
    return Pmf(probs, tail_mass=1.0)


def from_dict(probabilities, limit):
    """Build a Pmf from a {loss: probability} mapping."""
    probs = np.zeros(limit + 1)
    tail = 0.0
    for x, p in probabilities.items():
        if x < 0 or x != int(x):
            raise ValueError(f"support point {x} is not a non-negative integer")
        if int(x) <= limit:
            probs[int(x)] += p
        else:
            tail += p
    return Pmf(probs, tail_mass=tail)


def _trimmed(v):
    """View of v up to its last non-zero entry (exact zeros only)."""
    nz = np.flatnonzero(v)
    if nz.size == 0:
        return v[:1]
    return v[: nz[-1] + 1]


def convolve(a, b):
    """Convolution of two pmfs sharing the truncation limit L.

    Mass pushed beyond L, together with the inputs' own tail masses,
    accrues to the result's tail_mass.

    Both inputs are first trimmed to their last non-zero entry.  When the
    shorter one has at least ``FFT_MIN_SIZE`` points the product is taken
    with a zero-padded real FFT (O(n log n)), otherwise with direct
    ``np.convolve`` (O(n m)).  The FFT error is absolute, not relative: it
    stays below eps * log2(n) * |a|_2 * |b|_2 (observed: under 0.13 of that
    bound, 1e-19 to 1e-17 per entry for pmfs summing to 1), inside the
    stated ``FFT_ABS_ERROR``.  On the criterion-12 base times one kernel at
    L = 50 000 the FFT result differed from direct convolution by at most
    1.7e-18 absolute and 1.6e-7 relative where p > 1e-12, with identical
    0.95 / 0.99 / 0.999 quantiles.  Entries below that level, structural
    zeros (impossible loss levels) included, come back as round-off noise;
    negative noise is clipped to 0.
    """
    if a.truncation_limit != b.truncation_limit:
        raise ValueError(
            f"mismatched truncation limits {a.truncation_limit} != {b.truncation_limit}"
        )
    limit = a.truncation_limit
    x, y = _trimmed(a.probs), _trimmed(b.probs)
    n = min(x.size + y.size - 1, limit + 1)
    if min(x.size, y.size) < FFT_MIN_SIZE:
        full = np.convolve(x, y)
    else:
        # Padding to the full linear length keeps the circular product free
        # of wrap-around in the first n entries.
        size = 1 << (x.size + y.size - 2).bit_length()
        full = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)
    kept = np.zeros(limit + 1)
    kept[:n] = full[:n]
    tail = 1.0 - kept.sum()
    return Pmf(kept, tail_mass=max(tail, 0.0))


class Claims(NamedTuple):
    """An (a, b, 0) claim count, P[N = n] = (a + b/n) P[N = n - 1].

    ``log_pgf`` maps Q(z) to the log of the compound PGF, log G(z), for a
    scalar, a real array or a complex array; ``g0_formula`` and ``params``
    name the start value and the parameters in error messages.
    """

    a: float
    b: float
    log_pgf: Callable
    g0_formula: str
    params: str


def poisson_claims(intensity):
    """Poisson claim count: a = 0, b = intensity, log G = intensity (Q - 1)."""
    if not 0.0 <= intensity < math.inf:
        raise ValueError(f"intensity must be non-negative and finite, got {intensity}")
    return Claims(0.0, intensity, lambda w: intensity * (w - 1.0),
                  "exp(intensity * (q0 - 1))", f"intensity {intensity:g}")


def negbin_claims(alpha, delta):
    """Negative binomial claim count: a = delta, b = (alpha - 1) delta.

    log G is taken as alpha (log1p(-delta) - log1p(-delta Q)), so that alpha
    does not multiply the rounding error of 1 - delta.  The principal branch
    of the logarithm is the right one on the Fourier grid because
    Re(1 - delta*Q(w)) >= 1 - delta > 0 for |w| = 1.  numpy's complex
    log1p is log(1 + z) and can round log1p(-delta) one ulp away from the
    real one (by -8.9e-16 at delta = 0.99): for a complex Q the constant is
    taken from the complex routine as well, so that Q = 1 gives log G = 0
    exactly; alpha times that ulp (4.4e-14 at alpha = 50) would scale every
    entry of a sector whose severities are all 0.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    log_scale, log_scale_complex = math.log1p(-delta), np.log1p(complex(-delta))
    return Claims(delta, (alpha - 1.0) * delta,
                  lambda w: alpha * ((log_scale_complex if np.iscomplexobj(w) else log_scale)
                                     - np.log1p(-delta * w)),
                  "((1 - delta) / (1 - delta * q0)) ** alpha",
                  f"intensity {alpha * delta / (1.0 - delta):g}, alpha {alpha:g}, "
                  f"delta {delta!r}")


def compound_poisson(intensity, severity, limit):
    """Compound Poisson pmf with PGF G(z) = exp(intensity * (Q(z) - 1)).

    The (a, b, 0) claim count with a = 0, b = intensity; see ``_compound``
    for the method and its error bounds.  q_0 > 0 is supported (zero
    severities are legitimate), and so is a defective Q whose missing mass
    lies beyond L.
    """
    return _compound(poisson_claims(intensity), severity, limit)


def compound_negbin(alpha, delta, severity, limit):
    """Compound negative binomial pmf with PGF ((1-delta)/(1-delta*Q(z)))**alpha.

    The claim count is NB with success number parameter ``alpha`` and failure
    probability ``delta`` (``negbin_claims``); see ``_compound``.
    """
    return _compound(negbin_claims(alpha, delta), severity, limit)


def _compound(claims, severity, limit):
    """Compound pmf of an (a, b, 0) claim count with the given severity pmf.

    A zero claim count (a = b = 0) gives an exact point mass at 0.  For
    L + 1 < ``FFT_MIN_SIZE`` the pmf is Panjer's recursion (``panjer``,
    exact up to relative round-off) from g_0 = exp(log_pgf(q_0)), and
    UnderflowError is raised when g_0 is below the smallest normal double.

    From there on it is one inverse FFT of the closed-form PGF on a grid of
    N = ``grid_size`` points, so the aliased mass on the entries 0..L is at
    most ``ALIAS_FLOOR``: the rfft of the severity vector gives Q at the
    N-th roots of unity, ``claims.log_pgf`` its log-spectrum log G(Q) and
    ``from_spectrum`` inverts exp(log G).  No start value g_0 is needed, so
    large intensities do not underflow.  Round-off to first order: Q is off
    by about eps log2(N) per grid point and log G by mu times that (mu the
    mean claim count; for the negative binomial |d log G/dQ| <= mu because
    |1 - delta Q| >= 1 - delta), so an entry is off by at most eps log2(N)
    (1 + mu) mean|G| (see ``FFT_ABS_ERROR``).
    """
    if claims.a == 0.0 and claims.b == 0.0:
        return point_mass(0, limit)
    if limit + 1 >= FFT_MIN_SIZE:
        n = grid_size([(claims, severity)], limit, f"the compound pmf ({claims.params})")
        return from_spectrum(np.exp(claims.log_pgf(np.fft.rfft(severity.probs, n))), n, limit)
    return panjer([(claims, severity)], limit)[0]


def panjer(terms, limit):
    """The pmfs on {0..L} of several compounds by one batched recursion.

    ``terms`` are (``Claims``, severity ``Pmf``) pairs, as for
    ``aliasing_need``.  Raises UnderflowError, naming the first term (in
    order) whose start value g_0 = exp(log_pgf(q_0)) is below the smallest
    normal double.  Shorter severity vectors are padded with zeros to the
    longest; a term's values do not depend on the other terms in the batch
    (see ``_panjer``).
    """
    qs, g0 = [], []
    for claims, severity in terms:
        q = _trimmed(severity.probs)
        g = math.exp(claims.log_pgf(q[0]))
        if g < np.finfo(float).tiny:
            raise UnderflowError(
                f"Panjer start value g0 = {claims.g0_formula} = {g:g} underflows "
                f"({claims.params}, q0 {q[0]:g}); the recursion cannot represent this "
                "sector's loss distribution"
            )
        qs.append(q)
        g0.append(g)
    q = np.zeros((len(terms), max(v.size for v in qs)))
    for i, v in enumerate(qs):
        q[i, : v.size] = v
    a, b = np.array([claims[:2] for claims, _ in terms], dtype=float).T
    return [Pmf(g, tail_mass=max(1.0 - g.sum(), 0.0))
            for g in _panjer(a, b, np.array(g0), q, limit)]


def _panjer(a, b, g0, q, limit):
    """Panjer's recursion for R (a, b, 0) claim counts at once.

    ``a``, ``b`` and the start values ``g0`` are (R,) arrays and ``q`` the
    (R, m+1) severity matrix; the result is the (R, L+1) matrix of
    g_n = sum_{j=1}^{min(n, m)} (a + b j/n) q_j g_{n-j} / (1 - a q_0).
    The coefficients of all levels form one (L, m, R) array and g carries m
    leading zeros for g_{-m..-1}, so each level costs one product and one
    running sum over the R rows together.  The sum runs in sequence, from
    j = m down to 1 (``np.add.accumulate``, never a pairwise or blocked
    sum), so a row's zero padding only adds exact zeros in front of its own
    terms: its values are bit for bit those it gets alone.
    """
    r, m = q.shape[0], q.shape[1] - 1
    g = np.zeros((m + limit + 1, r))
    g[m] = g0
    if m:
        j = np.arange(m, 0, -1)[:, None]  # row i of a level multiplies g[n + i] = g_{n-j}
        n = np.arange(1, limit + 1)[:, None, None]
        coef = (a + b * j / n) * q[:, m:0:-1].T / (1.0 - a * q[:, 0])
        terms, sums = np.empty((m, r)), np.empty((m, r))
        for level in range(1, limit + 1):
            np.multiply(coef[level - 1], g[level : level + m], out=terms)
            np.add.accumulate(terms, axis=0, out=sums)
            g[m + level] = sums[-1]
    return np.ascontiguousarray(g[m:].T)


@functools.lru_cache(maxsize=4)
def unit_roots(n):
    """w^j = exp(-2 pi i j / n) for j = 0..n - 1, n a power of two.

    Entries 0..n/2 are the rfft of a unit impulse at 1, the FFT's own
    twiddle factors, closer to the exact roots than ``np.exp`` of the
    rounded angles; entry n - j is their conjugate conj(w^j), so
    ``points_spectrum`` reads w^r for any r mod n directly.  Read-only and
    kept for the last few grid sizes (16 n bytes each, 131 072 at n =
    8192), so every engine on an n-point grid shares one table.
    """
    impulse = np.zeros(n)
    impulse[1] = 1.0
    half = np.fft.rfft(impulse)
    roots = np.concatenate([half, np.conj(half[-2:0:-1])])
    roots.setflags(write=False)
    return roots


def points_spectrum(points, roots, limit):
    """rfft(from_dict(points, limit).probs, n) from the {loss: probability}
    ``points`` themselves, on the n-point grid of ``roots = unit_roots(n)``.

    At frequency j = 0..n/2 it is sum_v p_v w^(j v) over the losses v <= L,
    w^(j v) read from ``roots`` at (j v) mod n through one index buffer, so
    a severity of m points costs m gathers of n/2 + 1 roots instead of an
    (L + 1)-point pmf and an n-point rfft; the two agree to a few ulps.
    Losses beyond L are dropped, as ``from_dict`` moves them to the tail:
    with none left the spectrum is 0.  Raises ValueError as ``from_dict``
    does for a loss that is not a non-negative integer.
    """
    n = roots.size
    out = np.zeros(n // 2 + 1, dtype=complex)
    freq = np.arange(n // 2 + 1)
    power = np.empty_like(freq)
    for x, p in points.items():
        if x < 0 or x != int(x):
            raise ValueError(f"support point {x} is not a non-negative integer")
        if x > limit:
            continue
        if x == 0:
            out += p  # w^0 = 1
            continue
        np.multiply(freq, int(x), out=power)
        power &= n - 1  # j v mod n, n a power of two
        out += p * roots.take(power)
    return out


def from_spectrum(spectrum, n, limit):
    """The pmf on {0..L} of the rfft ``spectrum`` of an n-point circular pmf
    sum_j P[X = x + jn]: one irfft, its first L + 1 entries kept."""
    g = np.fft.irfft(spectrum, n)[: limit + 1]
    return Pmf(g, tail_mass=max(1.0 - g.sum(), 0.0))


def aliasing_need(terms):
    """The Chernoff need nu: P[X >= N] <= ALIAS_FLOOR for every N >= nu.

    ``terms`` are the (``Claims``, severity ``Pmf``) pairs of independent
    compounds; X is their sum, with log G(z) = sum_k log G_k(Q_k(z)).
    P[X >= N] <= G(e^t) e^(-tN) for every t > 0 (Chernoff; it holds for a
    defective Q as well), so N >= phi(t) = (log G(e^t) - log ALIAS_FLOOR) /
    t suffices; nu is the smallest phi over 96 log-spaced t, and
    G(e^t) e^(-t nu) = ALIAS_FLOOR at the t that gives it.  Every t gives a
    valid bound, so a coarse set of t can only enlarge nu.  nu is 1 when G
    is constant (all mass at 0) and inf when every t passes a pole.
    """
    terms = [(claims, _trimmed(severity.probs)) for claims, severity in terms]
    m = max((q.size for _, q in terms), default=1)
    if m == 1:
        return 1.0
    # t * (m - 1) <= 700 keeps exp(t j) finite.
    t = np.geomspace(1e-9, 700.0 / (m - 1), 96)
    # Past a negative binomial's pole (delta Q(e^t) >= 1) log G is undefined
    # (nan or inf), and for large t it may overflow: the bound is infinite
    # there.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(np.outer(t, np.arange(m)))
        k = sum(claims.log_pgf(e[:, : q.size] @ q) for claims, q in terms)
        return float(np.min(np.where(k < math.inf, (k - math.log(ALIAS_FLOOR)) / t, math.inf)))


def grid_size(terms, limit, what, need=None):
    """Smallest power of two N > L with N >= ``aliasing_need(terms)``.

    N > L, so that rfft takes every entry 0..L of a severity vector.  The
    circular grid folds P[X = x + jN] onto x, so the error it adds to the
    entries 0..L sums to at most P[X >= N] <= ALIAS_FLOOR.  A caller that
    sizes for more than ``terms`` (``LossEngine._grid``) passes its own
    ``need``.  Raises AliasingError, naming ``what`` and L, when the need or
    N (> L) exceeds MAX_GRID.
    """
    need = aliasing_need(terms) if need is None else need
    if need > MAX_GRID:  # first: math.ceil(inf) raises
        raise AliasingError(
            f"{what} at L={limit} needs a Fourier grid of {need:.3g} points to keep "
            f"the aliased mass below {ALIAS_FLOOR:g}, above MAX_GRID = {MAX_GRID}"
        )
    n = 1 << max(limit, math.ceil(need) - 1).bit_length()
    if n > MAX_GRID:
        raise AliasingError(f"{what} at L={limit} needs a Fourier grid of {n} points (> L), "
                            f"above MAX_GRID = {MAX_GRID}")
    return n


def mean(p):
    """First moment over the truncated support."""
    return float(np.dot(np.arange(p.probs.size), p.probs))


def variance(p):
    """Second central moment over the truncated support."""
    x = np.arange(p.probs.size)
    m = np.dot(x, p.probs)
    return float(np.dot(x * x, p.probs) - m * m)


def quantile(p, theta, cdf=None):
    """Smallest x with P[X <= x] >= theta; ``cdf`` is ``p.cdf()`` when the
    caller already has it."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    cdf = p.cdf() if cdf is None else cdf
    idx = np.searchsorted(cdf, theta, side="left")
    if idx >= cdf.size:
        raise TruncationError(
            f"theta={theta} unreachable: truncated mass {cdf[-1]:.17g} "
            f"(tail_mass={p.tail_mass:g})",
            tail_mass=p.tail_mass,
        )
    return int(idx)


def expected_shortfall(p, theta):
    """Discrete expected shortfall with the boundary adjustment.

    ES = (1/(1-theta)) * (sum_{x>q} x p[x] + q * (CDF(q) - theta)) with
    q the theta-quantile (``shortfall``).
    """
    return shortfall(p.probs, theta, quantile(p, theta), np.arange(p.probs.size, dtype=float))


def shortfall(probs, theta, q, x):
    """``expected_shortfall`` of the pmf ``probs`` at theta, given its
    theta-quantile q and the losses x = 0..L as floats."""
    tail_exp = float(np.dot(x[q + 1 :], probs[q + 1 :]))
    cdf_q = float(probs[: q + 1].sum())
    return (tail_exp + q * (cdf_q - theta)) / (1.0 - theta)


def to_csv(p):
    """Serialize as ``x,probability`` rows plus a trailing tail-mass comment."""
    lines = ["x,probability"]
    lines.extend(map("{},{:.17g}".format, range(p.probs.size), p.probs.tolist()))
    lines.append(f"# tail_mass={p.tail_mass:.17g}")
    return "\n".join(lines) + "\n"
