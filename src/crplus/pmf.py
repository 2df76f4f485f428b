"""Dense truncated probability mass functions over integer losses.

All distributions in the engine are carried as dense vectors on {0, ..., L}
with the probability mass beyond L tracked explicitly as ``tail_mass``.
Compound distributions are built with the (a, b, 0) Panjer recursion;
convolutions run direct or, for long inputs, through the FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Negative entries larger than this magnitude are treated as data errors,
# smaller ones as round-off and clipped to 0.
_NEG_TOL = 1e-12

# Shorter trimmed input length from which convolve uses the FFT.  Measured
# with one BLAS thread on a 2-core x86 host (numpy 2.4): direct convolution
# of two n-point vectors wins below n = 400-500 (n = 400: 31 us direct, 43 us
# FFT; n = 1000: 144 us vs 69 us; n = 8000: 12.6 ms vs 0.58 ms), and an
# 8001-point vector times an m-point one stays about even up to m = 800.
FFT_MIN_SIZE = 500


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


def _check_start(g0, formula, params):
    if g0 < np.finfo(float).tiny:
        raise UnderflowError(
            f"Panjer start value g0 = {formula} = {g0:g} underflows ({params}); "
            "the recursion cannot represent this sector's loss distribution"
        )


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
        if probs.min() < -_NEG_TOL:
            raise ValueError(f"negative probability {probs.min():g} beyond round-off")
        probs = np.maximum(probs, 0.0)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tail_mass", float(self.tail_mass))
        if self.tail_mass < -1e-10:
            raise ValueError(f"negative tail mass {self.tail_mass:g}")
        total = probs.sum() + self.tail_mass
        if abs(total - 1.0) > 1e-8:
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
    probs = np.zeros(limit + 1)
    if value <= limit:
        probs[value] = 1.0
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
    bound, 1e-19 to 1e-17 per entry for pmfs summing to 1).  On the
    criterion-12 base times one kernel at L = 50 000 the FFT result differed
    from direct convolution by at most 1.7e-18 absolute and 1.6e-7 relative
    where p > 1e-12, with identical 0.95 / 0.99 / 0.999 quantiles.  Entries
    below that level, structural zeros (impossible loss levels) included,
    come back as round-off noise; negative noise is clipped to 0.
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


def compound_poisson(intensity, severity, limit):
    """Compound Poisson pmf via Panjer with (a, b) = (0, intensity).

    g_0 = exp(intensity * (q_0 - 1)); g_n = (intensity/n) * sum_j j q_j g_{n-j}.
    q_0 > 0 is supported (zero severities are legitimate).
    """
    if intensity < 0:
        raise ValueError(f"negative intensity {intensity}")
    q = _trimmed(severity.probs)
    g = np.zeros(limit + 1)
    g[0] = np.exp(intensity * (q[0] - 1.0))
    _check_start(g[0], "exp(intensity * (q0 - 1))", f"intensity {intensity:g}, q0 {q[0]:g}")
    if intensity > 0 and q.size > 1:
        jq = np.arange(q.size) * q
        m = q.size - 1
        for n in range(1, limit + 1):
            k = min(n, m)
            g[n] = (intensity / n) * np.dot(jq[1 : k + 1], g[n - k : n][::-1])
    return Pmf(g, tail_mass=max(1.0 - g.sum(), 0.0))


def compound_negbin(alpha, delta, severity, limit):
    """Compound negative binomial pmf via Panjer with a = delta, b = (alpha-1)*delta.

    The claim count is NB with success number parameter ``alpha`` and failure
    probability ``delta``; g_0 = ((1-delta)/(1-delta*q_0))**alpha.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if delta == 0.0:
        return point_mass(0, limit)
    q = _trimmed(severity.probs)
    g = np.zeros(limit + 1)
    g[0] = ((1.0 - delta) / (1.0 - delta * q[0])) ** alpha
    _check_start(g[0], "((1 - delta) / (1 - delta * q0)) ** alpha",
                 f"intensity {alpha * delta / (1.0 - delta):g}, alpha {alpha:g}, "
                 f"delta {delta:g}, q0 {q[0]:g}")
    if q.size > 1:
        a, b = delta, (alpha - 1.0) * delta
        scale = 1.0 / (1.0 - a * q[0])
        aq = a * q
        bjq = b * np.arange(q.size) * q
        m = q.size - 1
        for n in range(1, limit + 1):
            k = min(n, m)
            rev = g[n - k : n][::-1]
            g[n] = scale * (np.dot(aq[1 : k + 1], rev) + np.dot(bjq[1 : k + 1], rev) / n)
    return Pmf(g, tail_mass=max(1.0 - g.sum(), 0.0))


def mean(p):
    """First moment over the truncated support."""
    return float(np.dot(np.arange(p.probs.size), p.probs))


def variance(p):
    """Second central moment over the truncated support."""
    x = np.arange(p.probs.size)
    m = np.dot(x, p.probs)
    return float(np.dot(x * x, p.probs) - m * m)


def quantile(p, theta):
    """Smallest x with P[X <= x] >= theta."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    cdf = p.cdf()
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
    q the theta-quantile.
    """
    q = quantile(p, theta)
    x = np.arange(p.probs.size)
    tail_exp = float(np.dot(x[q + 1 :], p.probs[q + 1 :]))
    cdf_q = float(p.probs[: q + 1].sum())
    return (tail_exp + q * (cdf_q - theta)) / (1.0 - theta)


def to_csv(p):
    """Serialize as ``x,probability`` rows plus a trailing tail-mass comment."""
    lines = ["x,probability"]
    lines.extend(f"{x},{v:.17g}" for x, v in enumerate(p.probs))
    lines.append(f"# tail_mass={p.tail_mass:.17g}")
    return "\n".join(lines) + "\n"


def from_csv(text):
    """Parse the CSV layout written by :func:`to_csv`."""
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
