import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from crplus import pmf as pm
from crplus.pmf import AliasingError, Pmf, TruncationError, UnderflowError

from conftest import from_csv, half_table_spectrum, panjer_negbin, panjer_poisson


def pmf_of(d, limit):
    return pm.from_dict(d, limit)


# ---------------------------------------------------------------- convolve

def test_convolve_symmetric_bernoulli():
    a = pmf_of({0: 0.5, 1: 0.5}, 4)
    out = pm.convolve(a, a)
    np.testing.assert_allclose(out.probs[:3], [0.25, 0.5, 0.25], atol=1e-15)


def test_convolve_identity_element():
    a = pmf_of({1: 0.3, 4: 0.7}, 10)
    out = pm.convolve(a, pm.point_mass(0, 10))
    np.testing.assert_array_equal(out.probs, a.probs)


def test_convolve_truncation_accounting():
    a = pmf_of({0: 0.9, 10: 0.1}, 15)
    out = pm.convolve(a, a)
    assert out[0] == pytest.approx(0.81)
    assert out[10] == pytest.approx(0.18)
    assert out.tail_mass == pytest.approx(0.01)


def test_convolve_rejects_mismatched_limits():
    with pytest.raises(ValueError, match="truncation limits"):
        pm.convolve(pm.point_mass(0, 5), pm.point_mass(0, 6))


@pytest.mark.parametrize("value", [-1, 1.5])
def test_point_mass_rejects_a_negative_or_fractional_value(value):
    # Index -1 would put the mass at L: the value is rejected as from_dict does.
    for build in (lambda: pm.point_mass(value, 10), lambda: pm.from_dict({value: 1.0}, 10)):
        with pytest.raises(ValueError, match=f"support point {value} is not a non-negative"):
            build()


def test_point_mass_beyond_limit_is_tail():
    out = pm.point_mass(12, 10)
    assert out.tail_mass == 1.0 and not out.probs.any()


@st.composite
def small_pmfs(draw, limit=12):
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    support = draw(st.lists(st.integers(0, limit), min_size=n, max_size=n, unique=True))
    total = sum(weights)
    return pm.from_dict({x: w / total for x, w in zip(support, weights)}, limit)


@given(small_pmfs(), small_pmfs())
def test_convolve_commutative(a, b):
    ab, ba = pm.convolve(a, b), pm.convolve(b, a)
    np.testing.assert_allclose(ab.probs, ba.probs, atol=1e-12)


@given(small_pmfs(), small_pmfs(), small_pmfs())
def test_convolve_associative(a, b, c):
    left = pm.convolve(pm.convolve(a, b), c)
    right = pm.convolve(a, pm.convolve(b, c))
    np.testing.assert_allclose(left.probs, right.probs, atol=1e-12)


@given(small_pmfs(), small_pmfs())
def test_convolve_mass_conserved(a, b):
    out = pm.convolve(a, b)
    assert abs(out.probs.sum() + out.tail_mass - 1.0) < 1e-10


@pytest.mark.parametrize("shape", ["negbin", "geometric"])
def test_convolve_fft_matches_direct_at_large_limit(shape):
    limit = 8000
    x = np.arange(limit + 1)
    if shape == "negbin":
        a = stats.nbinom.pmf(x, 20, 20 / 1520)  # mean 1500
        b = stats.nbinom.pmf(x, 50, 50 / 2550)  # mean 2500
    else:
        a = 0.002 * 0.998**x  # long geometric tail, 1e-7 left beyond L
        b = stats.nbinom.pmf(x, 3, 3 / 603)
    a, b = (Pmf(v, tail_mass=max(1.0 - v.sum(), 0.0)) for v in (a, b))
    assert min(np.flatnonzero(v.probs)[-1] + 1 for v in (a, b)) >= pm.FFT_MIN_SIZE
    out = pm.convolve(a, b)
    direct = np.convolve(a.probs, b.probs)[: limit + 1]
    assert np.max(np.abs(out.probs - direct)) <= 1e-15
    assert out.probs.sum() == pytest.approx(direct.sum(), abs=1e-13)
    assert abs(out.probs.sum() + out.tail_mass - 1.0) < 1e-12
    ref = Pmf(direct, tail_mass=max(1.0 - direct.sum(), 0.0))
    for theta in (0.95, 0.99, 0.999):
        assert pm.quantile(out, theta) == pm.quantile(ref, theta)


# ------------------------------------------------------- compound Poisson

def test_compound_poisson_on_atoms():
    out = pm.compound_poisson(0.2, pm.point_mass(2, 20), 20)
    assert out[0] == pytest.approx(math.exp(-0.2), abs=1e-15)
    assert out[1] == 0.0
    assert out[2] == pytest.approx(0.2 * math.exp(-0.2), abs=1e-15)
    assert out[4] == pytest.approx(0.02 * math.exp(-0.2), abs=1e-15)


def test_compound_poisson_zero_intensity():
    out = pm.compound_poisson(0.0, pmf_of({1: 0.5, 2: 0.5}, 10), 10)
    assert out[0] == 1.0 and out.probs[1:].sum() == 0.0


def test_compound_poisson_zero_severity_collapses():
    out = pm.compound_poisson(5.0, pm.point_mass(0, 10), 10)
    assert out[0] == pytest.approx(1.0)
    assert out.probs[1:].sum() == 0.0


def test_compound_poisson_negative_intensity_rejected():
    with pytest.raises(ValueError, match="intensity"):
        pm.compound_poisson(-0.1, pm.point_mass(1, 5), 5)


def test_compound_poisson_with_zero_severity_mass_is_thinned_poisson():
    # Bernoulli(1/2) severities thin the claim count: result is Poisson(lam/2).
    lam = 1.7
    out = pm.compound_poisson(lam, pmf_of({0: 0.5, 1: 0.5}, 40), 40)
    target = stats.poisson.pmf(np.arange(41), lam / 2)
    np.testing.assert_allclose(out.probs, target, atol=1e-13)


# ------------------------------------------------ compound negative binomial

def test_compound_negbin_geometric():
    out = pm.compound_negbin(1.0, 1 / 11, pm.point_mass(1, 50), 50)
    n = np.arange(51)
    np.testing.assert_allclose(out.probs, (10 / 11) * (1 / 11) ** n, atol=1e-15)


def test_compound_negbin_closed_form_termwise():
    alpha, delta = 2.5, 0.3
    out = pm.compound_negbin(alpha, delta, pm.point_mass(1, 50), 50)
    target = stats.nbinom.pmf(np.arange(51), alpha, 1 - delta)
    np.testing.assert_allclose(out.probs, target, atol=1e-12)


def test_compound_negbin_zero_delta():
    out = pm.compound_negbin(2.0, 0.0, pmf_of({1: 0.5, 3: 0.5}, 10), 10)
    assert out[0] == 1.0


def test_compound_negbin_zero_severity_collapses():
    out = pm.compound_negbin(2.0, 0.4, pm.point_mass(0, 10), 10)
    assert out[0] == pytest.approx(1.0, abs=1e-15)
    assert out.probs[1:].sum() == 0.0


def test_compound_negbin_with_zero_severity_mass_is_thinned_negbin():
    # Bernoulli(q) severities: NB(alpha, delta) thins to NB(alpha, delta')
    # with delta' = delta q / (1 - delta (1 - q)).
    alpha, delta, q = 1.3, 0.35, 0.6
    out = pm.compound_negbin(alpha, delta, pmf_of({0: 1 - q, 1: q}, 40), 40)
    d2 = delta * q / (1 - delta * (1 - q))
    target = stats.nbinom.pmf(np.arange(41), alpha, 1 - d2)
    np.testing.assert_allclose(out.probs, target, atol=1e-13)


def test_compound_negbin_parameter_checks():
    sev = pm.point_mass(1, 5)
    with pytest.raises(ValueError, match="delta"):
        pm.compound_negbin(1.0, 1.0, sev, 5)
    with pytest.raises(ValueError, match="alpha"):
        pm.compound_negbin(0.0, 0.5, sev, 5)


def test_compound_parameters_reject_nan_and_infinity():
    sev = pm.point_mass(1, 5)
    for intensity in (math.nan, math.inf):
        with pytest.raises(ValueError, match="intensity"):
            pm.compound_poisson(intensity, sev, 5)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            pm.compound_negbin(alpha, 0.5, sev, 5)
    with pytest.raises(ValueError, match="delta"):
        pm.compound_negbin(1.0, math.nan, sev, 5)


@pytest.mark.parametrize("limit", [pm.FFT_MIN_SIZE - 2, pm.FFT_MIN_SIZE + 100])
def test_zero_claim_count_is_an_exact_point_mass(limit):
    # a = b = 0 in the (a, b, 0) class: no claims, on both sides of the
    # FFT threshold, whatever the severity.
    sev = pmf_of({0: 0.2, 1: 0.3, 7: 0.5}, limit)
    point = pm.point_mass(0, limit)
    for out in (pm.compound_poisson(0.0, sev, limit), pm.compound_negbin(2.5, 0.0, sev, limit),
                pm.compound_negbin(1.0, 0.0, sev, limit)):
        np.testing.assert_array_equal(out.probs, point.probs)
        assert out.tail_mass == 0.0


def test_panjer_start_value_underflow_is_reported():
    # g0 = exp(-800) and 0.5**2000 are below the smallest normal double:
    # the recursion would return an all-zero pmf with tail mass 1.
    sev = pm.point_mass(1, 50)
    with pytest.raises(UnderflowError, match=r"g0 = exp.*intensity 800"):
        pm.compound_poisson(800.0, sev, 50)
    with pytest.raises(UnderflowError, match=r"g0 = \(\(1 - delta\).*intensity 2000"):
        pm.compound_negbin(2000.0, 0.5, sev, 50)
    assert pm.compound_poisson(700.0, sev, 50)[0] == pytest.approx(np.exp(-700.0))


@pytest.mark.parametrize("q0", [0.0, 0.3, 0.7])
def test_panjer_negbin_start_value_is_exact_near_delta_zero(q0):
    # ((1 - delta) / (1 - delta q0))**alpha carries alpha times the rounding
    # of 1 - delta: 2.2e-15 off at q0 = 0.  The log1p form is within 1 ulp.
    mpmath = pytest.importorskip("mpmath")
    alpha, delta = 44.06, 1e-8
    with mpmath.workdps(50):
        d = mpmath.mpf(delta)
        exact = mpmath.power((1 - d) / (1 - d * mpmath.mpf(q0)), mpmath.mpf(alpha))
        sev = pmf_of({0: q0, 1: 1.0 - q0}, 20)
        g0 = pm.compound_negbin(alpha, delta, sev, 20)[0]
        assert abs(float(g0 - exact)) <= math.ulp(1.0)


# ------------------------------------------------------- batched Panjer pass

@st.composite
def panjer_batches(draw):
    """A batch of compound rows below FFT_MIN_SIZE, with their reference pmfs."""
    limit = draw(st.integers(0, 150))
    rows, refs = [], []
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.integers(0, 12))  # mixed severity lengths across the batch
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=m + 1, max_size=m + 1))
        if not draw(st.booleans()):
            weights[0] = 0.0  # q0 > 0 in about half the rows
        weights[-1] = max(weights[-1], 0.05)
        total = sum(weights)
        # Support beyond L goes to the tail: a defective Q, as assemble makes.
        severity = pmf_of({x: w / total for x, w in enumerate(weights)}, limit)
        kind = draw(st.sampled_from(["poisson", "negbin", "point mass"]))
        if kind == "poisson":
            intensity = draw(st.floats(0.001, 30.0))
            claims, ref = pm.poisson_claims(intensity), panjer_poisson(intensity, severity, limit)
        elif kind == "negbin":
            # alpha < 1 makes b < 0; delta up to 0.999 is near 1.
            alpha = draw(st.sampled_from([0.05, 0.5, 0.999, 1.0, 2.5, 5.0]))
            delta = draw(st.sampled_from([1e-8, 0.1, 0.5, 0.9, 0.999]))
            claims = pm.negbin_claims(alpha, delta)
            ref = panjer_negbin(alpha, delta, severity, limit)
        else:  # mu = 0: no claims
            claims, ref = pm.poisson_claims(0.0), pm.point_mass(0, limit)
        rows.append((claims, severity))
        refs.append(ref)
    return rows, refs, limit


@settings(max_examples=60, deadline=None)
@given(panjer_batches())
def test_batched_panjer_matches_the_scalar_reference(batch):
    rows, refs, limit = batch
    for out, ref in zip(pm.panjer(rows, limit), refs):
        assert out.truncation_limit == limit
        np.testing.assert_array_equal(out.probs == 0.0, ref.probs == 0.0)
        nonzero = ref.probs != 0.0
        rel = np.abs(out.probs[nonzero] - ref.probs[nonzero]) / ref.probs[nonzero]
        assert np.all(rel <= 1e-14)
        assert out.tail_mass == pytest.approx(ref.tail_mass, rel=1e-12, abs=1e-15)


def test_batched_row_is_bitwise_independent_of_its_batch():
    limit = 180
    short = (pm.negbin_claims(0.6, 0.8), pmf_of({0: 0.1, 2: 0.9}, limit))
    others = [
        (pm.poisson_claims(3.0), pmf_of({1: 0.2, 9: 0.5, 17: 0.3}, limit)),
        (pm.negbin_claims(1.0, 0.95), pmf_of({5: 1.0}, limit)),
        (pm.poisson_claims(0.0), pm.point_mass(0, limit)),
    ]
    (alone,) = pm.panjer([short], limit)
    for batch in ([short] + others, others + [short], [others[0], short, others[1]]):
        (inside,) = [out for row, out in zip(batch, pm.panjer(batch, limit)) if row is short]
        assert inside.probs.tobytes() == alone.probs.tobytes()
        assert inside.tail_mass == alone.tail_mass
    # compound_* is the batch of one row.
    assert pm.compound_negbin(0.6, 0.8, pmf_of({0: 0.1, 2: 0.9}, limit),
                              limit).probs.tobytes() == alone.probs.tobytes()


# ------------------------------------------- Fourier path vs Panjer and scipy

def test_compound_below_fft_min_size_is_panjer():
    limit = pm.FFT_MIN_SIZE - 2
    sev = pmf_of({0: 0.2, 3: 0.5, 11: 0.3}, limit)
    np.testing.assert_array_equal(pm.compound_poisson(40.0, sev, limit).probs,
                                  panjer_poisson(40.0, sev, limit).probs)
    np.testing.assert_array_equal(pm.compound_negbin(0.7, 0.9, sev, limit).probs,
                                  panjer_negbin(0.7, 0.9, sev, limit).probs)


def test_fourier_poisson_800_matches_scipy():
    # g0 = exp(-800) underflows, so Panjer cannot compute this sector at all;
    # the tolerance is scipy's own error here (1.7e-14), not the Fourier one.
    limit = 1140
    out = pm.compound_poisson(800.0, pm.point_mass(1, limit), limit)
    x = np.arange(limit + 1)
    np.testing.assert_allclose(out.probs, stats.poisson.pmf(x, 800), rtol=0, atol=1e-13)
    assert out.tail_mass == pytest.approx(stats.poisson.sf(limit, 800), abs=1e-12)


def test_fourier_negbin_heavy_tail_matches_scipy():
    # NB(0.5, 0.999) keeps 4.5 % of its mass beyond L = 2000 and decays like
    # 0.999**n: a fixed grid of 2(L + 1) -> 4096 points is off by 4.7e-6, so
    # this fails without the aliasing guard.
    limit = 2000
    out = pm.compound_negbin(0.5, 0.999, pm.point_mass(1, limit), limit)
    x = np.arange(limit + 1)
    np.testing.assert_allclose(out.probs, stats.nbinom.pmf(x, 0.5, 0.001),
                               rtol=0, atol=pm.FFT_ABS_ERROR)
    assert out.tail_mass == pytest.approx(stats.nbinom.sf(limit, 0.5, 0.001), abs=1e-12)


def test_fourier_negbin_of_zero_severities_is_exactly_a_point_mass():
    # numpy's complex log1p(-0.99) is one ulp below the real log1p: with the
    # real constant in log G, alpha = 50 scaled the point mass by 1 + 4.4e-14.
    out = pm.compound_negbin(50.0, 0.99, pm.point_mass(0, 600), 600)
    assert out.probs[0] == 1.0 and not out.probs[1:].any()
    assert out.tail_mass == 0.0


def test_fourier_grid_cap_raises():
    with pytest.raises(AliasingError, match="MAX_GRID"):
        pm.compound_negbin(1.0, 1.0 - 1e-7, pm.point_mass(1, 600), 600)


@pytest.mark.parametrize("n, limit", [(512, 499), (1024, 600), (8192, 8000)])
def test_points_spectrum_is_the_rfft_of_the_severity_pmf(n, limit):
    eps = np.finfo(float).eps
    roots = pm.unit_roots(n)
    # All n roots against exp(-2 pi i j / n) in extended precision (x86: 64-bit mantissa).
    angle = 2 * np.longdouble("3.14159265358979323846264338327950288") * np.arange(n) / n
    exact = np.cos(angle).astype(float) - 1j * np.sin(angle).astype(float)
    assert roots.shape == (n,) and not roots.flags.writeable
    assert np.max(np.abs(roots - exact)) <= 3 * eps
    # The upper half is bitwise the conjugate of the lower: w^(n - j) = conj(w^j).
    assert roots[: n // 2 : -1].tobytes() == np.conj(roots[1 : n // 2]).tobytes()
    cases = [{0: 1.0}, {limit: 1.0}, {1: 1.0}, {n // 2: 0.5, n // 2 + 1: 0.5},
             {0: 0.2, 7: 0.3, limit: 0.5},
             {3: 0.25, limit + 1: 0.5, 10**30: 0.25},  # losses beyond L are dropped
             {limit + 1: 0.4, 2 * limit: 0.6},  # every loss beyond L: the spectrum is 0
             {37.0: 0.5, np.int64(101): 0.5}]
    for points in cases:
        want = np.fft.rfft(pm.from_dict(points, limit).probs, n)
        got = pm.points_spectrum(points, roots, limit)
        assert np.max(np.abs(got - want)) <= 8 * eps, points
    np.testing.assert_array_equal(pm.points_spectrum({limit + 1: 1.0}, roots, limit), 0.0)
    for loss in (-1, 1.5):
        with pytest.raises(ValueError, match="not a non-negative integer"):
            pm.points_spectrum({loss: 1.0}, roots, limit)


@st.composite
def severity_points(draw):
    """(points, n, L): 1-5 losses, among them the edges 0, L, L + 1, n/2,
    n/2 + 1 and multiples of n, on grids of 512 to 16384 points."""
    n = 1 << draw(st.integers(9, 14))
    limit = draw(st.integers(n // 2, n - 1))
    edges = st.sampled_from([0, limit, limit + 1, n // 2, n // 2 + 1])
    losses = draw(st.lists(st.one_of(edges, st.integers(1, 4).map(lambda k: k * n),
                                     st.integers(0, limit)),
                           min_size=1, max_size=5, unique=True))
    probs = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(losses), max_size=len(losses)))
    total = sum(probs)
    return {x: p / total for x, p in zip(losses, probs)}, n, limit


@settings(max_examples=200, deadline=None)
@given(severity_points())
def test_points_spectrum_is_bitwise_the_half_table_gather(case):
    points, n, limit = case
    half = np.fft.rfft(np.eye(1, n, 1)[0])  # w^0..w^(n/2): the rfft of a unit impulse at 1
    want = half_table_spectrum(points, half, limit)
    assert pm.points_spectrum(points, pm.unit_roots(n), limit).tobytes() == want.tobytes()


@st.composite
def fourier_cases(draw):
    limit = draw(st.integers(pm.FFT_MIN_SIZE - 1, 4000))
    n = draw(st.integers(1, 4))
    support = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    # Severity mass beyond L makes Q defective, as assemble does.
    beyond = draw(st.sampled_from([0.0, 0.1]))
    total = sum(weights) / (1.0 - beyond)
    probs = {x: w / total for x, w in zip(support, weights)}
    if beyond:
        probs[limit + 7] = beyond
    severity = pm.from_dict(probs, limit)
    if draw(st.booleans()):
        intensity = draw(st.floats(0.0, 700.0))
        return (pm.compound_poisson, panjer_poisson, (intensity,), severity, limit)
    alpha = draw(st.floats(0.01, 50.0))
    delta = draw(st.floats(0.0, 0.999))
    assume(delta > 0.0 and alpha * delta / (1.0 - delta) <= 700.0)
    return (pm.compound_negbin, panjer_negbin, (alpha, delta), severity, limit)


def _quantile_or_none(p, theta):
    try:
        return pm.quantile(p, theta)
    except TruncationError:
        return None


@settings(max_examples=30, deadline=None)
@given(fourier_cases())
def test_fourier_path_matches_panjer_reference(case):
    fourier, panjer, params, severity, limit = case
    out, ref = fourier(*params, severity, limit), panjer(*params, severity, limit)
    assert np.max(np.abs(out.probs - ref.probs)) <= pm.FFT_ABS_ERROR
    assert out.tail_mass == pytest.approx(ref.tail_mass, abs=1e-12)
    for theta in (0.95, 0.99, 0.999):
        assert _quantile_or_none(out, theta) == _quantile_or_none(ref, theta)


# ------------------------------------------------------ Panjer vs naive oracle

def naive_compound(count_pmf, severity, limit, max_claims):
    """Explicit enumeration sum_m P[T=m] * severity^{*m}; independent oracle."""
    out = np.zeros(limit + 1)
    conv = np.zeros(limit + 1)
    conv[0] = 1.0
    for m in range(max_claims + 1):
        out += count_pmf(m) * conv
        conv = np.convolve(conv, severity.probs)[: limit + 1]
    return out


@st.composite
def positive_severities(draw):
    n = draw(st.integers(1, 4))
    support = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    return pm.from_dict({x: w / total for x, w in zip(support, weights)}, 12)


@settings(max_examples=40)
@given(positive_severities(), st.floats(0.05, 1.0))
def test_panjer_poisson_matches_naive_enumeration(severity, lam):
    out = pm.compound_poisson(lam, severity, 12)
    naive = naive_compound(lambda m: stats.poisson.pmf(m, lam), severity, 12, 10)
    # Severities are >= 1, so losses <= 10 need at most 10 claims: exact there.
    np.testing.assert_allclose(out.probs[:11], naive[:11], atol=1e-10)


@settings(max_examples=40)
@given(positive_severities(), st.floats(0.2, 3.0), st.floats(0.05, 1.0))
def test_panjer_negbin_matches_naive_enumeration(severity, alpha, mu):
    delta = mu / (mu + alpha)
    out = pm.compound_negbin(alpha, delta, severity, 12)
    naive = naive_compound(lambda m: stats.nbinom.pmf(m, alpha, 1 - delta), severity, 12, 10)
    np.testing.assert_allclose(out.probs[:11], naive[:11], atol=1e-10)


# --------------------------------------------------------------- moments

def test_mean_variance_examples():
    p = pmf_of({0: 0.5, 2: 0.5}, 5)
    assert pm.mean(p) == pytest.approx(1.0)
    assert pm.variance(p) == pytest.approx(1.0)
    q = pm.point_mass(7, 10)
    assert pm.mean(q) == 7.0 and pm.variance(q) == 0.0


def test_negbin_mean_identity():
    out = pm.compound_negbin(1.0, 1 / 11, pm.point_mass(1, 80), 80)
    assert pm.mean(out) == pytest.approx(0.1, abs=1e-9)


@settings(max_examples=25)
@given(positive_severities(), st.floats(0.05, 0.8))
def test_compound_poisson_mean_identity(severity, lam):
    out = pm.compound_poisson(lam, severity, 150)
    limit_sev = pm.from_dict(
        {x: p for x, p in enumerate(severity.probs) if p > 0}, 150)
    assert out.tail_mass < 1e-12
    assert pm.mean(out) == pytest.approx(lam * pm.mean(limit_sev), abs=1e-9)


# --------------------------------------------------- quantiles and shortfall

def test_quantile_examples():
    p = pmf_of({0: 0.5, 1: 0.3, 2: 0.2}, 5)
    assert pm.quantile(p, 0.75) == 1
    assert pm.quantile(p, 0.5) == 0
    assert pm.quantile(pm.point_mass(4, 6), 0.37) == 4


def test_quantile_unreachable_theta():
    p = Pmf(np.array([0.5, 0.2]), tail_mass=0.3)
    with pytest.raises(TruncationError):
        pm.quantile(p, 0.9)


def test_expected_shortfall_examples():
    p = pmf_of({0: 0.5, 1: 0.3, 2: 0.2}, 5)
    assert pm.expected_shortfall(p, 0.75) == pytest.approx(1.8)
    assert pm.expected_shortfall(pm.point_mass(4, 6), 0.99) == pytest.approx(4.0)
    q = pmf_of({0: 0.5, 1: 0.5}, 3)
    assert pm.expected_shortfall(q, 0.5) == pytest.approx(1.0)


# ------------------------------------------------------------- serialization

def test_csv_round_trip():
    p = pm.compound_poisson(0.7, pmf_of({1: 0.4, 3: 0.6}, 9), 9)
    back = from_csv(pm.to_csv(p))
    np.testing.assert_array_equal(back.probs, p.probs)
    assert back.tail_mass == p.tail_mass


def f_string_csv(p):
    """``to_csv`` as it was first written, one f-string per row: the byte reference."""
    lines = ["x,probability"]
    lines.extend(f"{x},{v:.17g}" for x, v in enumerate(p.probs))
    lines.append(f"# tail_mass={p.tail_mass:.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("probs, tail", [
    ([0.0, 5e-324, 1e-300, 0.1, 0.9], 1e-300),  # a zero, the smallest subnormal, a tiny tail
    ([1.0, 0.0], 0.0),
    ([0.0, 1.0], 5e-324),
])
def test_to_csv_bytes_match_the_f_string_rows(probs, tail):
    p = Pmf(np.array(probs), tail_mass=tail)
    assert pm.to_csv(p) == f_string_csv(p)


def test_pmf_rejects_large_negative_entries():
    with pytest.raises(ValueError, match="negative probability"):
        Pmf(np.array([1.1, -0.1]))


@pytest.mark.parametrize("probs, tail", [
    ([math.nan, 1.0], 0.0),
    ([1.0, math.nan], 0.0),
    ([0.5, 0.5], math.nan),
    ([math.inf, 0.0], 0.0),
    ([1.0, 0.0], math.inf),
])
def test_pmf_rejects_non_finite_entries(probs, tail):
    with pytest.raises(ValueError):
        Pmf(np.array(probs), tail_mass=tail)


def test_grid_size_caps_the_grid_as_well_as_the_need():
    # A small need but L above MAX_GRID: the power of two above L is the cap.
    top = pm.MAX_GRID
    assert pm.grid_size([], top - 1, "the sum", need=10.0) == top
    message = f"the sum at L={top} needs a Fourier grid of {2 * top} points"
    with pytest.raises(AliasingError, match=message):
        pm.grid_size([], top, "the sum", need=10.0)
    with pytest.raises(AliasingError, match="L=5000000 .*MAX_GRID"):
        pm.grid_size([], 5_000_000, "x", need=10.0)
    # An infinite need is named as such, before N is taken from it.
    with pytest.raises(AliasingError, match="inf points"):
        pm.grid_size([], 600, "x", need=math.inf)
