import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from crplus import pmf as pm
from crplus.pmf import AliasingError, Pmf, TruncationError, UnderflowError


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


def test_panjer_start_value_underflow_is_reported():
    # g0 = exp(-800) and 0.5**2000 are below the smallest normal double:
    # the recursion would return an all-zero pmf with tail mass 1.
    sev = pm.point_mass(1, 50)
    with pytest.raises(UnderflowError, match=r"g0 = exp.*intensity 800"):
        pm.compound_poisson(800.0, sev, 50)
    with pytest.raises(UnderflowError, match=r"g0 = \(\(1 - delta\).*intensity 2000"):
        pm.compound_negbin(2000.0, 0.5, sev, 50)
    assert pm.compound_poisson(700.0, sev, 50)[0] == pytest.approx(np.exp(-700.0))


# ------------------------------------------- Fourier path vs Panjer and scipy

def test_compound_below_fft_min_size_is_panjer():
    limit = pm.FFT_MIN_SIZE - 2
    sev = pmf_of({0: 0.2, 3: 0.5, 11: 0.3}, limit)
    np.testing.assert_array_equal(pm.compound_poisson(40.0, sev, limit).probs,
                                  pm._panjer_poisson(40.0, sev, limit).probs)
    np.testing.assert_array_equal(pm.compound_negbin(0.7, 0.9, sev, limit).probs,
                                  pm._panjer_negbin(0.7, 0.9, sev, limit).probs)


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


def test_fourier_grid_cap_raises():
    with pytest.raises(AliasingError, match="MAX_GRID"):
        pm.compound_negbin(1.0, 1.0 - 1e-7, pm.point_mass(1, 600), 600)


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
        return (pm.compound_poisson, pm._panjer_poisson, (intensity,), severity, limit)
    alpha = draw(st.floats(0.01, 50.0))
    delta = draw(st.floats(0.0, 0.999))
    assume(delta > 0.0 and alpha * delta / (1.0 - delta) <= 700.0)
    return (pm.compound_negbin, pm._panjer_negbin, (alpha, delta), severity, limit)


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
    back = pm.from_csv(pm.to_csv(p))
    np.testing.assert_array_equal(back.probs, p.probs)
    assert back.tail_mass == p.tail_mass


def test_pmf_rejects_large_negative_entries():
    with pytest.raises(ValueError, match="negative probability"):
        Pmf(np.array([1.1, -0.1]))
