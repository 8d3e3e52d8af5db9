"""The null laws and the chi-square reference against ``scipy.stats`` and
``scipy.special``, which the package itself imports only for Student-t laws."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from blockboot.dists import chdtr1, distribution_from_token, normal, student_t, uniform
from blockboot.exceptions import ConfigError

SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324, 1.0, -1.0]


def ulp_distance(a, b) -> np.ndarray:
    """Units in the last place between ``a`` and ``b``; 0 for ``+0`` against ``-0`` and for two NaNs."""
    a, b = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (a, b))
    assert a.shape == b.shape

    def ordered(v):
        bits = v.view(np.int64)
        return np.where(bits < 0, -(bits & np.int64(2**63 - 1)), bits)

    both_nan = np.isnan(a) & np.isnan(b)
    one_nan = np.isnan(a) != np.isnan(b)
    gap = np.abs(ordered(a).astype(object) - ordered(b).astype(object))
    return np.where(both_nan, 0, np.where(one_nan, 2**64, gap))


def evaluate_quietly(law, x):
    """``law``'s CDF and weight at ``x``; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf = law.cdf(x)
        weight = None if law.weight_fn is None else law.weight_fn(x)
    return cdf, weight


SCALES = st.floats(1e-300, 1e300)
LOCATIONS = st.floats(-1e300, 1e300)


@st.composite
def laws(draw):
    """A law of the package and the frozen ``scipy.stats`` law it must equal."""
    kind = draw(st.sampled_from(["normal", "uniform", "t"]))
    if kind == "normal":
        mu, sigma = draw(LOCATIONS), draw(SCALES)
        return normal(mu, sigma), stats.norm(loc=mu, scale=sigma), [mu]
    if kind == "uniform":
        a = draw(LOCATIONS)
        b = draw(st.one_of(st.floats(a, a + 1e307, exclude_min=True), st.just(math.nextafter(a, math.inf))))
        return uniform(a, b), stats.uniform(loc=a, scale=b - a), [a, b, math.nextafter(a, -math.inf)]
    df = draw(st.one_of(st.just(math.inf), st.floats(1e-3, 1e300), st.sampled_from([1.0, 4.5, 5.0])))
    scale = draw(SCALES)
    return student_t(df, scale), stats.t(df, loc=0.0, scale=scale), []


@settings(max_examples=300, deadline=None)
@given(law=laws(), x=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
def test_laws_equal_scipy_stats_within_four_ulp(law, x):
    # Bitwise equal on scipy 1.17.1; 4 ulp leaves room for other scipy builds.
    ours, ref, edges = law
    points = np.array(x + SPECIALS + edges + list(ours.support), dtype=np.float64)
    cdf, weight = evaluate_quietly(ours, points)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref_cdf, ref_pdf = ref.cdf(points), ref.pdf(points)
    assert ulp_distance(cdf, ref_cdf).max() <= 4
    if weight is not None:
        assert ulp_distance(weight, ref_pdf).max() <= 4


SQRT2 = math.sqrt(2.0)
# Standardized points weighted to the tails: Cephes' branch points |z| = sqrt(2)
# and 8 sqrt(2) a few ulps either side, the subnormal CDF values below about
# -37.5, the cut where exp(-z^2/2) underflows (|z| near 37.7), and beyond.
TAIL_Z = st.one_of(
    st.floats(-40.0, 40.0),
    st.floats(-38.5, -37.4),
    st.builds(lambda edge, sign, ulps: sign * edge + ulps * math.ulp(edge),
              st.sampled_from([SQRT2, 8.0 * SQRT2, math.sqrt(2.0 * 7.09782712893383996843E2)]),
              st.sampled_from([-1.0, 1.0]), st.integers(-4, 4)),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


def same_bits(a, b) -> bool:
    """Equal arrays bit for bit, any NaN payload matching any other."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.int64),
                                                                    b[~nan].view(np.int64)))


@settings(max_examples=300, deadline=None)
@given(mu=st.floats(-1e3, 1e3), sigma=st.floats(1e-3, 1e3), z=st.lists(TAIL_Z, min_size=1, max_size=60))
def test_normal_cdf_is_scipy_ndtr_bit_for_bit(mu, sigma, z):
    # The written-out Cephes ndtr against scipy.special.ndtr, which evaluates the same code.
    law = normal(mu, sigma)
    x = mu + sigma * np.array(z)
    cdf, _ = evaluate_quietly(law, x)
    assert same_bits(cdf, special.ndtr((x - mu) / sigma))
    assert same_bits(law.cdf(x[0]), special.ndtr((x[0] - mu) / sigma))


def test_normal_cdf_is_scipy_ndtr_bit_for_bit_on_a_dense_grid():
    # Any coefficient of the Cephes tables off by a relative 1e-10 moves some of these values.
    z = np.linspace(-40.0, 40.0, 400001)
    assert same_bits(normal().cdf(z), special.ndtr(z))


# chdtr1(x) = erf(sqrt(x/2)).  Cephes erf changes method at z = sqrt(x/2) = 1
# (x = 2: the series, then 1 - erfc) and erfc at z = 8 (x = 128: P/Q, then
# R/S); exp(-z^2) underflows just above x = 2 MAXLOG ~ 1419.56.
MAXLOG = 7.09782712893383996843E2
CHI2_BRANCHES = [2.0, 128.0, 2.0 * MAXLOG]
CHI2_X = st.one_of(
    st.floats(0.0, 200.0),
    st.builds(lambda edge, ulps: edge + ulps * math.ulp(edge),
              st.sampled_from(CHI2_BRANCHES), st.integers(-4, 4)),
    st.floats(1400.0, 1520.0),
    st.floats(-1e-300, 1e-300),
    st.sampled_from(SPECIALS),
    st.floats(allow_nan=True, allow_infinity=True),
)


def chi2_1_reference(x) -> np.ndarray:
    """``scipy.special.erf(np.sqrt(x/2))``, NaN below 0 and +0.0 at -0.0."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(all="ignore"):
        return np.where(x < 0.0, np.nan, special.erf(np.sqrt(x / 2.0))) + 0.0


@settings(max_examples=300, deadline=None)
@given(x=st.lists(CHI2_X, min_size=1, max_size=60))
def test_chdtr1_is_scipy_erf_bit_for_bit(x):
    # The written-out Cephes erf(sqrt(x/2)) against scipy.special.erf, which
    # evaluates the same code.
    x = np.array(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = chdtr1(x)
        first = chdtr1(x[0])
    assert same_bits(ours, chi2_1_reference(x))
    assert same_bits(first, chi2_1_reference(x[0]))


def test_chdtr1_is_scipy_erf_bit_for_bit_on_a_dense_grid():
    # Any coefficient of the Cephes tables off by a relative 1e-10 moves some
    # of these values.  Points taken one at a time check scalar calls.
    x = np.linspace(0.0, 200.0, 800001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = chdtr1(x)
    assert same_bits(ours, chi2_1_reference(x))
    assert same_bits([chdtr1(v) for v in x[::800]], chi2_1_reference(x[::800]))


@pytest.mark.parametrize("token", [
    "normal:0,1e300", "normal:0,1e-300", "normal:-1e300,1e-300",
    "uniform:1,1.0000000000000002", "uniform:0,5e-324", "uniform:-8e307,8e307",
    "t:inf", "t:inf,1e-300", "t:5,1e300", "t:0.001,1e-300",
])
def test_laws_at_extreme_parameters_are_warning_free(token):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = distribution_from_token(token)
    points = np.array(SPECIALS + list(law.support), dtype=np.float64)
    cdf, weight = evaluate_quietly(law, points)
    nan = np.isnan(points)
    assert np.all((cdf[~nan] >= 0.0) & (cdf[~nan] <= 1.0)) and np.isnan(cdf[nan]).all()
    if weight is not None:
        assert np.all(weight[~nan] >= 0.0) and np.isnan(weight[nan]).all()


def test_uniform_cdf_below_the_support_is_plus_zero():
    # x = -0.0 standardizes to -0.0 at a = 0; scipy.stats gives the law's +0.0 there.
    assert not np.signbit(uniform(0.0, 1.0).cdf(np.array([-0.0, -1.0]))).any()


@pytest.mark.parametrize("token, message", [
    ("normal:1,2,3", "wrong number of parameters"),
    ("t", "wrong number of parameters"),
    ("gamma:2", "unknown distribution"),
    ("gamma:x", "bad distribution parameters"),
    ("uniform:1,0", "a < b"),
])
def test_bad_tokens_are_config_errors(token, message):
    with pytest.raises(ConfigError, match=message):
        distribution_from_token(token)
