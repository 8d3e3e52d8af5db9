"""The null laws and the chi-square reference against ``scipy.stats`` and
``scipy.special``, which the package itself imports only for Student-t laws."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from blockboot import dists
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


# chdtr(1, x) = igam(1/2, x/2).  Cephes changes method at x/2 = 0.3 and 0.7
# (igam_fac's Lanczos form), 0.5, 1 (igam turns to 1 - igamc) and 1.1
# (igamc's continued fraction); igam_fac is 0 past x/2 ~ 712.5, short of
# exp's subnormal range, which ends at x/2 ~ 745.
CHI2_BRANCHES = [0.6, 1.0, 1.4, 2.0, 2.2]
CHI2_X = st.one_of(
    st.floats(0.0, 100.0),
    st.builds(lambda edge, ulps: edge + ulps * math.ulp(edge),
              st.sampled_from(CHI2_BRANCHES), st.integers(-4, 4)),
    st.floats(1400.0, 1520.0),
    st.floats(-1e-300, 1e-300),
    st.sampled_from(SPECIALS),
    st.floats(allow_nan=True, allow_infinity=True),
)


def igamc_reference(y: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return special.gammaincc(0.5, y)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(CHI2_X, min_size=1, max_size=60))
def test_chdtr1_is_scipy_chdtr_bit_for_bit(x):
    # The written-out Cephes igam(1/2, x/2) against scipy.special.chdtr(1, x),
    # which evaluates the same code; and its igamc against gammaincc(1/2, .),
    # whose y <= 1/2 branch and exp underflow chdtr cannot see.
    x = np.array(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = chdtr1(x)
    with np.errstate(all="ignore"):
        assert same_bits(ours, special.chdtr(1, x))
        assert same_bits(chdtr1(x[0]), special.chdtr(1, x[0]))
    y = x[(x > 0) & (x < math.inf)] / 2.0
    y = y[y > 0]
    assert same_bits(dists._igamc(y), igamc_reference(y))


def test_chdtr1_is_scipy_chdtr_bit_for_bit_on_a_dense_grid():
    # Any literal or stopping step off moves some of these values.  Points
    # taken one at a time check the loops at size 1.
    x = np.linspace(0.0, 100.0, 400001)
    assert same_bits(chdtr1(x), special.chdtr(1, x))
    y = x[1:] / 2.0
    assert same_bits(dists._igamc(y), igamc_reference(y))
    assert same_bits([chdtr1(v) for v in x[::400]], special.chdtr(1, x[::400]))


# Cephes lanczos.h (Boost's lanczos13m53): the scaled Lanczos sum is a ratio
# of polynomials of degree 12, highest coefficient first.
LANCZOS_NUM = [0.006061842346248906525783753964555936883222,
               0.5098416655656676188125178644804694509993,
               19.51992788247617482847860966235652136208,
               449.9445569063168119446858607650988409623,
               6955.999602515376140356310115515198987526,
               75999.29304014542649875303443598909137092,
               601859.6171681098786670226533699352302507,
               3481712.15498064590882071018964774556468,
               14605578.08768506808414169982791359218571,
               43338889.32467613834773723740590533316085,
               86363131.28813859145546927288977868422342,
               103794043.1163445451906271053616070238554,
               56906521.91347156388090791033559122686859]
LANCZOS_DEN = [1, 66, 1925, 32670, 357423, 2637558, 13339535, 45995730, 105258076, 150917976,
               120543840, 39916800, 0]
LANCZOS_G = 6.024680040776729583740234375


def test_chdtr1_literals_are_the_cephes_values_at_one_half():
    a = 0.5
    assert dists._LGAM_A == special.gammaln(a)
    # xsf's lgam1p(a) for |a| <= 1/2: its Taylor series in zeta(n, 1).
    res, xfac = -np.euler_gamma * a, -a
    for n in range(2, 42):
        xfac *= -a
        coeff = special.zeta(n, 1) * xfac / n
        res += coeff
        if abs(coeff) < dists._MACHEP * abs(res):
            break
    assert dists._LGAM1P_A == res
    num = den = 0.0
    for p, q in zip(LANCZOS_NUM, LANCZOS_DEN):  # ratevl for |a| <= 1
        num, den = num * a + p, den * a + q
    assert dists._LANCZOS_SUM_A == num / den
    # Gamma(a) = sum * ((a + g - 1/2)/e)^(a - 1/2), which is the sum itself at a = 1/2.
    assert ulp_distance(num / den, special.gamma(a))[0] <= 1
    assert dists._LANCZOS_FAC == a + LANCZOS_G - 0.5


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
