"""Reference distributions for goodness-of-fit nulls and report baselines.

Closed forms in the operations of ``scipy.stats`` 1.17: its CDFs and densities
bit for bit, without loading ``scipy.stats``.  The normal CDF is Cephes
``ndtr`` (Moshier, *Methods and Programs for Mathematical Functions*, 1989)
written out over numpy, which is what ``scipy.special.ndtr`` evaluates, so
the normal and uniform laws load no scipy module.  So is the chi-square CDF
with one degree of freedom, :func:`chdtr1`, the reference law of the
product-kernel V-statistic: Cephes ``igam(1/2, x/2)``, which is what
``scipy.special.chdtr(1, x)`` evaluates.  Only the Student-t law imports
``scipy.special`` (66 scipy modules, ~23 MB), for ``stdtr`` and ``poch``,
when it is built, and its closures keep it, so no call imports it again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConfigError

_quiet = np.errstate(over="ignore")  # a standardized value past the float range is +-inf


@dataclass(frozen=True)
class Distribution:
    """A hypothesized marginal: CDF, finite support and default weight.

    ``support`` is the interval the default goodness-of-fit weight lives on;
    for unbounded laws it is a wide quantile range.  ``weight_fn`` is the
    default weight for the distance (the density for unbounded laws, constant
    one for bounded ones, so that the integral always has finite mass).
    """

    name: str
    cdf: Callable
    support: tuple[float, float]
    weight_fn: Callable | None


# Cephes ndtr.c (Moshier 1989), the code of scipy.special.ndtr: erf(x) =
# x T(x^2) / U(x^2) for |x| <= 1; erfc(x) = exp(-x^2) P(x) / Q(x) for
# 1 <= x < 8 and exp(-x^2) R(x) / S(x) beyond.  The leading coefficient 1
# of each denominator (Cephes p1evl) is implicit.
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX): exp(-x^2) is 0 past it
_SQRTH = 0.70710678118654752440  # sqrt(1/2)


def _horner_rows(num: tuple, den: tuple) -> np.ndarray:
    """Coefficients of Cephes ``polevl(x, num)`` and ``p1evl(x, den)`` as the
    ``(size, 2, 1)`` rows of one Horner pass.  The shorter one is led by
    zeros: ``0 x + c = c`` exactly for finite ``x``, as is ``1 x = x``, so
    every step rounds as in Cephes."""
    den = (1.0, *den)
    size = max(len(num), len(den))
    rows = [(0.0,) * (size - len(c)) + tuple(c) for c in (num, den)]
    return np.array(rows).T[:, :, None]


_TU, _PQ, _RS = _horner_rows(_T, _U), _horner_rows(_P, _Q), _horner_rows(_R, _S)


def _horner(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Numerator and denominator of a Cephes ratio at finite ``x``, as the two rows of a ``(2, m)`` array."""
    y = rows[0] * x
    for c in rows[1:-1]:
        y += c
        y *= x
    y += rows[-1]
    return y


def _exp(x: np.ndarray) -> np.ndarray:
    """The C library's ``exp``, through ``cexp``: numpy's own float64 ``exp``
    is a bit off on ~5% of points."""
    return np.exp(x.astype(np.complex128)).real


def _erfc_far(z: np.ndarray) -> np.ndarray:
    """Cephes ``erfc(z)`` for ``z >= 1``: 0 where ``exp(-z^2)`` underflows."""
    out = np.zeros_like(z)
    live = ~(z * z > _MAXLOG)
    z = z[live]
    e = _exp(-z * z)
    mid = z < 8.0
    if mid.all():
        pq = _horner(z, _PQ)
    else:
        pq = np.empty((2, z.size))
        pq[:, mid], pq[:, ~mid] = _horner(z[mid], _PQ), _horner(z[~mid], _RS)
    out[live] = e * pq[0] / pq[1]
    return out


def _ndtr(a) -> np.ndarray:
    """The standard normal CDF at ``a``, bit for bit ``scipy.special.ndtr`` (Cephes).

    With ``x = a sqrt(1/2)``: ``0.5 + 0.5 erf(x)`` for ``|x| < sqrt(1/2)``,
    else ``0.5 erfc(|x|)``, reflected for ``x > 0``; NaN maps to NaN.
    """
    x = np.asarray(a, dtype=np.float64) * _SQRTH
    z = np.abs(x)
    y = np.full_like(x, np.nan)
    near = z < 1.0  # erf's series, also in erfc(|x|) = 1 - erf(|x|)
    xn = x[near]
    tu = _horner(xn * xn, _TU)
    e = xn * tu[0] / tu[1]  # erf(x), odd in x
    y[near] = np.where(np.abs(xn) < _SQRTH, 0.5 + 0.5 * e, 0.5 * (1.0 - np.abs(e)))
    far = z >= 1.0
    if far.any():
        y[far] = 0.5 * _erfc_far(z[far])
    upper = (x > 0) & ~(z < _SQRTH)
    y[upper] = 1.0 - y[upper]
    return y[()]


# Cephes igam.c (Moshier 1989) as revised in scipy's xsf, the code of
# scipy.special.chdtr, at the one shape it is used with: chdtr(1, x) =
# igam(1/2, x/2).  Terms that depend only on a = 1/2 are literals; igam_fac
# needs no a >= 200 path, and the asymptotic series for a > 20 never apply.
_A = 0.5
_LGAM_A = 0.5723649429247  # Cephes lgam(1/2), one ulp below log(sqrt(pi))
_LGAM1P_A = -0.12078223763524884  # Cephes lgam1p(1/2), its Taylor series in zeta(n)
_LANCZOS_FAC = 6.024680040776729583740234375  # a + lanczos_g - 1/2, lanczos_g exactly
_LANCZOS_SUM_A = 1.772453850905516  # lanczos_sum_expg_scaled(1/2), one ulp above sqrt(pi)
_LANCZOS_SCALE = math.sqrt(_LANCZOS_FAC / math.exp(1.0)) / _LANCZOS_SUM_A
_MACHEP = 1.11022302462515654042E-16  # 2^-53
_MAXITER = 2000
_CHDTR_POINTS = 4096  # bounds the temporaries of one call to ~7 MB
_SERIES_STEPS = 18  # both series stop within 18 steps for y <= 1.1, so one chunk does
_CF_STEPS = 32  # continued-fraction steps between stop tests; y near 1.1 takes ~90
_BIG, _BIGINV = 4.503599627370496e15, 2.22044604925031308085e-16  # 2^52 and 2^-52
# Cephes expm1 on |x| <= 1/2, the only range igamc_series reaches here:
# x P(x^2) and Q(x^2), both polevl, so P is led by a zero.
_EXPM1_PQ = np.array([(0.0, 1.2617719307481059087798E-4, 3.0299440770744196129956E-2,
                       9.9999999999999999991025E-1),
                      (3.0019850513866445504159E-6, 2.5244834034968410419224E-3,
                       2.2726554820815502876593E-1, 2.0000000000000000000897E0)]).T[:, :, None]


def _libm(f, x: np.ndarray, *args: float) -> np.ndarray:
    """``f(x, *args)`` of the C library (``math.log``, ``math.pow``) per element:
    numpy's float64 ``log`` and its complex one are a bit off on some points."""
    return np.fromiter(map(f, x.tolist(), *map(itertools.repeat, args)), np.float64, count=x.size)


def _igam_fac(y: np.ndarray) -> np.ndarray:
    """Cephes ``igam_fac(1/2, y) = y^a exp(-y) / Gamma(a)`` for finite ``y > 0``."""
    out = np.empty_like(y)
    near = ~(np.abs(_A - y) > 0.4 * _A)  # scipy's Lanczos form, 0.3 <= y <= 0.7
    yn, yf = y[near], y[~near]
    out[near] = _LANCZOS_SCALE * (_exp(_A - yn) * _libm(math.pow, yn / _LANCZOS_FAC, _A))
    ax = _A * _libm(math.log, yf) - yf - _LGAM_A
    out[~near] = np.where(ax < -_MAXLOG, 0.0, _exp(ax))
    return out


def _first_stop(chunk, state: list[np.ndarray], size: int, steps: int = _MAXITER) -> np.ndarray:
    """Cephes' loop ``for i < steps: step i; if stop: break`` over arrays: each
    element's value at the step where it stops, or after ``steps`` steps.

    ``chunk(i0, n, state)`` performs steps ``i0 .. i0 + n - 1`` on every
    element, ``n <= size``, updates the arrays in ``state`` and returns the
    ``(n, m)`` stop tests and values of those steps.  An element that stops
    runs on to the end of its chunk, and those steps are not read; then the
    arrays drop it.  (Such steps stay in the float range: series terms only
    shrink, and the continued fraction rescales its terms.  No ``errstate``
    is set, which would slow every numpy call in the loops.)
    """
    out = np.empty(state[0].shape[-1])
    live = np.arange(out.size)
    for i0 in range(0, steps if out.size else 0, size):
        stop, value = chunk(i0, min(size, steps - i0), state)
        hit = stop.any(axis=0)
        if i0 + len(stop) == steps:
            out[live[~hit]] = value[-1, ~hit]
        if hit.any():
            cols = np.flatnonzero(hit)
            out[live[cols]] = value[stop[:, cols].argmax(axis=0), cols]
            keep = ~hit
            live = live[keep]
            if not live.size:
                break
            state[:] = [v[..., keep] for v in state]
    return out


def _run_on(first: np.ndarray, ufunc, steps: np.ndarray) -> np.ndarray:
    """The rows of ``v = first; for s in steps: v = ufunc(v, s)``, one rounding
    per step as in a scalar loop (``ufunc.accumulate`` is slower)."""
    out = np.empty_like(steps)
    for row, step in zip(out, steps):
        first = ufunc(first, step, out=row)
    return out


def _igam_series(y: np.ndarray) -> np.ndarray:
    """Cephes ``igam_series(1/2, y)``, DLMF 8.11.4, for finite ``y > 0``."""
    ax = _igam_fac(y)
    out = np.zeros_like(y)
    live = ax != 0.0

    def chunk(i0, n, state):  # r = a + i + 1; c *= x / r; ans += c
        x, c, ans = state
        c = _run_on(c, np.multiply, x / (_A + np.arange(i0 + 1, i0 + n + 1))[:, None])
        ans = _run_on(ans, np.add, c)
        state[1:] = c[-1], ans[-1]
        return c <= _MACHEP * ans, ans

    x = y[live]
    ans = _first_stop(chunk, [x, np.ones_like(x), np.ones_like(x)], _SERIES_STEPS)
    out[live] = ans * ax[live] / _A
    return out


def _igamc_series(y: np.ndarray) -> np.ndarray:
    """Cephes ``igamc_series(1/2, y)``, DLMF 8.7.3, for ``y`` in (0, 1.1]."""

    def chunk(i0, n, state):  # fac *= -x / n; term = fac / (a + n); sum += term
        minus_y, fac, total = state
        k = np.arange(i0 + 1, i0 + n + 1, dtype=np.float64)[:, None]
        fac = _run_on(fac, np.multiply, minus_y / k)
        term = fac / (_A + k)
        total = _run_on(total, np.add, term)
        state[1:] = fac[-1], total[-1]
        return np.abs(term) <= _MACHEP * np.abs(total), total

    total = _first_stop(chunk, [-y, np.ones_like(y), np.zeros_like(y)], _SERIES_STEPS, _MAXITER - 1)
    a_logy = _A * _libm(math.log, y)
    z = a_logy - _LGAM1P_A  # in [-1/2, 1/2]
    pq = _horner(z * z, _EXPM1_PQ)
    r = z * pq[0]
    r /= pq[1] - r
    return -(r + r) - _exp(a_logy - _LGAM_A) * total


def _igamc_continued_fraction(y: np.ndarray) -> np.ndarray:
    """Cephes ``igamc_continued_fraction(1/2, y)``, DLMF 8.9.2, for finite ``y > 1.1``."""
    ax = _igam_fac(y)
    out = np.zeros_like(y)
    live = ax != 0.0

    def chunk(i0, n, state):
        ans, p, p2, z = state  # rows pkm1, qkm1 and pkm2, qkm2; z twice, for p and q
        rows = []
        for j in range(n):
            c = i0 + j + 1.0  # and y = 1 - a + c
            z += 2.0
            pq = p * z
            pq -= p2 * ((1.0 - _A + c) * c)
            p, p2 = pq, p
            rows.append(pq)
        # Cephes scales the four terms by 2^-52 where |pk| > 2^52.  Scaling
        # by a power of two is exact and the convergents are ratios, so
        # scaling pk to [1/2, 1) once a chunk in its place, far below the
        # float range's limit on growth, leaves every value as it is.
        e = -np.frexp(p[0])[1]
        state[1:3] = np.ldexp(p, e), np.ldexp(p2, e)
        pq = np.stack(rows)  # rows pk and qk of each step
        r = pq[:, 0] / pq[:, 1]
        zero = pq[:, 1] == 0
        if zero.any():  # Cephes keeps ans where qk = 0, with t = 1
            for j, at in enumerate(zero):
                r[j, at] = (r[j - 1] if j else ans)[at]
        stop = np.abs((np.concatenate([ans[None], r[:-1]]) - r) / r) <= _MACHEP
        stop &= ~zero
        state[0] = r[-1]
        return stop, r

    x = y[live]
    z = x + (1.0 - _A) + 1.0
    p = np.stack([x + 1.0, z * x])
    state = [p[0] / p[1], p, np.stack([np.ones_like(x), x]), np.stack([z, z])]
    out[live] = _first_stop(chunk, state, _CF_STEPS) * ax[live]
    return out


def _fill(out: np.ndarray, at: np.ndarray, f, y: np.ndarray) -> None:
    """``out[at] = f(y[at])``, without calling ``f`` where ``at`` selects nothing."""
    if at.any():
        out[at] = f(y[at])


def _igamc(y: np.ndarray) -> np.ndarray:
    """Cephes ``igamc(1/2, y)``, the upper regularized incomplete gamma, for finite ``y > 0``."""
    out = np.empty_like(y)
    far = y > 1.1  # y < a is impossible past 1.1
    _fill(out, far, _igamc_continued_fraction, y)
    lower = y <= 0.5  # and y * 1.1 < a never holds past 0.5
    lower[lower] = -0.4 / _libm(math.log, y[lower]) < _A
    _fill(out, lower, lambda v: 1.0 - _igam_series(v), y)
    _fill(out, ~(far | lower), _igamc_series, y)
    return out


def chdtr1(x) -> np.ndarray:
    """The chi-square CDF with one degree of freedom, bit for bit
    ``scipy.special.chdtr(1, x)``: Cephes ``igam(1/2, x/2)``.  NaN below 0 and at NaN.

    Points are taken ``_CHDTR_POINTS`` at a time, which bounds the loops'
    temporaries.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for i in range(0, x.size, _CHDTR_POINTS):
        part = flat_x[i : i + _CHDTR_POINTS]
        y = part / 2.0  # 5e-324 / 2 rounds to 0
        values = np.full_like(y, np.nan)
        values[(y == 0.0) & ~(part < 0.0)] = 0.0
        values[y == np.inf] = 1.0
        _fill(values, (y > 0.0) & (y <= 1.0), _igam_series, y)
        # igam: 1 - igamc where y > 1 and y > a
        _fill(values, (y > 1.0) & (y < np.inf), lambda v: 1.0 - _igamc(v), y)
        flat_out[i : i + _CHDTR_POINTS] = values
    return out[()]


def normal(mu: float = 0.0, sigma: float = 1.0) -> Distribution:
    if not math.isfinite(mu):
        raise ConfigError(f"normal location must be finite, got {mu}")
    if not 0 < sigma < math.inf:
        raise ConfigError(f"normal scale must be positive and finite, got {sigma}")
    return Distribution(
        name=f"normal:{mu},{sigma}",
        cdf=_quiet(lambda x: _ndtr((x - mu) / sigma)),
        support=(mu - 8.0 * sigma, mu + 8.0 * sigma),
        weight_fn=_quiet(lambda x: np.exp(-((x - mu) / sigma) ** 2 / 2.0) / np.sqrt(2 * np.pi) / sigma),
    )


def uniform(a: float = 0.0, b: float = 1.0) -> Distribution:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"uniform endpoints must be finite, got {a}, {b}")
    if not 0 < b - a < math.inf:
        raise ConfigError(f"uniform endpoints must satisfy a < b with b - a finite, got {a}, {b}")
    return Distribution(  # + 0.0 turns the -0.0 of x = -0.0, a = 0 into the law's 0.0
        name=f"uniform:{a},{b}",
        cdf=_quiet(lambda x: np.clip((x - a) / (b - a), 0.0, 1.0) + 0.0),
        support=(a, b),
        weight_fn=None,
    )


def student_t(df: float, scale: float = 1.0) -> Distribution:
    if not df > 0:
        raise ConfigError(f"student-t df must be positive, got {df}")
    if not 0 < scale < math.inf:
        raise ConfigError(f"student-t scale must be positive and finite, got {scale}")
    from scipy import special

    if df == math.inf:  # the normal law; the finite-df constant below would warn
        density = normal(0.0, scale).weight_fn
    else:
        c = np.log(special.poch(0.5 * df, 0.5)) - 0.5 * (np.log(df) + np.log(np.pi))
        density = _quiet(lambda x: np.exp(c - (df + 1) / 2 * np.log1p((x / scale) ** 2 / df)) / scale)
    return Distribution(
        name=f"t:{df},{scale}",
        cdf=_quiet(lambda x: special.stdtr(df, x / scale)),
        support=(-16.0 * scale, 16.0 * scale),
        weight_fn=density,
    )


def standardized_uniform() -> Distribution:
    """Uniform with mean zero and unit variance, the built-in innovation law."""
    half = math.sqrt(3.0)
    return uniform(-half, half)


def distribution_from_token(token: str) -> Distribution:
    """Parse ``normal``, ``normal:mu,sigma``, ``uniform``, ``uniform:a,b``,
    or ``t:df[,scale]``."""
    name, _, args = token.partition(":")
    values = []
    if args:
        try:
            values = [float(v) for v in args.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad distribution parameters in {token!r}") from exc
    try:
        if name == "normal":
            return normal(*values)
        if name == "uniform":
            return uniform(*values)
        if name == "t":
            return student_t(*values)
    except TypeError as exc:
        raise ConfigError(f"wrong number of parameters in {token!r}") from exc
    raise ConfigError(f"unknown distribution {token!r}")
