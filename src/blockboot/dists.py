"""Reference distributions for goodness-of-fit nulls and report baselines.

Closed forms in the operations of ``scipy.stats`` 1.17: its CDFs and densities
bit for bit, without loading ``scipy.stats``.  The normal CDF is Cephes
``ndtr`` (Moshier, *Methods and Programs for Mathematical Functions*, 1989)
written out over numpy, which is what ``scipy.special.ndtr`` evaluates, so
the normal and uniform laws load no scipy module.  The chi-square CDF with
one degree of freedom, :func:`chdtr1`, the reference law of the
product-kernel V-statistic, is built from the same pieces: the law of a
squared standard normal, Cephes ``erf(sqrt(x/2))``, bit for bit
``scipy.special.erf(np.sqrt(x / 2))``.  Only the Student-t law imports
``scipy.special`` (66 scipy modules, ~23 MB), for ``stdtr`` and ``poch``,
when it is built, and its closures keep it, so no call imports it again.
"""

from __future__ import annotations

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


def _erf_series(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf(x) = x T(x^2) / U(x^2)`` for ``|x| <= 1``, odd in ``x``."""
    tu = _horner(x * x, _TU)
    return x * tu[0] / tu[1]


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
    e = _erf_series(xn)
    y[near] = np.where(np.abs(xn) < _SQRTH, 0.5 + 0.5 * e, 0.5 * (1.0 - np.abs(e)))
    far = z >= 1.0
    if far.any():
        y[far] = 0.5 * _erfc_far(z[far])
    upper = (x > 0) & ~(z < _SQRTH)
    y[upper] = 1.0 - y[upper]
    return y[()]


def chdtr1(x) -> np.ndarray:
    """The chi-square CDF with one degree of freedom, the law of a squared
    standard normal: Cephes ``erf(sqrt(x/2))``, bit for bit
    ``scipy.special.erf(np.sqrt(x / 2))``.  NaN below 0 and at NaN; ``+0.0``
    at ``-0.0``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full_like(x, np.nan)
    live = x >= 0.0
    z = np.sqrt(x[live] / 2.0) + 0.0  # + 0.0: erf(-0.0) is -0.0
    near = z <= 1.0
    e = np.empty_like(z)
    e[near] = _erf_series(z[near])
    far = ~near
    if far.any():
        e[far] = 1.0 - _erfc_far(z[far])
    out[live] = e
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
