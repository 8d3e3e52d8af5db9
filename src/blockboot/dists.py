"""Reference distributions for goodness-of-fit nulls and report baselines.

Closed forms over ``scipy.special``, in the operations of ``scipy.stats`` 1.17:
its CDFs and densities bit for bit, without loading ``scipy.stats``.  The
normal and Student-t laws import ``scipy.special`` (66 scipy modules, ~23 MB)
when they are built, and their closures keep it, so no call imports it
again; the uniform laws never load it.
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


def normal(mu: float = 0.0, sigma: float = 1.0) -> Distribution:
    if not math.isfinite(mu):
        raise ConfigError(f"normal location must be finite, got {mu}")
    if not 0 < sigma < math.inf:
        raise ConfigError(f"normal scale must be positive and finite, got {sigma}")
    from scipy import special

    return Distribution(
        name=f"normal:{mu},{sigma}",
        cdf=_quiet(lambda x: special.ndtr((x - mu) / sigma)),
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
