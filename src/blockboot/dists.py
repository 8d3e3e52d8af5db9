"""Reference distributions for goodness-of-fit nulls and report baselines."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy import stats

from .exceptions import ConfigError


@dataclass(frozen=True)
class Distribution:
    """A hypothesized marginal: CDF, optional density, and finite support.

    ``support`` is the interval the default goodness-of-fit weight lives on;
    for unbounded laws it is a wide quantile range.  ``weight_fn`` is the
    default weight for the distance (the density for unbounded laws, constant
    one for bounded ones, so that the integral always has finite mass).
    """

    name: str
    cdf: Callable
    pdf: Callable | None
    support: tuple[float, float]
    weight_fn: Callable | None


def normal(mu: float = 0.0, sigma: float = 1.0) -> Distribution:
    if not math.isfinite(mu):
        raise ConfigError(f"normal location must be finite, got {mu}")
    if not 0 < sigma < math.inf:
        raise ConfigError(f"normal scale must be positive and finite, got {sigma}")
    frozen = stats.norm(loc=mu, scale=sigma)
    return Distribution(
        name=f"normal:{mu},{sigma}",
        cdf=frozen.cdf,
        pdf=frozen.pdf,
        support=(mu - 8.0 * sigma, mu + 8.0 * sigma),
        weight_fn=frozen.pdf,
    )


def uniform(a: float = 0.0, b: float = 1.0) -> Distribution:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"uniform endpoints must be finite, got {a}, {b}")
    if not a < b:
        raise ConfigError(f"uniform endpoints must satisfy a < b, got {a}, {b}")
    frozen = stats.uniform(loc=a, scale=b - a)
    return Distribution(
        name=f"uniform:{a},{b}",
        cdf=frozen.cdf,
        pdf=frozen.pdf,
        support=(a, b),
        weight_fn=None,
    )


def student_t(df: float, scale: float = 1.0) -> Distribution:
    if not df > 0:
        raise ConfigError(f"student-t df must be positive, got {df}")
    if not 0 < scale < math.inf:
        raise ConfigError(f"student-t scale must be positive and finite, got {scale}")
    frozen = stats.t(df, loc=0.0, scale=scale)
    return Distribution(
        name=f"t:{df},{scale}",
        cdf=frozen.cdf,
        pdf=frozen.pdf,
        support=(-16.0 * scale, 16.0 * scale),
        weight_fn=frozen.pdf,
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
