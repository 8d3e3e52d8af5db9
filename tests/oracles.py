"""Independent reference computations used by the tests.

Everything here is deliberately written from first principles (exhaustive
enumeration, exact rational arithmetic, brute-force series summation) and
never calls into the code paths it is used to check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def all_block_selections(k: int):
    """Every way of filling k slots with blocks 0..k-1, in a fixed order."""
    return itertools.product(range(k), repeat=k)


def exact_block_means(x, p: int) -> list[Fraction]:
    """Block means of a scalar series as exact rationals."""
    x = [Fraction(float(v)) for v in x]
    k = len(x) // p
    return [sum(x[b * p : (b + 1) * p], Fraction(0)) / p for b in range(k)]


def exact_bootstrap_mean_law(x, p: int) -> tuple[list[Fraction], int]:
    """All k**k equally likely bootstrap-mean values, exactly.

    Returns the list of per-selection means of the resampled series and the
    number of selections; each selection has probability k**-k.
    """
    means = exact_block_means(x, p)
    k = len(means)
    law = []
    for pick in all_block_selections(k):
        law.append(sum((means[b] for b in pick), Fraction(0)) / k)
    return law, k**k


def exact_centered_mean_law(x, p: int) -> list[Fraction]:
    """The exact law of (bootstrap mean - overall leading mean)."""
    law, _ = exact_bootstrap_mean_law(x, p)
    k = len(x) // p
    xbar = sum((Fraction(float(v)) for v in x[: k * p]), Fraction(0)) / (k * p)
    return [v - xbar for v in law]


def ar1_long_run_variance(phi: float, innovation_variance: float = 1.0,
                          tol: float = 1e-14) -> float:
    """Sum of all lagged autocovariances of a stationary AR(1), brute force."""
    gamma0 = innovation_variance / (1.0 - phi * phi)
    total = gamma0
    j = 1
    while True:
        term = 2.0 * gamma0 * phi**j
        total += term
        if abs(term) < tol * abs(gamma0):
            return total
        j += 1


def brute_force_ecdf(sample, t) -> float:
    """Counting definition of the empirical CDF, one comparison at a time."""
    count = 0
    for v in sample:
        if v <= t:
            count += 1
    return count / len(sample)


def discrete_law(values, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a list of equally likely outcomes into (support, probs)."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    support = [values[0]]
    counts = [1]
    for v in values[1:]:
        if abs(v - support[-1]) <= tol:
            counts[-1] += 1
        else:
            support.append(v)
            counts.append(1)
    probs = np.asarray(counts, dtype=np.float64) / values.size
    return np.asarray(support), probs


def ks_sample_vs_discrete(x, support, probs, tol: float = 1e-9) -> float:
    """Kolmogorov distance between an empirical law and a discrete law.

    Sample values within ``tol`` (absolute) of an atom are counted as sitting
    on it, which makes the distance robust to rounding differences between
    two routes to the same discrete statistic.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    support = np.asarray(support, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(support, kind="stable")
    support, probs = support[order], probs[order]
    cum = np.cumsum(probs)
    f_right = np.searchsorted(x, support + tol, side="right") / x.size
    f_left = np.searchsorted(x, support - tol, side="left") / x.size
    d_at = np.max(np.abs(f_right - cum))
    d_before = np.max(np.abs(f_left - (cum - probs)))
    return float(max(d_at, d_before))
