"""Independent reference computations used by the tests.

Everything here is deliberately written from first principles (exhaustive
enumeration, exact rational arithmetic, brute-force series summation, dense
kernel meshes, direct ECDF counts) and imports nothing from ``blockboot``:
arrays go in and come out.  It holds the paper's definitions on the
assembled bootstrap sample ``X*_1..X*_kp``, which the package computes from
block counts instead:

* :func:`draw_bootstrap_sample`, ``k`` blocks of length ``p`` drawn
  uniformly with replacement and concatenated;
* :func:`bootstrap_mean_statistic`, ``sqrt(kp) (mean X* - mean X_1..X_kp)``;
* :func:`bootstrap_v_statistic`, the three-term bootstrap V-statistic;
* :func:`bootstrap_cvm_statistic`, ``kp`` times the weighted squared
  distance of the two empirical CDFs;
* :func:`u_statistic`, the off-diagonal average of a kernel mesh.

It also holds the Kolmogorov distances over every point,
:func:`ks_two_sample` and :func:`ks_sample_vs_cdf`, which the harness
evaluates only where the supremum can lie, :func:`max_block_gram`, the
max-profile Gram from cumulative sums of block-equality masks, which the
package builds by a running sum in place, and :func:`ar1_recursion`, the
AR(1) recursion as a stack of new rows, which the package runs in place in
the noise array.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def all_block_selections(k: int):
    """Every way of filling k slots with blocks 0..k-1, in a fixed order."""
    return itertools.product(range(k), repeat=k)


def assemble(values, p: int, pick) -> np.ndarray:
    """The blocks ``pick`` of length ``p`` of ``values``, concatenated in order."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values[b * p : (b + 1) * p] for b in pick])


def draw_bootstrap_sample(values, p: int, rng: np.random.Generator) -> np.ndarray:
    """``X*_1..X*_kp``: the blocks ``rng.integers(0, k, size=k)``, ``k = len(values) // p``."""
    k = len(values) // p
    return assemble(values, p, rng.integers(0, k, size=k))


def bootstrap_mean_statistic(values, star) -> np.ndarray:
    """``sqrt(kp) * (mean(star) - mean of the first kp rows of values)``, ``kp = len(star)``."""
    values = np.asarray(values, dtype=np.float64)
    kp = len(star)
    return math.sqrt(kp) * (np.mean(star, axis=0) - np.mean(values[:kp], axis=0))


def _mesh_total(h, x, y) -> float:
    """``sum_{i,j} h(x_i, y_j)`` over the dense ``len(x) x len(y)`` mesh."""
    return float(np.sum(h(x[:, None], y[None, :])))


def bootstrap_v_statistic(values, star, h) -> float:
    """Three-term bootstrap V-statistic on dense meshes, ``m = len(star)``.

    ``(1/m^2) [sum h(X*_i, X*_j) - 2 sum h(X*_i, X_j) + sum h(X_i, X_j)]``
    with ``i, j`` over ``1..m`` and ``h`` a function of two arrays.
    """
    star = np.asarray(star, dtype=np.float64)
    m = len(star)
    x = np.asarray(values, dtype=np.float64)[:m]
    return (_mesh_total(h, star, star) - 2.0 * _mesh_total(h, star, x)
            + _mesh_total(h, x, x)) / (m * m)


def bootstrap_cvm_statistic(values, star, grid, weights) -> float:
    """``kp * sum_t w_t (F*(t) - F(t))^2`` with ``F*``, ``F`` counted over ``star`` and
    the first ``kp = len(star)`` values."""
    star = np.asarray(star, dtype=np.float64)
    kp = len(star)
    x = np.asarray(values, dtype=np.float64)[:kp]
    grid = np.asarray(grid, dtype=np.float64)

    def ecdf(sample):
        return np.count_nonzero(sample[:, None] <= grid[None, :], axis=0) / kp

    diff = ecdf(star) - ecdf(x)
    return float(kp * np.sum(diff * diff * weights))


def u_statistic(values, h) -> float:
    """``(1/(n(n-1))) sum_{i != j} h(x_i, x_j)``: the dense mesh with its diagonal masked."""
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    mesh = h(x[:, None], x[None, :])
    return float(np.sum(mesh[~np.eye(n, dtype=bool)])) / (n * (n - 1))


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


def ar1_recursion(phi: float, noise, x0) -> np.ndarray:
    """``y[i] = noise[i] + phi * y[i-1]`` from ``y[-1] = x0``: one new row per step, stacked."""
    return np.array([x0 := row + phi * x0 for row in np.asarray(noise, dtype=np.float64)])


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


def ks_two_sample(x, y) -> float:
    """Kolmogorov distance between two empirical distributions, at every pooled point."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    points = np.concatenate([x, y])
    points.sort(kind="stable")
    fx = np.searchsorted(x, points, side="right") / x.size
    fy = np.searchsorted(y, points, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def ks_sample_vs_cdf(x, cdf) -> float:
    """Kolmogorov distance between an empirical distribution and a CDF, with the CDF
    at every sample point."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = x.size
    values = np.asarray(cdf(x), dtype=np.float64)
    d_plus = np.max(np.arange(1, n + 1) / n - values)
    d_minus = np.max(values - np.arange(0, n) / n)
    return float(max(d_plus, d_minus, 0.0))


def max_block_gram(lead, p: int, g_values, cols: int) -> np.ndarray:
    """``T[a, b] = sum_{i in B_a, j in B_b} g(max(x_i, x_j))`` for ``lead`` in blocks of ``p``.

    ``T = A + A^T - diag(block sums of g)``, with ``A[a, b]`` the sum of
    ``g(x_i)`` over ``i`` in block ``a`` times the points of block ``b`` that a
    stable sort puts at or before ``x_i``.  ``A`` is built in tiles of ``cols``
    columns, each an int32 cumulative sum of a block-equality mask over the
    sorted points, contracted with ``g`` by ``np.einsum``.
    """
    lead = np.asarray(lead, dtype=np.float64)
    k = lead.size // p
    order = np.argsort(lead, kind="stable")
    rank, block = np.argsort(order), order // p
    g_blocks = np.asarray(g_values, dtype=np.float64).reshape(k, p)
    A = np.empty((k, k))
    for b0 in range(0, k, cols):
        prefix = np.cumsum(block[:, None] == np.arange(b0, min(b0 + cols, k)), axis=0,
                           dtype=np.int32)
        A[:, b0 : b0 + cols] = np.einsum("kpc,kp->kc", prefix[rank].reshape(k, p, -1), g_blocks,
                                         optimize=False)
    return A + A.T - np.diag(g_blocks.sum(axis=1))
