"""V- and U-statistics, the Cramer-von Mises statistic, and their bootstraps.

The quadratic double sums are evaluated directly; the bootstrap version of a
V-statistic uses the three-term form

    V* = (1/(kp)^2) [ sum h(X*_i, X*_j) - 2 sum h(X*_i, X_j) + sum h(X_i, X_j) ]

which requires no spectral decomposition of the kernel and is a squared norm
whenever the kernel is positive definite.

Double sums larger than ``PAIR_SUM_CUTOFF`` per axis are evaluated in fixed
row/column tiles whose partial sums are reduced in a fixed order, so results
are deterministic for any thread count and memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bootstrap import BlockPlan, _check_level, block_counts_per_replicate, decide
from .bootstrap import empirical_quantile  # noqa: F401  (traced by perfbench/tracing.py)
from .exceptions import (
    ConfigError,
    CvmSpecError,
    InsufficientSampleError,
    PlanMismatchError,
)
from .hilbert import HilbertSample, trapezoid_weights
from .rng import derive_stream

#: Dense meshes are used up to this many points per axis; beyond it the
#: double sum switches to tiled evaluation.
PAIR_SUM_CUTOFF = 4096

_SYMMETRY_PROBES = 32
_SYMMETRY_SEED = 0x5EED


@dataclass(frozen=True)
class Kernel:
    """A symmetric bivariate kernel ``h(x, y)`` on scalar arguments.

    ``eval`` must accept broadcastable numpy arrays.  Symmetry is spot-checked
    on a fixed set of random pairs at construction; ``lipschitz`` and
    ``positive_definite`` are declared metadata and are not verified
    numerically.
    """

    name: str
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    symmetric: bool = True
    lipschitz: float | None = None
    positive_definite: bool = False

    def __post_init__(self):
        if not self.symmetric:
            raise ConfigError("kernels must be declared symmetric")
        rng = derive_stream(_SYMMETRY_SEED)
        x = rng.uniform(-5.0, 5.0, _SYMMETRY_PROBES)
        y = rng.uniform(-5.0, 5.0, _SYMMETRY_PROBES)
        a = np.asarray(self.eval(x, y), dtype=np.float64)
        b = np.asarray(self.eval(y, x), dtype=np.float64)
        scale = np.maximum(1.0, np.abs(a))
        if not np.all(np.abs(a - b) <= 1e-12 * scale):
            raise ConfigError(f"kernel {self.name!r} is not symmetric on probe pairs")


def product_kernel() -> Kernel:
    """``h(x, y) = x * y``; degenerate for centered data."""
    return Kernel(name="product", eval=lambda x, y: x * y, positive_definite=True)


def gaussian_kernel(bandwidth: float = 1.0) -> Kernel:
    """``h(x, y) = exp(-((x - y)/bandwidth)^2)``."""
    if not bandwidth > 0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
    inv = 1.0 / float(bandwidth)

    def evaluate(x, y):
        z = (x - y) * inv
        return np.exp(-z * z)

    return Kernel(
        name=f"gaussian:{bandwidth}",
        eval=evaluate,
        lipschitz=np.sqrt(2.0 / np.e) * inv,
        positive_definite=True,
    )


def cvm_kernel(cdf: Callable[[np.ndarray], np.ndarray], name: str = "cvm") -> Kernel:
    """Goodness-of-fit kernel induced by centered indicators under ``cdf``.

    Equals ``1/3 - max(F(x), F(y)) + (F(x)^2 + F(y)^2)/2``, the covariance
    kernel of a Brownian bridge evaluated at ``F``; degenerate when the data
    are distributed according to ``cdf``.
    """

    def evaluate(x, y):
        a = np.asarray(cdf(np.asarray(x, dtype=np.float64)), dtype=np.float64)
        b = np.asarray(cdf(np.asarray(y, dtype=np.float64)), dtype=np.float64)
        return 1.0 / 3.0 - np.maximum(a, b) + (a * a + b * b) / 2.0

    return Kernel(name=name, eval=evaluate, positive_definite=True)


def kernel_from_token(token: str) -> Kernel:
    """Build a built-in kernel from its CLI/config token.

    Tokens: ``product``, ``gaussian:<bandwidth>``, ``cvm:<distribution>``
    (distribution tokens as in :mod:`blockboot.dists`).
    """
    name, _, args = token.partition(":")
    if name == "product":
        if args:
            raise ConfigError("the product kernel takes no parameters")
        return product_kernel()
    if name == "gaussian":
        try:
            bandwidth = float(args) if args else 1.0
        except ValueError as exc:
            raise ConfigError(f"bad gaussian bandwidth in {token!r}") from exc
        return gaussian_kernel(bandwidth)
    if name == "cvm":
        from .dists import distribution_from_token

        dist = distribution_from_token(args if args else "normal")
        return cvm_kernel(dist.cdf, name=f"cvm:{dist.name}")
    raise ConfigError(f"unknown kernel {token!r}")


def _scalar_values(s: HilbertSample) -> np.ndarray:
    return s.scalars()


def _pair_sum(x: np.ndarray, y: np.ndarray, h: Kernel) -> float:
    """Sum of ``h`` over the full ``len(x) x len(y)`` mesh, tiled when large."""
    if x.size <= PAIR_SUM_CUTOFF and y.size <= PAIR_SUM_CUTOFF:
        return float(np.sum(h.eval(x[:, None], y[None, :])))
    tile = PAIR_SUM_CUTOFF // 2
    partials = []
    for i in range(0, x.size, tile):
        xc = x[i : i + tile, None]
        for j in range(0, y.size, tile):
            partials.append(np.sum(h.eval(xc, y[None, j : j + tile])))
    return float(np.sum(partials))


def v_statistic(s: HilbertSample, h: Kernel) -> float:
    """``(1/n^2) * sum_{i,j} h(X_i, X_j)`` over a scalar sample."""
    x = _scalar_values(s)
    n = x.size
    return _pair_sum(x, x, h) / (n * n)


def u_statistic(s: HilbertSample, h: Kernel) -> float:
    """Off-diagonal average ``(1/(n(n-1))) * sum_{i != j} h(X_i, X_j)``."""
    x = _scalar_values(s)
    n = x.size
    if n < 2:
        raise InsufficientSampleError("a U-statistic needs n >= 2")
    total = _pair_sum(x, x, h)
    diagonal = float(np.sum(h.eval(x, x)))
    return (total - diagonal) / (n * (n - 1))


def bootstrap_v_statistic(s: HilbertSample, star: HilbertSample, h: Kernel) -> float:
    """Three-term bootstrap V-statistic of a resample against its sample.

    Both inputs must have the common length ``kp``.  For positive definite
    kernels the value is a squared norm and hence nonnegative up to rounding.
    """
    x = _scalar_values(s)
    y = _scalar_values(star)
    if x.size != y.size:
        raise PlanMismatchError(
            f"sample (n={x.size}) and bootstrap sample (n={y.size}) must have equal length"
        )
    m = x.size
    t_star = _pair_sum(y, y, h)
    t_cross = _pair_sum(y, x, h)
    t_base = _pair_sum(x, x, h)
    return (t_star - 2.0 * t_cross + t_base) / (m * m)


def empirical_cdf(s: HilbertSample, t):
    """Fraction of observations ``<= t``; right-continuous in ``t``.

    ``t`` may be a scalar or an array; the return type matches.
    """
    x = np.sort(_scalar_values(s))
    counts = np.searchsorted(x, t, side="right")
    result = counts / x.size
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(result)
    return result


@dataclass(frozen=True)
class CvmSpec:
    """Hypothesized CDF plus the weighted quadrature grid for the distance.

    ``cdf`` is evaluated once on the grid at construction; it must be
    nondecreasing there with values in [0, 1].  Weights must be nonnegative
    and finite (an all-zero weight is allowed and makes the distance zero).
    """

    cdf: Callable[[np.ndarray], np.ndarray]
    grid: np.ndarray
    weights: np.ndarray
    cdf_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if grid.ndim != 1 or grid.size == 0:
            raise CvmSpecError("grid must be a nonempty 1-D array")
        if grid.size > 1 and not np.all(grid[1:] > grid[:-1]):
            raise CvmSpecError("grid must be strictly increasing")
        if weights.shape != grid.shape:
            raise CvmSpecError("weights must match the grid")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise CvmSpecError("weights must be finite and nonnegative")
        values = np.asarray(self.cdf(grid), dtype=np.float64)
        if values.shape != grid.shape:
            raise CvmSpecError("cdf must return one value per grid point")
        if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
            raise CvmSpecError("cdf values must lie in [0, 1]")
        if grid.size > 1 and np.any(np.diff(values) < -1e-12):
            raise CvmSpecError("cdf must be nondecreasing on the grid")
        grid = grid.copy()
        grid.setflags(write=False)
        weights = weights.copy()
        weights.setflags(write=False)
        values = np.clip(values, 0.0, 1.0)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cdf_values", values)


def make_cvm_spec(cdf, support: tuple[float, float], weight_fn=None,
                  sample: HilbertSample | None = None, n_grid: int = 2048) -> CvmSpec:
    """Build a :class:`CvmSpec` on the default quadrature grid.

    The grid is the union of ``n_grid`` uniform points over ``support`` and
    the sample points falling inside it, so the jumps of the empirical CDF
    are always grid points.  Weights combine ``weight_fn`` (default 1) with
    trapezoid cell widths.
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise CvmSpecError(f"support must be a nonempty interval, got ({lo}, {hi})")
    grid = np.linspace(lo, hi, n_grid)
    if sample is not None:
        points = sample.scalars()
        inside = points[(points >= lo) & (points <= hi)]
        grid = np.union1d(grid, inside)
    w = None if weight_fn is None else np.asarray(weight_fn(grid), dtype=np.float64)
    return CvmSpec(cdf=cdf, grid=grid, weights=trapezoid_weights(grid, w))


def cvm_statistic(s: HilbertSample, spec: CvmSpec) -> float:
    """Weighted squared distance between the empirical CDF and ``spec.cdf``."""
    f_n = empirical_cdf(s, spec.grid)
    diff = f_n - spec.cdf_values
    return float(np.sum(diff * diff * spec.weights))


def bootstrap_cvm_statistic(s: HilbertSample, star: HilbertSample, spec: CvmSpec) -> float:
    """``kp`` times the weighted squared distance of the two empirical CDFs.

    ``s`` must hold the first ``kp`` observations and ``star`` a bootstrap
    sample of the same length; the scaling by ``kp`` applies to the integral
    of the squared difference.
    """
    if s.n != star.n:
        raise PlanMismatchError(
            f"sample (n={s.n}) and bootstrap sample (n={star.n}) must have equal length"
        )
    diff = empirical_cdf(star, spec.grid) - empirical_cdf(s, spec.grid)
    return float(s.n * np.sum(diff * diff * spec.weights))


def degeneracy_diagnostic(s: HilbertSample, h: Kernel, probes) -> float:
    """Largest absolute value of ``mean_i h(x, X_i)`` over the probe points.

    Small values are consistent with a degenerate kernel for this sample's
    distribution.  Advisory only; there is no pass/fail threshold.
    """
    x = _scalar_values(s)
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim != 1 or probes.size == 0:
        raise ValueError("probes must be a nonempty 1-D array")
    totals = np.zeros(probes.size)
    for j in range(0, x.size, PAIR_SUM_CUTOFF):
        totals = totals + h.eval(probes[:, None], x[None, j : j + PAIR_SUM_CUTOFF]).sum(axis=1)
    return float(np.max(np.abs(totals / x.size)))


def _block_pair_sums(x: np.ndarray, plan: BlockPlan, h: Kernel) -> np.ndarray:
    """Kernel mass between block pairs: ``T[a, b] = sum_{i in B_a, j in B_b} h``."""
    k, p = plan.k, plan.p
    lead = x[: plan.kp]
    if plan.kp <= PAIR_SUM_CUTOFF:
        mesh = h.eval(lead[:, None], lead[None, :])
        return mesh.reshape(k, p, k, p).sum(axis=(1, 3))
    T = np.empty((k, k))
    blocks_per_tile = max(1, (PAIR_SUM_CUTOFF // 2) // p)
    for a in range(0, k, blocks_per_tile):
        ah = min(a + blocks_per_tile, k)
        rows = lead[a * p : ah * p, None]
        for b in range(0, k, blocks_per_tile):
            bh = min(b + blocks_per_tile, k)
            chunk = h.eval(rows, lead[None, b * p : bh * p])
            T[a:ah, b:bh] = chunk.reshape(ah - a, p, bh - b, p).sum(axis=(1, 3))
    return T


def _quadratic_forms(matrix: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``v^T matrix v`` for each row ``v = counts - 1``; BLAS-free reduction."""
    v = counts.astype(np.float64) - 1.0
    half = np.einsum("bi,ij->bj", v, matrix, optimize=False)
    return np.sum(half * v, axis=1)


def vstat_bootstrap_evaluator(s: HilbertSample, plan: BlockPlan, h: Kernel):
    """Closure mapping block-count matrices to three-term bootstrap values.

    ``evaluator(counts)`` with ``counts`` of shape ``(B, k)`` (how often each
    block was drawn) returns the ``(B,)`` vector of ``kp * V*`` values.  In
    exact arithmetic each value equals ``kp * bootstrap_v_statistic`` on the
    sample assembled from the same draw.
    """
    x = _scalar_values(s)
    if x.size < plan.kp:
        raise PlanMismatchError(f"sample is shorter than kp={plan.kp}")
    T = _block_pair_sums(x, plan, h)
    kp = plan.kp

    def evaluator(counts: np.ndarray) -> np.ndarray:
        return _quadratic_forms(T, counts) / kp

    return evaluator


def _block_ecdf_matrix(x: np.ndarray, plan: BlockPlan, grid: np.ndarray) -> np.ndarray:
    G = np.empty((plan.k, grid.size))
    for b in range(plan.k):
        block = np.sort(x[b * plan.p : (b + 1) * plan.p])
        G[b] = np.searchsorted(block, grid, side="right")
    return G / plan.p


def cvm_bootstrap_evaluator(s: HilbertSample, plan: BlockPlan, spec: CvmSpec):
    """Closure mapping block-count matrices to bootstrap distance values.

    ``evaluator(counts)`` returns the ``(B,)`` vector of ``kp``-scaled
    weighted squared CDF distances; in exact arithmetic each value equals
    :func:`bootstrap_cvm_statistic` on the sample assembled from the draw.
    """
    x = _scalar_values(s)
    if x.size < plan.kp:
        raise PlanMismatchError(f"sample is shorter than kp={plan.kp}")
    G = _block_ecdf_matrix(x, plan, spec.grid)
    M = np.einsum("bg,cg->bc", G * spec.weights, G, optimize=False)
    scale = plan.p / plan.k

    def evaluator(counts: np.ndarray) -> np.ndarray:
        return scale * _quadratic_forms(M, counts)

    return evaluator


def vstat_test(s: HilbertSample, h: Kernel, plan: BlockPlan, B: int, seed: int,
               level: float) -> dict:
    """Bootstrap test based on the scaled V-statistic ``n * V_n``.

    Critical values come from ``B`` bootstrap replicates of the three-term
    ``kp * V*``; replicate ``r`` draws from ``derive_stream(seed, r)``.
    """
    _check_level(level)
    plan.require_sample(s)
    observed = s.n * v_statistic(s, h)
    evaluator = vstat_bootstrap_evaluator(s, plan, h)
    values = evaluator(block_counts_per_replicate(plan, seed, B))
    return {**decide(observed, values, level), "replicates": values}


def cvm_test(s: HilbertSample, spec: CvmSpec, plan: BlockPlan, B: int, seed: int,
             level: float) -> dict:
    """Bootstrap goodness-of-fit test based on ``n`` times the CvM distance."""
    _check_level(level)
    plan.require_sample(s)
    observed = s.n * cvm_statistic(s, spec)
    evaluator = cvm_bootstrap_evaluator(s, plan, spec)
    values = evaluator(block_counts_per_replicate(plan, seed, B))
    return {**decide(observed, values, level), "replicates": values}
