"""V- and U-statistics, the Cramer-von Mises statistic, and their bootstraps.

The quadratic double sums are evaluated directly; the bootstrap version of a
V-statistic uses the three-term form

    V* = (1/(kp)^2) [ sum h(X*_i, X*_j) - 2 sum h(X*_i, X_j) + sum h(X_i, X_j) ]

which requires no spectral decomposition of the kernel and is a squared norm
whenever the kernel is positive definite.

Kernel meshes are tiled by a byte budget: they are evaluated in fixed tiles
of at most ``TILE_BYTES`` per temporary, and the partial sums are reduced in a
fixed order, so results are deterministic for any thread count and memory
stays bounded.  A kernel that declares a feature map (``O(n + B k)`` work)
or a max profile (one sort, ``O(n log n + kp k + B k^2)``) skips the meshes;
see :class:`Kernel`.  The CvM bootstrap is a max-profile V-statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bootstrap import BlockPlan, bootstrap_test, stream_draws
# Traced by perfbench/tracing.py.
from .bootstrap import block_counts_per_replicate, empirical_quantile  # noqa: F401
from .exceptions import (
    ConfigError,
    CvmSpecError,
    InsufficientSampleError,
    PlanMismatchError,
)
from .hilbert import HilbertSample, trapezoid_weights
from .rng import derive_stream

#: Bytes of one float64 temporary in a tile of a kernel mesh.
TILE_BYTES = 16 * 2**20

_SYMMETRY_PROBES = 32
_SYMMETRY_SEED = 0x5EED


@dataclass(frozen=True)
class Kernel:
    """A symmetric bivariate kernel ``h(x, y)`` on scalar arguments.

    ``eval`` must accept broadcastable numpy arrays.  Symmetry and each declared
    shape are checked on fixed random probe pairs at 1e-12 relative, else
    :class:`ConfigError`.  V, U and bootstrap values take the first declared path:

    * ``features`` maps ``n`` points to an ``(n, r)`` matrix ``Phi`` with
      ``h(x, y) = sum_l Phi_l(x) Phi_l(y)``: ``O(n + B k)`` work.
    * ``max_profile`` is a ``g`` with ``h(x, y) = g(max(x, y)) + f(x) + f(y)``,
      where ``f(x) = (h(x, x) - g(x)) / 2``: ``O(n log n + kp k + B k^2)``.
    * otherwise kernel meshes: ``O(n^2 + B k^2)``.
    """

    name: str
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    features: Callable[[np.ndarray], np.ndarray] | None = None
    max_profile: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        x, y = derive_stream(_SYMMETRY_SEED).uniform(-5.0, 5.0, (2, _SYMMETRY_PROBES))
        # One call each: h at (x, y), (y, x), (x, x) and (y, y); g at x and y.
        a, b, dx, dy = np.asarray(self.eval(np.r_[x, y, x, y], np.r_[y, x, x, y]),
                                  dtype=np.float64).reshape(4, -1)
        scale = np.maximum(1.0, np.abs(a))
        if not np.all(np.abs(a - b) <= 1e-12 * scale):
            raise ConfigError(f"kernel {self.name!r} is not symmetric on probe pairs")
        if self.max_profile is not None:
            gx, gy = np.asarray(self.max_profile(np.r_[x, y]), dtype=np.float64).reshape(2, -1)
            split = np.where(x >= y, gx, gy) + ((dx - gx) + (dy - gy)) / 2.0
            # Relative to the largest term of the identity, which may exceed |h|.
            if np.any(np.abs(split - a) > 1e-12 * np.max(np.abs([scale, gx, gy, dx, dy]), axis=0)):
                raise ConfigError(f"max_profile of {self.name!r} disagrees with eval on probes")
        if self.features is None:
            return
        fx = np.asarray(self.features(x), dtype=np.float64)
        fy = np.asarray(self.features(y), dtype=np.float64)
        if fx.ndim != 2 or fx.shape[0] != x.size or fy.shape != fx.shape:
            raise ConfigError(f"features of kernel {self.name!r} must map n points to (n, r)")
        if not np.all(np.abs(np.sum(fx * fy, axis=1) - a) <= 1e-12 * scale):
            raise ConfigError(f"features of kernel {self.name!r} disagree with eval on probe pairs")


def product_kernel() -> Kernel:
    """``h(x, y) = x * y``; degenerate for centered data."""
    return Kernel(name="product", eval=lambda x, y: x * y, features=lambda x: x[:, None])


def gaussian_kernel(bandwidth: float = 1.0) -> Kernel:
    """``h(x, y) = exp(-((x - y)/bandwidth)^2)``."""
    if not (0 < bandwidth < np.inf and 1.0 / bandwidth < np.inf):
        raise ConfigError(f"bandwidth and 1/bandwidth must be positive and finite, got {bandwidth}")
    inv = 1.0 / float(bandwidth)

    def evaluate(x, y):
        with np.errstate(over="ignore"):  # z * z = inf gives exp(-inf) = 0, as it should
            z = (x - y) * inv
            return np.exp(-z * z)

    return Kernel(name=f"gaussian:{bandwidth}", eval=evaluate)


def cvm_kernel(cdf: Callable[[np.ndarray], np.ndarray], name: str = "cvm") -> Kernel:
    """Goodness-of-fit kernel induced by centered indicators under ``cdf``.

    Equals ``1/3 - max(F(x), F(y)) + (F(x)^2 + F(y)^2)/2``, the covariance
    kernel of a Brownian bridge evaluated at ``F``; degenerate when the data
    are distributed according to ``cdf``; ``F`` is monotone, so its max profile is ``-F``.
    """

    def evaluate(x, y):
        a = np.asarray(cdf(np.asarray(x, dtype=np.float64)), dtype=np.float64)
        b = np.asarray(cdf(np.asarray(y, dtype=np.float64)), dtype=np.float64)
        return 1.0 / 3.0 - np.maximum(a, b) + (a * a + b * b) / 2.0

    return Kernel(name=name, eval=evaluate, max_profile=lambda x: -np.asarray(cdf(x), float))


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


def _tile_size(line: int) -> int:
    """How many float64 lines of length ``line`` fill one tile; at least one."""
    return max(1, TILE_BYTES // (8 * line))


def _pair_sum(x: np.ndarray, y: np.ndarray, h: Kernel) -> float:
    """Sum of ``h`` over the full ``len(x) x len(y)`` mesh, in row tiles."""
    rows = _tile_size(y.size)
    partials = [np.sum(h.eval(x[i : i + rows, None], y[None, :]))
                for i in range(0, x.size, rows)]
    return float(np.sum(partials))


def _total_pair_sum(x: np.ndarray, h: Kernel) -> float:
    """``sum_{i,j} h(x_i, x_j)``, through the shape the kernel declares, if any."""
    if h.features is not None:
        total = np.sum(h.features(x), axis=0)
        return float(np.sum(total * total))
    if h.max_profile is not None:  # the m-th smallest point is the max of 2m - 1 pairs
        xs = np.sort(x)
        g = h.max_profile(xs)
        pairs = np.sum(g * (2.0 * np.arange(1, xs.size + 1) - 1.0))
        return float(pairs + xs.size * np.sum(h.eval(xs, xs) - g))
    return _pair_sum(x, x, h)


def v_statistic(s: HilbertSample, h: Kernel) -> float:
    """``(1/n^2) * sum_{i,j} h(X_i, X_j)`` over a scalar sample."""
    x = s.scalars()
    n = x.size
    return _total_pair_sum(x, h) / (n * n)


def u_statistic(s: HilbertSample, h: Kernel) -> float:
    """Off-diagonal average ``(1/(n(n-1))) * sum_{i != j} h(X_i, X_j)``."""
    x = s.scalars()
    n = x.size
    if n < 2:
        raise InsufficientSampleError("a U-statistic needs n >= 2")
    total = _total_pair_sum(x, h)
    diagonal = float(np.sum(h.eval(x, x)))
    return (total - diagonal) / (n * (n - 1))


def bootstrap_v_statistic(s: HilbertSample, star: HilbertSample, h: Kernel) -> float:
    """Three-term bootstrap V-statistic of a resample against its sample.

    Both inputs must have the common length ``kp``.  For positive definite
    kernels the value is a squared norm and hence nonnegative up to rounding.
    """
    x = s.scalars()
    y = star.scalars()
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
    x = np.sort(s.scalars())
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
    x = s.scalars()
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim != 1 or probes.size == 0:
        raise ValueError("probes must be a nonempty 1-D array")
    cols = _tile_size(probes.size)
    totals = np.zeros(probes.size)
    for j in range(0, x.size, cols):
        totals = totals + h.eval(probes[:, None], x[None, j : j + cols]).sum(axis=1)
    return float(np.max(np.abs(totals / x.size)))


def _block_pair_sums(lead: np.ndarray, plan: BlockPlan, h: Kernel) -> np.ndarray:
    """Kernel mass between block pairs: ``T[a, b] = sum_{i in B_a, j in B_b} h``."""
    k, p, kp = plan.k, plan.p, plan.kp
    blocks = _tile_size(p * kp)
    T = np.empty((k, k))
    for a in range(0, k, blocks):
        ah = min(a + blocks, k)
        mesh = h.eval(lead[a * p : ah * p, None], lead[None, :])
        T[a:ah] = mesh.reshape(ah - a, p, k, p).sum(axis=(1, 3))
    return T


def _max_block_gram(lead: np.ndarray, plan: BlockPlan, g) -> np.ndarray:
    """``T[a, b] = sum_{i in B_a, j in B_b} g(max(x_i, x_j))``, from one stable sort.

    ``T = A + A^T - diag(block sums of g)``, with ``A[a, b]`` the sum over ``i``
    in block ``a`` of ``g(x_i)`` times the points of block ``b`` sorted at or
    before ``x_i``; built without BLAS in column tiles of ``TILE_BYTES``.
    """
    k, p = plan.k, plan.p
    order = np.argsort(lead, kind="stable")
    rank, block = np.argsort(order), order // p
    g_blocks = np.asarray(g(lead), dtype=np.float64).reshape(k, p)
    A = np.empty((k, k))
    cols = _tile_size(lead.size)
    for b0 in range(0, k, cols):
        # Row r, column b: points of block b0 + b at sorted positions <= r.
        prefix = np.cumsum(block[:, None] == np.arange(b0, min(b0 + cols, k)), axis=0,
                           dtype=np.int32)
        A[:, b0 : b0 + cols] = np.einsum("kpc,kp->kc", prefix[rank].reshape(k, p, -1), g_blocks,
                                         optimize=False)
    return A + A.T - np.diag(g_blocks.sum(axis=1))


def _leading(s: HilbertSample, plan: BlockPlan) -> np.ndarray:
    """The first ``kp`` scalars of ``s``, which the bootstrap resamples."""
    x = s.scalars()
    if x.size < plan.kp:
        raise PlanMismatchError(f"sample is shorter than kp={plan.kp}")
    return x[: plan.kp]


def _gram_evaluator(T: np.ndarray, kp: int):
    """Count rows to ``v^T T v / kp`` with ``v = counts - 1``, row by row."""

    def evaluator(counts: np.ndarray) -> np.ndarray:
        v = counts.astype(np.float64) - 1.0
        half = np.einsum("bi,ij->bj", v, T, optimize=False)
        return np.sum(half * v, axis=1) / kp

    return evaluator


def vstat_bootstrap_evaluator(s: HilbertSample, plan: BlockPlan, h: Kernel):
    """Closure mapping block-count rows to three-term bootstrap values.

    ``evaluator(counts)`` with ``counts`` of shape ``(m, k)`` (how often each
    block was drawn; any batch of replicates, or all ``B``) returns the
    ``(m,)`` vector of ``kp * V*`` values, each from its own row alone.  In
    exact arithmetic each value equals ``kp * bootstrap_v_statistic`` on the
    sample assembled from the same draw.

    The values are ``v^T T v / kp`` with ``v = counts - 1`` and ``T`` the
    block-pair kernel sums.  With a feature map ``T = S S^T`` for the ``(k, r)``
    block sums ``S`` of ``Phi``, so each value is ``||v S||^2 / kp``; with a
    max profile the separable part cancels (``sum v = 0``), so ``T`` sums
    ``g(max)``.  No reduction uses BLAS, so no value depends on the thread count.
    """
    lead, kp = _leading(s, plan), plan.kp
    if h.features is not None:
        S = np.sum(h.features(lead).reshape(plan.k, plan.p, -1), axis=1)

        def evaluator(counts: np.ndarray) -> np.ndarray:
            v = counts.astype(np.float64) - 1.0
            proj = np.einsum("bk,kr->br", v, S, optimize=False)
            return np.sum(proj * proj, axis=1) / kp

        return evaluator
    return _gram_evaluator(_block_pair_sums(lead, plan, h) if h.max_profile is None
                           else _max_block_gram(lead, plan, h.max_profile), kp)


def cvm_bootstrap_evaluator(s: HilbertSample, plan: BlockPlan, spec: CvmSpec):
    """Closure mapping block-count rows to bootstrap distance values.

    ``evaluator(counts)`` maps an ``(m, k)`` batch of count rows (or all
    ``B``) to the ``(m,)`` vector of ``kp``-scaled weighted squared CDF
    distances, each from its own row alone; in exact arithmetic each value equals
    :func:`bootstrap_cvm_statistic` on the sample assembled from the draw.

    The distance is the V-statistic of ``h(x, y) = sum_t w_t (1{x <= t} -
    F(t)) (1{y <= t} - F(t))``.  Since ``1{x <= t} 1{y <= t} = 1{max(x, y) <= t}``,
    ``h(x, y) = Wtail(max(x, y)) - G(x) - G(y) + C`` with ``Wtail(x)`` the
    weight of the grid points ``>= x``, ``G(x) = sum_{t >= x} w_t F(t)`` and
    ``C = sum_t w_t F(t)^2``.  The separable part cancels in ``v^T T v``
    (``sum v = 0``), so the values are those of
    :func:`vstat_bootstrap_evaluator` on the max profile ``Wtail``, whose Gram
    takes ``O(kp log kp + kp k)``, whatever the grid,

        T[a, b] = sum_{i in B_a, j in B_b} Wtail(max(x_i, x_j)).
    """
    lead = _leading(s, plan)
    tail = np.append(np.cumsum(spec.weights[::-1])[::-1], 0.0)
    T = _max_block_gram(lead, plan, lambda x: tail[np.searchsorted(spec.grid, x, side="left")])
    return _gram_evaluator(T, plan.kp)


def vstat_test(s: HilbertSample, h: Kernel, plan: BlockPlan, B: int, seed: int,
               level: float) -> dict:
    """Bootstrap test based on the scaled V-statistic ``n * V_n``.

    Critical values come from ``B`` bootstrap replicates of the three-term
    ``kp * V*``; replicate ``r`` draws from ``derive_stream(seed, r)``.
    """
    plan.require_sample(s)
    return bootstrap_test(s.n * v_statistic(s, h), vstat_bootstrap_evaluator(s, plan, h), level,
                          B, stream_draws(plan, B, seed))


def cvm_test(s: HilbertSample, spec: CvmSpec, plan: BlockPlan, B: int, seed: int,
             level: float) -> dict:
    """Bootstrap goodness-of-fit test based on ``n`` times the CvM distance."""
    plan.require_sample(s)
    return bootstrap_test(s.n * cvm_statistic(s, spec), cvm_bootstrap_evaluator(s, plan, spec),
                          level, B, stream_draws(plan, B, seed))
