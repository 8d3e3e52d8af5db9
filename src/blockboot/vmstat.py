"""V-statistics, the Cramer-von Mises statistic, and their bootstraps.

The quadratic double sums are evaluated directly; the bootstrap version of a
V-statistic uses the three-term form

    V* = (1/(kp)^2) [ sum h(X*_i, X*_j) - 2 sum h(X*_i, X_j) + sum h(X_i, X_j) ]

which requires no spectral decomposition of the kernel and is a squared norm
whenever the kernel is positive definite.

Kernel meshes are tiled by a byte budget: they are evaluated in fixed tiles
of at most ``TILE_BYTES`` per temporary, and the partial sums are reduced in a
fixed order, so results are deterministic for any thread count and memory
stays bounded.  Bootstrap values multiply count rows by the block-pair sums
or the feature block sums on BLAS, through the exact slices of
:func:`blockboot.bootstrap._count_product`, so they too are the same for any
thread count and batch size.  A kernel that declares a feature map (``O(n + B k)`` work)
or a max profile (one sort, ``O(n log n + kp k + B k^2)``) skips the meshes;
see :class:`Kernel`.  Any other kernel's test walks the upper half of its
symmetric mesh once (:func:`_mesh_sums`, about ``n^2 / 2`` evaluations) for
both the observed ``n V_n`` and the block-pair sums ``T``.  The CvM bootstrap
is a max-profile V-statistic.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bootstrap import BlockPlan, _count_product, bootstrap_test, stream_draws
# Traced by perfbench/tracing.py.
from .bootstrap import block_counts_per_replicate, empirical_quantile  # noqa: F401
from .exceptions import (
    ConfigError,
    CvmSpecError,
    NonFiniteStatisticError,
    ReplicateMemoryError,
)
from .hilbert import HilbertSample, _checked_grid, _frozen, trapezoid_weights
from .rng import derive_stream

#: Bytes of one float64 temporary in a tile of a kernel mesh.
TILE_BYTES = 2**20

#: Peak working set of a bootstrap through ``k x k`` block-pair sums, in
#: float64 ``k x k`` arrays (``8 k^2`` bytes each): 6.00-6.02 under
#: ``tracemalloc`` for kernel meshes, max profiles and the CvM test at p = 1
#: and k = 1000 or 2000, where the ``O(n)`` and tile temporaries are negligible.
GRAM_ARRAYS = 6

#: Floats per list that ``math.fsum`` reads in an exact max-profile total.
_FSUM_CHUNK = 4096

_SYMMETRY_PROBES = 32
_SYMMETRY_SEED = 0x5EED


@dataclass(frozen=True)
class Kernel:
    """A symmetric bivariate kernel ``h(x, y)`` on scalar arguments.

    ``eval`` must accept broadcastable numpy arrays.  Symmetry and each declared
    shape are checked on fixed random probe pairs at 1e-12 relative, else
    :class:`ConfigError`.  V-statistics and bootstrap values take the first declared path:

    * ``features`` maps ``n`` points to an ``(n, r)`` matrix ``Phi`` with
      ``h(x, y) = sum_l Phi_l(x) Phi_l(y)``: ``O(n + B k)`` work.
    * ``max_profile`` maps ``n`` points to ``(g, f)``, two length-``n`` arrays
      with ``h(x, y) = g(max(x, y)) + f(x) + f(y)``: ``O(n log n + kp k + B k^2)``.
    * otherwise kernel meshes: :func:`vstat_test` reads ``h(x_i, x_j)`` for
      ``j >= i`` only, about ``n^2 / 2`` evaluations plus ``O(B k^2)``; the
      symmetry check is what makes the other half redundant.
    """

    name: str
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    features: Callable[[np.ndarray], np.ndarray] | None = None
    max_profile: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        x, y = derive_stream(_SYMMETRY_SEED).uniform(-5.0, 5.0, (2, _SYMMETRY_PROBES))
        # One call each: h at (x, y) and (y, x); g and f at x and y.
        a, b = np.asarray(self.eval(np.r_[x, y], np.r_[y, x]), dtype=np.float64).reshape(2, -1)
        scale = np.maximum(1.0, np.abs(a))
        if not np.all(np.abs(a - b) <= 1e-12 * scale):
            raise ConfigError(f"kernel {self.name!r} is not symmetric on probe pairs")
        if self.max_profile is not None:
            (gx, gy), (fx, fy) = (np.asarray(v, dtype=np.float64).reshape(2, -1)
                                  for v in self.max_profile(np.r_[x, y]))
            split = np.where(x >= y, gx, gy) + (fx + fy)
            # Relative to the largest term of the identity, which may exceed |h|.
            if np.any(np.abs(split - a) > 1e-12 * np.max(np.abs([scale, gx, gy, fx, fy]), axis=0)):
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
    are distributed according to ``cdf``.  ``F`` is monotone, so its max
    profile is ``g = -F`` with ``f = 1/6 + F^2/2``, both from one call of ``cdf``.
    """

    def evaluate(x, y):
        a = np.asarray(cdf(np.asarray(x, dtype=np.float64)), dtype=np.float64)
        b = np.asarray(cdf(np.asarray(y, dtype=np.float64)), dtype=np.float64)
        return 1.0 / 3.0 - np.maximum(a, b) + (a * a + b * b) / 2.0

    def max_profile(x):
        a = np.asarray(cdf(x), dtype=np.float64)
        return -a, 1.0 / 6.0 + a * a / 2.0

    return Kernel(name=name, eval=evaluate, max_profile=max_profile)


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
    return max(1, TILE_BYTES // (8 * max(1, line)))


def _physical_memory() -> float:
    """Bytes of physical memory, from ``os.sysconf``; unbounded where it cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _require_gram_memory(k: int) -> None:
    """Raise :class:`ReplicateMemoryError` unless a ``k x k`` Gram path fits in memory.

    A kernel-mesh or max-profile bootstrap holds ``GRAM_ARRAYS`` float64
    ``k x k`` arrays at its peak: the block-pair sums ``T`` and the arrays
    :func:`blockboot.bootstrap._count_product` builds from them.
    """
    need = GRAM_ARRAYS * 8 * k * k
    have = _physical_memory()
    if need > have:
        raise ReplicateMemoryError(
            f"the block-pair sums of k={k} blocks need about {need / 2**20:.0f} MiB, more than "
            f"the {have / 2**20:.0f} MiB of physical memory; use longer blocks"
        )


def _pair_sum(x: np.ndarray, h: Kernel) -> float:
    """Sum of ``h`` over the full ``len(x) x len(x)`` mesh, in row tiles."""
    rows = _tile_size(x.size)
    partials = [np.sum(h.eval(x[i : i + rows, None], x[None, :]))
                for i in range(0, x.size, rows)]
    return float(np.sum(partials))


def _exact_products(a: np.ndarray, w) -> np.ndarray:
    """``[a_hi * w, a_lo * w]``, whose sum is ``a * w`` exactly for integers ``|w| < 2**26``.

    ``a_hi`` keeps the leading 26 bits of each ``a`` and ``a_lo = a - a_hi``
    the other 27, so neither product rounds (Dekker's two-product with an
    integer factor).
    """
    mantissa, exponent = np.frexp(a)
    hi = np.ldexp(np.trunc(np.ldexp(mantissa, 26)), exponent - 26)
    return np.concatenate([hi * w, (a - hi) * w])


def _total_pair_sum(x: np.ndarray, h: Kernel) -> float:
    """``sum_{i,j} h(x_i, x_j)``, through the shape the kernel declares, if any."""
    if h.features is not None:
        total = np.sum(h.features(x), axis=0)
        return float(np.sum(total * total))
    if h.max_profile is not None:
        # The m-th smallest point is the max of 2m - 1 pairs, and f(x_i) + f(x_j)
        # sums to 2n * sum(f).  These terms of size ~n^2 cancel to a total ~n
        # times smaller, so their exact products (n <= 2**25) are summed exactly.
        xs = np.sort(x)
        n = xs.size
        g, f = (np.asarray(v, dtype=np.float64) for v in h.max_profile(xs))
        terms = np.concatenate([_exact_products(g, np.arange(1.0, 2.0 * n, 2.0)),
                                _exact_products(f, 2.0 * n)])
        try:  # fsum reads Python floats faster than numpy scalars; chunks bound the lists
            return math.fsum(itertools.chain.from_iterable(
                terms[i : i + _FSUM_CHUNK].tolist() for i in range(0, terms.size, _FSUM_CHUNK)))
        except (OverflowError, ValueError):  # inf - inf or a sum past the float range
            return float(np.sum(terms))
    return _pair_sum(x, h)


@np.errstate(over="ignore", invalid="ignore")
def v_statistic(s: HilbertSample, h: Kernel) -> float:
    """``(1/n^2) * sum_{i,j} h(X_i, X_j)`` over a scalar sample."""
    x = s.scalars()
    n = x.size
    return _total_pair_sum(x, h) / (n * n)


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
        try:
            grid = _checked_grid(grid)
        except ValueError as exc:  # unsorted or not finite
            raise CvmSpecError(str(exc)) from exc
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
        object.__setattr__(self, "grid", _frozen(grid))
        object.__setattr__(self, "weights", _frozen(weights))
        object.__setattr__(self, "cdf_values", _frozen(np.clip(values, 0.0, 1.0)))


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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CvmSpecError(f"support must be finite, got ({lo}, {hi})")
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


@np.errstate(over="ignore", invalid="ignore")
def degeneracy_diagnostic(s: HilbertSample, h: Kernel, probes) -> float:
    """Largest absolute value of ``mean_i h(x, X_i)`` over the probe points.

    Small values are consistent with a degenerate kernel for this sample's
    distribution.  Advisory only; there is no pass/fail threshold.  Raises
    :class:`NonFiniteStatisticError` when the kernel overflows on the data.
    """
    x = s.scalars()
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim != 1 or probes.size == 0:
        raise ValueError("probes must be a nonempty 1-D array")
    cols = _tile_size(probes.size)
    totals = np.zeros(probes.size)
    for j in range(0, x.size, cols):
        totals = totals + h.eval(probes[:, None], x[None, j : j + cols]).sum(axis=1)
    diagnostic = float(np.max(np.abs(totals / x.size)))
    if not np.isfinite(diagnostic):
        raise NonFiniteStatisticError(f"degeneracy diagnostic is {diagnostic}")
    return diagnostic


def _mesh_sums(x: np.ndarray, plan: BlockPlan, h: Kernel) -> tuple[np.ndarray, float]:
    """Block-pair sums of the leading ``kp`` points and the total, from one half mesh.

    Returns ``T[a, b] = sum_{i in B_a, j in B_b} h(x_i, x_j)`` and
    ``total = sum_{i,j} h(x_i, x_j)`` over all of ``x``, the ``n - kp`` tail
    included.  Row tiles of whole blocks ``a0 <= a < a1`` (at most
    ``TILE_BYTES`` per temporary) evaluate ``h`` against the points from block
    ``a0`` onward only, so ``h(x_i, x_j)`` is read for ``j >= i`` and in the
    tiles' diagonal squares: about ``n^2 / 2`` evaluations.  A block whose
    rows do not fit in one tile is split into tiles of whole rows, whose sums
    are added.  The upper block triangle ``U`` gives ``T = triu(U) +
    triu(U, 1)^T`` and the tile columns past ``kp`` the tail cross sum, so
    ``total = sum T + 2 cross + tail mesh``.  Taking the lower triangle from
    the upper one is exact for a symmetric ``h``, which :class:`Kernel`
    checks to 1e-12 on its probe pairs, and a bootstrap value ``v^T T v``
    depends only on the symmetric part of ``T``.
    """
    k, p, kp = plan.k, plan.p, plan.kp
    _require_gram_memory(k)
    blocks = _tile_size(p * x.size)
    U = np.empty((k, k))
    cross = []
    for a0 in range(0, k, blocks):
        r0, a1 = a0 * p, min(a0 + blocks, k)
        step = min(p, _tile_size(x.size - r0))
        # All rows of the tile's blocks at once, or ``step`` rows of its one block at a time.
        height, groups = ((a1 - a0) * p, a1 - a0) if step == p else (step, 1)
        rows = None
        for i in range(r0, a1 * p, height):
            mesh = h.eval(x[i : min(i + height, a1 * p), None], x[None, r0:])
            # Sum each block's rows, within the tile and then over its row tiles.
            part = mesh[:, : kp - r0].reshape(groups, -1, kp - r0).sum(axis=1)
            rows = part if rows is None else rows + part
            cross.append(np.sum(mesh[:, kp - r0 :]))
        # Then each block's columns.
        U[a0:a1, a0:] = rows.reshape(a1 - a0, k - a0, p).sum(axis=2)
    T = np.triu(U) + np.triu(U, 1).T
    return T, float(np.sum(T) + 2.0 * np.sum(cross) + _pair_sum(x[kp:], h))


def _max_block_gram(lead: np.ndarray, plan: BlockPlan, g: np.ndarray) -> np.ndarray:
    """``T[a, b] = sum_{i in B_a, j in B_b} g(max(x_i, x_j))``, from one stable sort.

    ``g`` holds the profile's values at ``lead``.

    ``T = A + A^T - diag(block sums of g)``, with ``A[a, b]`` the sum over ``i``
    in block ``a`` of ``g(x_i)`` times the points of block ``b`` sorted at or
    before ``x_i``; built without BLAS in column tiles of ``TILE_BYTES``.  A
    tile of prefix counts is a running sum, in place, of ones at each point's
    sorted position in its block's column.
    """
    k, p, n = plan.k, plan.p, lead.size
    _require_gram_memory(k)
    order = np.argsort(lead, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    g_blocks = np.asarray(g, dtype=np.float64).reshape(k, p)
    A = np.empty((k, k))
    cols = _tile_size(n)
    for b0 in range(0, k, cols):
        b1 = min(b0 + cols, k)
        # Row r, column b: points of block b0 + b at sorted positions <= r.
        prefix = np.zeros((n, b1 - b0), dtype=np.int32)
        prefix[rank[b0 * p : b1 * p], np.arange(b1 - b0).repeat(p)] = 1
        np.add.accumulate(prefix, axis=0, out=prefix)
        A[:, b0:b1] = np.einsum("kpc,kp->kc", prefix[rank].reshape(k, p, -1), g_blocks,
                                optimize=False)
    T = A + A.T
    T.flat[:: k + 1] -= g_blocks.sum(axis=1)
    return T


def _leading(s: HilbertSample, plan: BlockPlan) -> np.ndarray:
    """The first ``kp`` scalars of ``s``, which the bootstrap resamples."""
    plan.require_sample(s)
    return s.scalars()[: plan.kp]


def _gram_evaluator(T: np.ndarray, kp: int):
    """Count rows to ``v^T T v / kp`` with ``v = counts - 1``, row by row."""
    product = _count_product(T)

    def evaluator(counts: np.ndarray) -> np.ndarray:
        v = counts - 1.0
        return np.sum(product(v) * v, axis=1) / kp

    return evaluator


def vstat_bootstrap_evaluator(s: HilbertSample, plan: BlockPlan, h: Kernel):
    """Closure mapping block-count rows to three-term bootstrap values.

    ``evaluator(counts)`` with ``counts`` of shape ``(m, k)`` (how often each
    block was drawn; any batch of replicates, or all ``B``) returns the
    ``(m,)`` vector of ``kp * V*`` values, each from its own row alone.  In
    exact arithmetic each value is, on the sample ``X*`` assembled from the
    same draw and with ``i, j`` over ``1..kp``,

        kp V* = (1/kp) [sum h(X*_i, X*_j) - 2 sum h(X*_i, X_j) + sum h(X_i, X_j)].

    The values are ``v^T T v / kp`` with ``v = counts - 1`` and ``T`` the
    block-pair kernel sums.  With a feature map ``T = S S^T`` for the ``(k, r)``
    block sums ``S`` of ``Phi``, so each value is ``||v S||^2 / kp``; with a
    max profile the separable part cancels (``sum v = 0``), so ``T`` sums
    ``g(max)``.  ``v T`` and ``v S`` run on BLAS through the exact slices of
    :func:`blockboot.bootstrap._count_product`: their partial sums are exact,
    so no value depends on the thread count or the batch, and each is within
    ``2^(2s - 106)`` of the largest entry per unit of ``sum |v|``, plus half an
    ulp, of the exact product, ``s = ceil(log2 k) + 2``.
    """
    lead, kp = _leading(s, plan), plan.kp
    if h.features is not None:
        product = _count_product(np.sum(h.features(lead).reshape(plan.k, plan.p, -1), axis=1))

        def evaluator(counts: np.ndarray) -> np.ndarray:
            proj = product(counts - 1.0)
            return np.sum(proj * proj, axis=1) / kp

        return evaluator
    return _gram_evaluator(_mesh_sums(lead, plan, h)[0] if h.max_profile is None
                           else _max_block_gram(lead, plan, h.max_profile(lead)[0]), kp)


def cvm_bootstrap_evaluator(s: HilbertSample, plan: BlockPlan, spec: CvmSpec):
    """Closure mapping block-count rows to bootstrap distance values.

    ``evaluator(counts)`` maps an ``(m, k)`` batch of count rows (or all
    ``B``) to the ``(m,)`` vector of ``kp``-scaled weighted squared CDF
    distances, each from its own row alone; in exact arithmetic each value is
    ``kp sum_t w_t (F*(t) - F(t))^2``, with ``F*`` and ``F`` the empirical CDFs
    of the sample ``X*_1..X*_kp`` assembled from the draw and of ``X_1..X_kp``.

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
    T = _max_block_gram(lead, plan, tail[np.searchsorted(spec.grid, lead, side="left")])
    return _gram_evaluator(T, plan.kp)


def vstat_statistics(s: HilbertSample, plan: BlockPlan, h: Kernel) -> tuple[float, Callable]:
    """Observed ``n * V_n`` and the evaluator of its bootstrap replicates.

    A kernel with a feature map or a max profile takes :func:`v_statistic` and
    :func:`vstat_bootstrap_evaluator`; a mesh kernel gets both the total over
    the sample and the block-pair sums ``T`` of its leading ``kp`` points from
    one :func:`_mesh_sums` walk over the half mesh.
    """
    plan.require_sample(s)
    if h.features is None and h.max_profile is None:
        T, total = _mesh_sums(s.scalars(), plan, h)
        return total / s.n, _gram_evaluator(T, plan.kp)
    return s.n * v_statistic(s, h), vstat_bootstrap_evaluator(s, plan, h)


def cvm_statistics(s: HilbertSample, plan: BlockPlan, spec: CvmSpec) -> tuple[float, Callable]:
    """Observed ``n`` times the CvM distance and the evaluator of its bootstrap replicates:
    :func:`cvm_statistic` and :func:`cvm_bootstrap_evaluator`."""
    return s.n * cvm_statistic(s, spec), cvm_bootstrap_evaluator(s, plan, spec)


@np.errstate(over="ignore", invalid="ignore")
def vstat_test(s: HilbertSample, h: Kernel, plan: BlockPlan, B: int, seed: int,
               level: float) -> dict:
    """Bootstrap test based on the scaled V-statistic ``n * V_n``.

    Critical values come from ``B`` bootstrap replicates of the three-term
    ``kp * V*``; replicate ``r`` draws from ``derive_stream(seed, r)``.  A
    non-finite statistic raises :class:`NonFiniteStatisticError` without
    numpy warnings.
    """
    return bootstrap_test(*vstat_statistics(s, plan, h), level, B, stream_draws(plan, B, seed))


def cvm_test(s: HilbertSample, spec: CvmSpec, plan: BlockPlan, B: int, seed: int,
             level: float) -> dict:
    """Bootstrap goodness-of-fit test based on ``n`` times the CvM distance."""
    return bootstrap_test(*cvm_statistics(s, plan, spec), level, B, stream_draws(plan, B, seed))
