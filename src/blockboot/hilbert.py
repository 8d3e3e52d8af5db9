"""Weighted grid functions: the discretized function space used everywhere.

An element is a vector of function values on a fixed, strictly increasing
grid together with nonnegative weights.  Each weight folds the pointwise
weight function and the quadrature cell width into a single coefficient, so
the inner product is a plain weighted dot product and every quadrature choice
lives in :func:`trapezoid_weights`.

Scalars are the ``d = 1`` special case with unit weight; real-valued samples
share all code paths with functional ones.  Grid functions and samples live
in the same space when :func:`same_space` holds: equal grids and weights.

All types are immutable after construction and every operation is a pure
function.  Reductions use numpy's pairwise summation over the grid index in a
fixed order, so results do not depend on evaluation order or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainMismatchError, EmptyInputError, NonFiniteStatisticError


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _checked_grid(grid) -> np.ndarray:
    """``grid`` as a float array: nonempty, strictly increasing and finite."""
    grid = _as_float_array(grid, "grid")
    if grid.size == 0:
        raise EmptyInputError("grid must contain at least one point")
    if grid.size > 1 and not np.all(grid[1:] > grid[:-1]):
        raise ValueError("grid must be strictly increasing")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    return grid


def trapezoid_weights(grid, pointwise_w=None) -> np.ndarray:
    """Combine a pointwise weight function with trapezoid-rule cell widths.

    Parameters
    ----------
    grid : array_like
        Strictly increasing finite abscissae ``t_1 < ... < t_d``; any other
        grid raises ``ValueError``.
    pointwise_w : array_like, optional
        Values of the weight function at the grid points; defaults to 1.

    Returns
    -------
    numpy.ndarray
        ``w(t_j) * cell_j`` where ``cell_j`` is the trapezoid cell width:
        half the distance to each neighbour, and for a single-point grid the
        conventional width 1 (the scalar case).
    """
    grid = _checked_grid(grid)
    d = grid.size
    if pointwise_w is None:
        w = np.ones(d)
    else:
        w = _as_float_array(pointwise_w, "pointwise_w")
        if w.size != d:
            raise ValueError("pointwise_w must match the grid length")
    if d == 1:
        return w.copy()
    cells = np.empty(d)
    cells[0] = (grid[1] - grid[0]) / 2.0
    cells[-1] = (grid[-1] - grid[-2]) / 2.0
    cells[1:-1] = (grid[2:] - grid[:-2]) / 2.0
    return w * cells


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


def _freeze_space(obj, values: np.ndarray, rows: str) -> None:
    """Check ``obj``'s grid and weights and the finite ``values``, whose last
    axis (named ``rows`` in errors) runs over the grid; store all three frozen."""
    grid = _checked_grid(obj.grid)
    weights = _as_float_array(obj.weights, "weights")
    d = grid.size
    if weights.size != d:
        raise ValueError("weights must match the grid length")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and nonnegative")
    if not np.any(weights > 0):
        raise ValueError("at least one weight must be positive")
    if values.shape[-1] != d:
        raise ValueError(f"{rows} must match the grid length")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    for name, arr in (("grid", grid), ("weights", weights), ("values", values)):
        object.__setattr__(obj, name, _frozen(arr))


@dataclass(frozen=True)
class GridFunction:
    """A function sampled on a weighted grid: one element of the space.

    Parameters
    ----------
    grid : array_like
        Strictly increasing abscissae.
    values : array_like
        Function values at the grid points.
    weights : array_like
        Combined quadrature weights (pointwise weight times cell width),
        nonnegative with at least one positive entry.
    """

    grid: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _freeze_space(self, _as_float_array(self.values, "values"), "values")

    @property
    def d(self) -> int:
        return self.grid.size


@dataclass(frozen=True)
class HilbertSample:
    """An ordered time series of grid functions sharing one ambient space.

    The values are held as an ``(n, d)`` matrix; row ``i`` is observation
    ``X_i`` on the common grid.
    """

    grid: np.ndarray
    weights: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be an (n, d) matrix, got shape {values.shape}")
        if values.shape[0] < 1:
            raise EmptyInputError("a sample must contain at least one observation")
        _freeze_space(self, values, "value rows")

    @classmethod
    def from_scalars(cls, x) -> "HilbertSample":
        """A real-valued series as a sample of d=1 elements with unit weight."""
        x = _as_float_array(x, "x")
        if x.size == 0:
            raise EmptyInputError("a sample must contain at least one observation")
        return cls(np.array([0.0]), np.array([1.0]), x[:, None])

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.grid.size

    def __len__(self) -> int:
        return self.n

    def scalars(self) -> np.ndarray:
        """The observations as a 1-D array; only valid for d=1 samples."""
        if self.d != 1:
            raise DomainMismatchError("sample is not scalar (d != 1)")
        return self.values[:, 0]


def same_space(a, b) -> bool:
    """Whether two grid functions or samples share their grid and weights."""
    return np.array_equal(a.grid, b.grid) and np.array_equal(a.weights, b.weights)


@np.errstate(over="ignore", invalid="ignore")
def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Weighted dot product ``sum_j f_j g_j w_j`` of two grid functions.

    Symmetric and bilinear; raises :class:`DomainMismatchError` when the
    operands do not share grid and weights.  Products of finite values that
    overflow give ``inf`` (or ``nan`` where infinities cancel) without a
    numpy warning.
    """
    if not same_space(f, g):
        raise DomainMismatchError("operands live on different grids or weights")
    return float(np.sum(f.values * g.values * f.weights))


def norm(f: GridFunction) -> float:
    """The induced norm ``sqrt(<f, f>)``; ``inf`` where the squares overflow."""
    return float(np.sqrt(inner_product(f, f)))


@np.errstate(over="ignore", invalid="ignore")
def sample_mean(s: HilbertSample) -> GridFunction:
    """Pointwise average of the observations; :class:`NonFiniteStatisticError`
    where their sum overflows."""
    mean = s.values.mean(axis=0)
    bad = mean[~np.isfinite(mean)]
    if bad.size:
        raise NonFiniteStatisticError(f"sample mean is {bad[0]}")
    return GridFunction(s.grid, mean, s.weights)

