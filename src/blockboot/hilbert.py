"""Weighted grid functions: the discretized function space used everywhere.

An element is a vector of function values on a fixed, strictly increasing
grid together with nonnegative weights.  Each weight folds the pointwise
weight function and the quadrature cell width into a single coefficient, so
the inner product is a plain weighted dot product and every quadrature choice
lives in :func:`trapezoid_weights`.

Scalars are the ``d = 1`` special case with unit weight; real-valued samples
share all code paths with functional ones.

All types are immutable after construction and every operation is a pure
function.  Reductions use numpy's pairwise summation over the grid index in a
fixed order, so results do not depend on evaluation order or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainMismatchError, EmptyInputError


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def trapezoid_weights(grid, pointwise_w=None) -> np.ndarray:
    """Combine a pointwise weight function with trapezoid-rule cell widths.

    Parameters
    ----------
    grid : array_like
        Strictly increasing abscissae ``t_1 < ... < t_d``.
    pointwise_w : array_like, optional
        Values of the weight function at the grid points; defaults to 1.

    Returns
    -------
    numpy.ndarray
        ``w(t_j) * cell_j`` where ``cell_j`` is the trapezoid cell width:
        half the distance to each neighbour, and for a single-point grid the
        conventional width 1 (the scalar case).
    """
    grid = _as_float_array(grid, "grid")
    d = grid.size
    if d == 0:
        raise EmptyInputError("grid must contain at least one point")
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


def _validate_space(grid: np.ndarray, weights: np.ndarray) -> None:
    d = grid.size
    if d == 0:
        raise EmptyInputError("grid must contain at least one point")
    if weights.size != d:
        raise ValueError("weights must match the grid length")
    if d > 1 and not np.all(grid[1:] > grid[:-1]):
        raise ValueError("grid must be strictly increasing")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and nonnegative")
    if not np.any(weights > 0):
        raise ValueError("at least one weight must be positive")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


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
        grid = _as_float_array(self.grid, "grid")
        values = _as_float_array(self.values, "values")
        weights = _as_float_array(self.weights, "weights")
        _validate_space(grid, weights)
        if values.size != grid.size:
            raise ValueError("values must match the grid length")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "grid", _frozen(grid))
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "weights", _frozen(weights))

    @classmethod
    def scalar(cls, x: float) -> "GridFunction":
        """The real number ``x`` as a d=1 element with unit weight."""
        return cls(np.array([0.0]), np.array([float(x)]), np.array([1.0]))

    @property
    def d(self) -> int:
        return self.grid.size

    def same_space(self, other: "GridFunction") -> bool:
        return (
            self.grid.shape == other.grid.shape
            and np.array_equal(self.grid, other.grid)
            and np.array_equal(self.weights, other.weights)
        )

    def _require_space(self, other: "GridFunction") -> None:
        if not self.same_space(other):
            raise DomainMismatchError("operands live on different grids or weights")


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
        grid = _as_float_array(self.grid, "grid")
        weights = _as_float_array(self.weights, "weights")
        _validate_space(grid, weights)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be an (n, d) matrix, got shape {values.shape}")
        if values.shape[0] < 1:
            raise EmptyInputError("a sample must contain at least one observation")
        if values.shape[1] != grid.size:
            raise ValueError("value rows must match the grid length")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "grid", _frozen(grid))
        object.__setattr__(self, "weights", _frozen(weights))
        values = np.array(values, copy=True)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

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

    def element(self, i: int) -> GridFunction:
        return GridFunction(self.grid, self.values[i], self.weights)

    def scalars(self) -> np.ndarray:
        """The observations as a 1-D array; only valid for d=1 samples."""
        if self.d != 1:
            raise DomainMismatchError("sample is not scalar (d != 1)")
        return self.values[:, 0]

    def restrict(self, m: int) -> "HilbertSample":
        """The sample of the first ``m`` observations."""
        if not 1 <= m <= self.n:
            raise IndexError(f"cannot restrict a length-{self.n} sample to {m}")
        return HilbertSample(self.grid, self.weights, self.values[:m])

    def same_space(self, f) -> bool:
        return (
            self.grid.shape == np.shape(f.grid)
            and np.array_equal(self.grid, f.grid)
            and np.array_equal(self.weights, f.weights)
        )


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Weighted dot product ``sum_j f_j g_j w_j`` of two grid functions.

    Symmetric and bilinear; raises :class:`DomainMismatchError` when the
    operands do not share grid and weights.
    """
    f._require_space(g)
    return float(np.sum(f.values * g.values * f.weights))


def norm(f: GridFunction) -> float:
    """The induced norm ``sqrt(<f, f>)``."""
    return float(np.sqrt(max(np.sum(f.values * f.values * f.weights), 0.0)))


def sample_mean(s: HilbertSample) -> GridFunction:
    """Pointwise average of the observations."""
    if s.n < 1:  # unreachable through the constructor, kept for clarity
        raise EmptyInputError("cannot average an empty sample")
    return GridFunction(s.grid, s.values.mean(axis=0), s.weights)

