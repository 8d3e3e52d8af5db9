"""Simulators for stationary, weakly dependent time series.

All built-in processes are centered (population mean zero) and draw
innovations standardized to unit variance, so that theoretical moments used
by the Monte Carlo harness are simple.  Generation is deterministic given
the configuration: the exact sequence of draws per kind is documented below
and frozen.

Draw order and dependence per kind (one derived stream per sample).  The
dependence clauses give each kind's near-epoch dependence (how fast a window
of the last ``m`` driving draws approximates the state) and the mixing of its
driving noise; they are qualitative claims about the model class, not
estimated quantities.

* ``iid``: the ``n`` innovations, in time order.  Burn-in is skipped; the
  process is exactly stationary.  Any window reproduces the state exactly,
  and the driving noise has no memory at positive lags.
* ``linear-real``: the ``n + q - 1`` innovations feeding the length-``q``
  filter, in time order.  Burn-in is skipped for the same reason.  Windows
  of at least ``q`` draws are exact, and the process is independent beyond
  lag ``q - 1``.
* ``ar1-real``: one standard normal for the stationary initial state when
  innovations are gaussian (scaled to the stationary marginal), then the
  ``burn_in + n`` innovations in time order.  Non-gaussian recursions start
  at zero and rely on burn-in.  A window of ``m`` innovations approximates
  the state up to ``O(|phi|^m)`` in absolute mean, and the iid noise is
  mixing: exponential memory decay.
* ``ar1-functional``: one row of ``basis_size`` coefficient draws for the
  initial state (gaussian innovations only), then ``burn_in + n`` coefficient
  rows.  Noise functions are random combinations of a smooth Fourier basis
  with geometrically decaying amplitudes.  The window approximation is the
  scalar ``O(|phi|^m)``, uniformly over the grid.
* ``doubling-map-functional``: ``burn_in + n + 52`` random bits.  The orbit
  value ``u_i`` reads the 53 bits starting at offset ``i``, which realizes
  the angle-doubling recursion ``u_{i+1} = 2 u_i mod 1`` exactly in
  distribution while avoiding the finite-precision collapse of iterating the
  map on doubles.  The observation is the smooth link
  ``X_i(t) = cos(2 pi u_i + pi s(t))`` with ``s`` the grid rescaled to
  [0, 1], which has mean zero because ``u_i`` is exactly uniform.  A window
  of ``m`` bits fixes ``u_i`` up to ``2**-m``, so ``X_i`` up to ``O(2**-m)``
  in norm, and the iid bit stream is mixing at all lags.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .hilbert import HilbertSample, trapezoid_weights
from .rng import derive_stream

REAL_KINDS = ("iid", "ar1-real", "linear-real")
FUNCTIONAL_KINDS = ("ar1-functional", "doubling-map-functional")
INNOVATIONS = ("gaussian", "uniform", "student-t")


@dataclass(frozen=True)
class ProcessConfig:
    """Configuration of one built-in process.

    Parameters
    ----------
    kind : str
        One of ``iid``, ``ar1-real``, ``linear-real``, ``ar1-functional``,
        ``doubling-map-functional``.
    phi : float
        AR coefficient, ``|phi| < 1``; used by the ``ar1-*`` kinds.
    coefficients : tuple of float
        Filter of the ``linear-real`` kind.
    basis_size : int
        Number of noise basis functions for ``ar1-functional``.
    innovation : str
        ``gaussian``, ``uniform`` or ``student-t``; always standardized to
        mean zero and unit variance.
    t_df : float
        Degrees of freedom for ``student-t`` innovations; must exceed 4 so
        that the moment assumptions of the limit theory hold.
    seed : int
        Seed of the derived stream used when no explicit generator is given.
    burn_in : int
        Steps discarded before recording, for the recursive kinds.

    ``phi``, ``t_df`` and ``coefficients`` must be finite for every kind,
    also where the kind does not use them.
    """

    kind: str
    phi: float = 0.0
    coefficients: tuple[float, ...] = (1.0,)
    basis_size: int = 8
    innovation: str = "gaussian"
    t_df: float = 6.0
    seed: int = 0
    burn_in: int = 1000

    def __post_init__(self):
        if self.kind not in REAL_KINDS + FUNCTIONAL_KINDS:
            raise ConfigError(f"unknown process kind {self.kind!r}")
        if self.innovation not in INNOVATIONS:
            raise ConfigError(f"unknown innovation {self.innovation!r}")
        coeffs = tuple(float(c) for c in self.coefficients)
        if not all(math.isfinite(v) for v in (self.phi, self.t_df, *coeffs)):
            raise ConfigError(f"phi, t_df and coefficients must be finite, got phi={self.phi}, "
                              f"t_df={self.t_df}, coefficients={coeffs}")
        if self.kind.startswith("ar1") and not abs(self.phi) < 1.0:
            raise ConfigError(f"AR coefficient must satisfy |phi| < 1, got {self.phi}")
        if self.kind == "linear-real" and len(coeffs) == 0:
            raise ConfigError("linear-real needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        if self.innovation == "student-t" and not 4.0 < self.t_df:
            raise ConfigError(f"student-t innovations need df above 4, got {self.t_df}")
        if self.basis_size < 1:
            raise ConfigError("basis_size must be at least 1")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be nonnegative")
        if not 0 <= operator.index(self.seed) < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")

    @property
    def is_functional(self) -> bool:
        return self.kind in FUNCTIONAL_KINDS


def _innovations(cfg: ProcessConfig, rng: np.random.Generator, shape) -> np.ndarray:
    if cfg.innovation == "gaussian":
        return rng.standard_normal(shape)
    if cfg.innovation == "uniform":
        half = math.sqrt(3.0)
        return rng.uniform(-half, half, shape)
    scale = math.sqrt((cfg.t_df - 2.0) / cfg.t_df)
    return rng.standard_t(cfg.t_df, shape) * scale


def _ar1_filter(phi: float, noise: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """``y[i] = noise[i] + phi * y[i-1]`` along axis 0 from ``y[-1] = x0``: the bits of
    ``scipy.signal.lfilter``, written out so that scipy.signal is not loaded.

    A 2-D ``noise`` is overwritten with ``y`` row by row and returned, so the
    recursion allocates no second ``(burn_in + n, d)`` array; a 1-D ``noise`` is
    left as it is.
    """
    if noise.ndim == 1:  # Python floats round as numpy's do, at a fraction of the cost per step
        noise, x0 = noise.tolist(), float(x0)
        return np.array([x0 := row + phi * x0 for row in noise])
    for row in noise:
        row += phi * x0
        x0 = row
    return noise


def _stream(cfg: ProcessConfig, n: int, rng, kinds: tuple, space: str) -> np.random.Generator:
    """``rng``, or the stream of ``cfg.seed``, once ``n >= 1`` and ``cfg.kind`` is in ``kinds``."""
    if operator.index(n) < 1:  # a float raises TypeError
        raise ConfigError(f"need n >= 1, got {n}")
    if cfg.kind not in kinds:
        raise ConfigError(f"{cfg.kind!r} is not a {space} process kind")
    return derive_stream(cfg.seed) if rng is None else rng


def generate_real(cfg: ProcessConfig, n: int, rng: np.random.Generator | None = None) -> HilbertSample:
    """A length-``n`` draw of a scalar process as a d=1 sample.

    Deterministic given ``(cfg, n)``; pass ``rng`` to draw from an explicit
    stream instead of the one derived from ``cfg.seed``.
    """
    rng = _stream(cfg, n, rng, REAL_KINDS, "scalar")
    if cfg.kind == "iid":
        x = _innovations(cfg, rng, n)
    elif cfg.kind == "linear-real":
        q = len(cfg.coefficients)
        eps = _innovations(cfg, rng, n + q - 1)
        x = np.convolve(eps, np.asarray(cfg.coefficients), mode="valid")
    else:
        if cfg.innovation == "gaussian":
            x0 = rng.standard_normal() / math.sqrt(1.0 - cfg.phi**2)
        else:
            x0 = 0.0
        eps = _innovations(cfg, rng, cfg.burn_in + n)
        x = _ar1_filter(cfg.phi, eps, np.float64(x0))[cfg.burn_in :]
    return HilbertSample.from_scalars(x)


def _unit_grid(grid: np.ndarray) -> np.ndarray:
    """``grid`` mapped affinely onto [0, 1]; a one-point grid maps to 0."""
    if grid.size > 1:
        return (grid - grid[0]) / (grid[-1] - grid[0])
    return np.zeros(1)


def _noise_basis(cfg: ProcessConfig, grid: np.ndarray) -> np.ndarray:
    """Smooth basis rows scaled by geometrically decaying amplitudes."""
    u = _unit_grid(grid)
    # Row 0 is constant; rows 2j - 1 and 2j are the cosine and sine of frequency j.
    size = cfg.basis_size
    angles = (2.0 * math.pi * np.arange(1, size // 2 + 1))[:, None] * u
    basis = np.ones((size, u.size))
    basis[1::2] = math.sqrt(2.0) * np.cos(angles)
    basis[2::2] = math.sqrt(2.0) * np.sin(angles[: (size - 1) // 2])
    amps = 0.5 ** np.arange(size, dtype=np.float64)
    return basis * amps[:, None]


def _doubling_orbit(rng: np.random.Generator, length: int, skip: int) -> np.ndarray:
    """Exact uniform orbit of the angle-doubling map, read off random bits."""
    bits = rng.integers(0, 2, size=skip + length + 52, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(bits, 53)[skip : skip + length]
    pow2 = 0.5 ** np.arange(1, 54)
    return np.einsum("nw,w->n", windows.astype(np.float64), pow2, optimize=False)


def generate_functional(cfg: ProcessConfig, n: int, grid, w=None,
                        rng: np.random.Generator | None = None) -> HilbertSample:
    """A length-``n`` draw of a function-valued process on ``grid``.

    Parameters
    ----------
    cfg : ProcessConfig
        Must have a functional ``kind``.
    n : int
        Number of observations.
    grid : array_like
        Strictly increasing abscissae of the common grid.
    w : array_like, optional
        Pointwise weight values; combined quadrature weights are built with
        the trapezoid rule.  Defaults to 1.
    rng : numpy.random.Generator, optional
        Explicit stream; defaults to the one derived from ``cfg.seed``.
    """
    rng = _stream(cfg, n, rng, FUNCTIONAL_KINDS, "functional")
    grid = np.asarray(grid, dtype=np.float64)
    weights = trapezoid_weights(grid, w)
    if cfg.kind == "ar1-functional":
        basis = _noise_basis(cfg, grid)
        if cfg.innovation == "gaussian":
            z0 = rng.standard_normal(cfg.basis_size)
            x0 = np.einsum("b,bd->d", z0, basis, optimize=False) / math.sqrt(1.0 - cfg.phi**2)
        else:
            x0 = np.zeros(grid.size)
        z = _innovations(cfg, rng, (cfg.burn_in + n, cfg.basis_size))
        noise = np.einsum("nb,bd->nd", z, basis, optimize=False)
        values = _ar1_filter(cfg.phi, noise, x0)[cfg.burn_in :]
    else:
        u = _doubling_orbit(rng, n, cfg.burn_in)
        values = np.cos(2.0 * math.pi * u[:, None] + math.pi * _unit_grid(grid)[None, :])
    return HilbertSample(grid, weights, values)
