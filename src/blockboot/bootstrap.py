"""Nonoverlapping block bootstrap for samples of grid functions.

The sample is cut into ``k = floor(n/p)`` contiguous blocks of length ``p``;
a bootstrap sample concatenates ``k`` blocks drawn uniformly with
replacement.  Observations beyond ``k*p`` are discarded by every quantity
here, and the bootstrap mean is centered at the mean over the first ``k*p``
observations.

Replicate ``r`` of a bootstrap distribution always consumes the derived
stream ``derive_stream(seed, r)``, so the distribution is bit-identical no
matter in which order (or on how many workers) replicates are evaluated.

Every bootstrap test decides through :func:`decide`: the critical value is
the lower empirical ``1 - level`` quantile of the replicates, the p-value is
``(1 + #{replicates >= observed}) / (B + 1)``, and the test rejects when the
observed statistic exceeds the critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    EmptyInputError,
    NonFiniteStatisticError,
    PlanMismatchError,
    UnsupportedStatisticError,
)
from .hilbert import GridFunction, HilbertSample, norm
from .rng import derive_stream, replicate_streams

#: Relative slack used to snap floating-point powers/products to a nearby
#: integer before flooring, so that e.g. 1000**(1/3) floors to 10 and not 9.
_SNAP = 1e-9


def _snap_floor(x: float) -> int:
    nearest = round(x)
    if abs(x - nearest) <= _SNAP * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.floor(x))


def _snap_ceil(x: float) -> int:
    nearest = round(x)
    if abs(x - nearest) <= _SNAP * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.ceil(x))


@dataclass(frozen=True)
class BlockPlan:
    """Partition of ``1..n`` into ``k`` leading blocks of length ``p``."""

    n: int
    p: int
    k: int = field(init=False)
    dyadic_freeze: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise EmptyInputError("plan needs n >= 1")
        if not 1 <= self.p <= self.n:
            raise ValueError(f"block length p={self.p} must be in 1..n={self.n}")
        object.__setattr__(self, "k", self.n // self.p)

    @property
    def kp(self) -> int:
        return self.k * self.p

    @property
    def discarded(self) -> int:
        """Number of trailing observations ignored by bootstrap quantities."""
        return self.n - self.kp

    def block(self, i: int) -> range:
        """0-based index range of block ``i`` (0-based)."""
        if not 0 <= i < self.k:
            raise IndexError(f"block index {i} out of range 0..{self.k - 1}")
        return range(i * self.p, (i + 1) * self.p)

    @property
    def blocks(self) -> list[range]:
        return [self.block(i) for i in range(self.k)]

    def require_sample(self, s: HilbertSample) -> None:
        if s.n != self.n:
            raise PlanMismatchError(f"plan is for n={self.n}, sample has n={s.n}")

    def to_dict(self) -> dict:
        """The plan as recorded in reports, in a fixed key order."""
        return {"n": self.n, "p": self.p, "k": self.k, "kp": self.kp,
                "dyadic_freeze": self.dyadic_freeze}


def block_length_schedule(n: int, exponent: float = 1.0 / 3.0,
                          dyadic_freeze: bool = False) -> BlockPlan:
    """Block plan with the power-law length rule ``p = max(1, floor(m**e))``.

    With ``dyadic_freeze`` the rule is evaluated at ``m = 2**l`` where
    ``2**(l-1) < n <= 2**l``, which keeps ``p`` constant on dyadic ranges of
    ``n``; otherwise ``m = n``.  Either way ``p`` is nondecreasing in ``n``
    and capped at ``n`` so that at least one block exists.

    Parameters
    ----------
    n : int
        Sample length.
    exponent : float
        Growth exponent in (0, 1); default 1/3.
    dyadic_freeze : bool
        Evaluate the rule at the next power of two instead of at ``n``.
    """
    if n < 1:
        raise EmptyInputError("schedule needs n >= 1")
    if not 0.0 < exponent < 1.0:
        raise ValueError(f"exponent must lie in (0, 1), got {exponent}")
    if dyadic_freeze:
        m = 1 << max(0, (n - 1).bit_length())
    else:
        m = n
    p = max(1, _snap_floor(m ** exponent))
    return BlockPlan(n=n, p=min(p, n), dyadic_freeze=dyadic_freeze)


def _draw_block_indices(plan: BlockPlan, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, plan.k, size=plan.k)


def _gather(s: HilbertSample, plan: BlockPlan, idx: np.ndarray) -> np.ndarray:
    rows = (idx[:, None] * plan.p + np.arange(plan.p)[None, :]).ravel()
    return s.values[rows]


def draw_bootstrap_sample(s: HilbertSample, plan: BlockPlan,
                          rng: np.random.Generator) -> HilbertSample:
    """Concatenate ``k`` blocks drawn uniformly with replacement.

    The output has length ``k*p``; its ``i``-th block is a bit-identical copy
    of one contiguous block of ``s``.  Deterministic given the generator
    state.
    """
    plan.require_sample(s)
    idx = _draw_block_indices(plan, rng)
    return HilbertSample(s.grid, s.weights, _gather(s, plan, idx))


def bootstrap_mean_statistic(s: HilbertSample, star: HilbertSample,
                             plan: BlockPlan) -> GridFunction:
    """``sqrt(kp) * (mean(star) - mean of the first kp observations of s)``."""
    plan.require_sample(s)
    if star.n != plan.kp:
        raise PlanMismatchError(f"bootstrap sample must have length kp={plan.kp}, got {star.n}")
    if not s.same_space(star.element(0)):
        raise PlanMismatchError("bootstrap sample lives on a different grid or weights")
    diff = star.values.mean(axis=0) - s.values[: plan.kp].mean(axis=0)
    return GridFunction(s.grid, math.sqrt(plan.kp) * diff, s.weights)


class MeanStatistic:
    """The centered, scaled bootstrap mean itself, as a grid function.

    Bootstrap distributions built from this statistic hold ``(B, d)`` vector
    replicates; for scalar samples, column 0 is the signed statistic.  The
    ``bind`` fast path skips intermediate sample objects and produces values
    identical to ``bootstrap_mean_statistic`` on the same draws.
    """

    statistic_id = "mean"

    def __call__(self, s: HilbertSample, star: HilbertSample, plan: BlockPlan) -> GridFunction:
        return bootstrap_mean_statistic(s, star, plan)

    def bind(self, s: HilbertSample, plan: BlockPlan):
        plan.require_sample(s)
        center = s.values[: plan.kp].mean(axis=0)
        root_kp = math.sqrt(plan.kp)

        def bound(idx: np.ndarray) -> np.ndarray:
            return root_kp * (_gather(s, plan, idx).mean(axis=0) - center)

        return bound


class MeanNormStatistic:
    """Norm of the centered, scaled bootstrap mean.

    Bootstrap distributions built from this statistic skip the construction
    of intermediate sample objects; the replicate values are identical to
    ``norm(bootstrap_mean_statistic(...))`` on the same draws.
    """

    statistic_id = "mean-norm"

    def __call__(self, s: HilbertSample, star: HilbertSample, plan: BlockPlan) -> float:
        return norm(bootstrap_mean_statistic(s, star, plan))

    def bind(self, s: HilbertSample, plan: BlockPlan):
        plan.require_sample(s)
        leading = s.values[: plan.kp]
        center = leading.mean(axis=0)
        weights = s.weights
        root_kp = math.sqrt(plan.kp)

        def bound(idx: np.ndarray) -> float:
            diff = _gather(s, plan, idx).mean(axis=0) - center
            return float(root_kp * np.sqrt(np.sum(diff * diff * weights)))

        return bound


class LongRunVarianceStatistic:
    """Long-run variance estimate recomputed on each bootstrap sample."""

    statistic_id = "lrv"

    def __call__(self, s: HilbertSample, star: HilbertSample, plan: BlockPlan) -> float:
        star_plan = BlockPlan(n=star.n, p=plan.p, dyadic_freeze=plan.dyadic_freeze)
        return long_run_variance_estimate(star, star_plan)


@dataclass(frozen=True)
class BootstrapDistribution:
    """Replicate values of a statistic plus what is needed to reproduce them."""

    replicates: np.ndarray
    B: int
    seed: int
    statistic_id: str
    grid: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.B < 1:
            raise EmptyInputError("a bootstrap distribution needs B >= 1 replicates")

    @property
    def is_scalar(self) -> bool:
        return self.replicates.ndim == 1


def bootstrap_replicate(s: HilbertSample, plan: BlockPlan, statistic, seed: int, r: int):
    """Value of ``statistic`` on the ``r``-th bootstrap draw.

    Replicate ``r`` consumes only the derived stream ``derive_stream(seed, r)``,
    so single replicates can be recomputed, skipped, or distributed across
    workers without affecting any other replicate.
    """
    rng = derive_stream(seed, r)
    idx = _draw_block_indices(plan, rng)
    bound = statistic.bind(s, plan) if hasattr(statistic, "bind") else None
    if bound is not None:
        return bound(idx)
    star = HilbertSample(s.grid, s.weights, _gather(s, plan, idx))
    return statistic(s, star, plan)


def bootstrap_distribution(s: HilbertSample, plan: BlockPlan, B: int, statistic,
                           seed: int, statistic_id: str | None = None) -> BootstrapDistribution:
    """Monte Carlo distribution of ``statistic`` over ``B`` bootstrap draws.

    Parameters
    ----------
    s : HilbertSample
        Observed sample; the plan must match its length.
    plan : BlockPlan
        Block layout used for every draw.
    B : int
        Number of replicates.
    statistic : callable
        ``statistic(s, star, plan)`` returning a float or a
        :class:`GridFunction`.  Objects exposing ``bind(s, plan)`` are used
        through the bound fast path.
    seed : int
        Master seed; replicate ``r`` uses ``derive_stream(seed, r)``.
    statistic_id : str, optional
        Label recorded on the distribution; defaults to the statistic's
        ``statistic_id`` attribute or its ``__name__``.

    Returns
    -------
    BootstrapDistribution
        Scalar replicates as a ``(B,)`` array, grid-function replicates as a
        ``(B, d)`` matrix with the grid and weights attached.
    """
    if B < 1:
        raise EmptyInputError("need B >= 1 bootstrap replicates")
    plan.require_sample(s)
    if statistic_id is None:
        statistic_id = getattr(statistic, "statistic_id", None) or getattr(
            statistic, "__name__", "statistic"
        )
    bound = statistic.bind(s, plan) if hasattr(statistic, "bind") else None
    values = []
    for r, rng in replicate_streams(seed, B):
        try:
            idx = _draw_block_indices(plan, rng)
            if bound is not None:
                value = bound(idx)
            else:
                star = HilbertSample(s.grid, s.weights, _gather(s, plan, idx))
                value = statistic(s, star, plan)
        except Exception as exc:
            exc.args = (f"replicate {r}: {exc}",)
            raise
        values.append(value)
    first = values[0]
    if isinstance(first, GridFunction):
        replicates = np.stack([v.values for v in values])
    elif isinstance(first, np.ndarray) and first.ndim == 1:
        replicates = np.stack(values)
    else:
        return BootstrapDistribution(np.asarray(values, dtype=np.float64), B, seed, statistic_id)
    return BootstrapDistribution(replicates, B, seed, statistic_id,
                                 grid=s.grid, weights=s.weights)


def counts_from_indices(idx: np.ndarray, k: int) -> np.ndarray:
    """Per-row occurrence counts of block indices: ``(B, k)`` from ``(B, k)``."""
    idx = np.asarray(idx)
    if idx.ndim == 1:
        idx = idx[None, :]
    B = idx.shape[0]
    offsets = np.arange(B, dtype=np.int64)[:, None] * k
    flat = (idx + offsets).ravel()
    return np.bincount(flat, minlength=B * k).reshape(B, k)


def block_counts_per_replicate(plan: BlockPlan, seed: int, B: int, *tail: int) -> np.ndarray:
    """Block-draw counts for ``B`` replicates with per-replicate streams.

    Row ``r`` counts the ``k`` uniform block draws of
    ``derive_stream(seed, r, *tail)``, exactly the draw
    :func:`draw_bootstrap_sample` would make from the same stream.
    """
    if B < 1:
        raise EmptyInputError("need B >= 1 bootstrap replicates")
    idx = np.empty((B, plan.k), dtype=np.int64)
    for r, rng in replicate_streams(seed, B, *tail):
        idx[r] = _draw_block_indices(plan, rng)
    return counts_from_indices(idx, plan.k)


def block_mean_deviations(s: HilbertSample, plan: BlockPlan, counts: np.ndarray) -> np.ndarray:
    """``mean(star) - mean(first kp)`` per row of block counts, as ``(B, d)``.

    A bootstrap sample's mean is the count-weighted average of the ``k``
    block means, so the deviation needs only the ``(B, k)`` counts.
    """
    means = s.values[: plan.kp].reshape(plan.k, plan.p, s.d).mean(axis=1)
    dev = counts.astype(np.float64) - 1.0
    return np.einsum("bk,kd->bd", dev, means, optimize=False) / plan.k


def empirical_quantile(values: np.ndarray, q: float) -> float:
    """Lower empirical quantile: the ``ceil(B*q)``-th order statistic."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
    values = np.asarray(values, dtype=np.float64)
    B = values.size
    if B < 1:
        raise EmptyInputError("cannot take a quantile of zero replicates")
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise NonFiniteStatisticError(f"{bad} of {B} bootstrap replicates are not finite")
    m = max(1, _snap_ceil(B * q))
    return float(np.partition(values, m - 1)[m - 1])


def decide(observed: float, replicates: np.ndarray, level: float) -> dict:
    """Critical value, finite-B p-value and decision of a bootstrap test.

    The test rejects when ``observed`` exceeds the lower empirical
    ``1 - level`` quantile of the replicates, the ``m``-th order statistic
    with ``m = max(1, ceil(B*(1 - level)))``.  Under ties too, that happens
    exactly when ``#{replicates >= observed} <= B - m``.  All values returned
    are plain Python scalars.
    """
    observed = float(observed)
    if not math.isfinite(observed):
        raise NonFiniteStatisticError(f"observed statistic is {observed}")
    replicates = np.asarray(replicates, dtype=np.float64)
    critical = empirical_quantile(replicates, 1.0 - level)
    exceed = int(np.count_nonzero(replicates >= observed))
    return {
        "statistic": observed,
        "critical_value": critical,
        "p_value": (1.0 + exceed) / (replicates.size + 1.0),
        "reject": observed > critical,
    }


def bootstrap_quantile(dist: BootstrapDistribution, q: float) -> float:
    """Lower empirical quantile of a scalar bootstrap distribution."""
    if not dist.is_scalar:
        raise UnsupportedStatisticError(
            "quantiles are defined for scalar replicates only"
        )
    return empirical_quantile(dist.replicates, q)


def _centered_block_sums(s: HilbertSample, plan: BlockPlan) -> np.ndarray:
    """Per-block sums of ``X_j - mean(first kp)`` as a ``(k, d)`` matrix."""
    plan.require_sample(s)
    leading = s.values[: plan.kp]
    centered = leading - leading.mean(axis=0)
    return centered.reshape(plan.k, plan.p, s.d).sum(axis=1)


def long_run_variance_estimate(s: HilbertSample, plan: BlockPlan) -> float:
    """Average squared norm of centered block sums, scaled by ``1/(kp)``.

    Estimates the variance of the limiting Gaussian of the scaled sample
    mean; for independent scalar data it converges to the marginal variance,
    and under dependence to the sum of all lagged autocovariances.
    """
    sums = _centered_block_sums(s, plan)
    normsq = np.sum(sums * sums * s.weights, axis=1)
    return float(np.sum(normsq) / plan.kp)


def long_run_covariance_projection(s: HilbertSample, plan: BlockPlan,
                                   x: GridFunction, y: GridFunction) -> float:
    """Estimated long-run covariance form ``<Vx, y>`` from block sums."""
    if not s.same_space(x) or not s.same_space(y):
        raise PlanMismatchError("projection directions live on a different space")
    sums = _centered_block_sums(s, plan)
    px = np.sum(sums * (x.values * s.weights), axis=1)
    py = np.sum(sums * (y.values * s.weights), axis=1)
    return float(np.sum(px * py) / plan.kp)


def two_sample_test(x: HilbertSample, y: HilbertSample, plan_x: BlockPlan,
                    plan_y: BlockPlan, B: int, seed: int, level: float) -> dict:
    """Bootstrap test for equality of the two population means.

    Compares ``||mean(X) - mean(Y)||`` (means over the first ``kp``
    observations of each sample) with the ``1 - level`` quantile of its
    bootstrapped counterpart, in which each sample is resampled
    independently and recentered at its own mean.

    Returns a dict with the observed statistic, critical value, p-value and
    reject flag.  Replicate ``r`` draws from ``derive_stream(seed, r)`` (X)
    and ``derive_stream(seed, r, 1)`` (Y).
    """
    plan_x.require_sample(x)
    plan_y.require_sample(y)
    if not x.same_space(y.element(0)):
        raise PlanMismatchError("samples live on different spaces")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    mean_x = x.values[: plan_x.kp].mean(axis=0)
    mean_y = y.values[: plan_y.kp].mean(axis=0)
    diff = mean_x - mean_y
    observed = float(np.sqrt(np.sum(diff * diff * x.weights)))
    delta = (block_mean_deviations(x, plan_x, block_counts_per_replicate(plan_x, seed, B))
             - block_mean_deviations(y, plan_y, block_counts_per_replicate(plan_y, seed, B, 1)))
    values = np.sqrt(np.sum(delta * delta * x.weights, axis=1))
    return {**decide(observed, values, level), "replicates": values}
