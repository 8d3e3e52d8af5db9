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
from .hilbert import GridFunction, HilbertSample
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


def _replicate_block_indices(plan: BlockPlan, seed: int, B: int, *tail: int) -> np.ndarray:
    """``(B, k)`` block draws; row ``r`` comes from ``derive_stream(seed, r, *tail)``."""
    if B < 1:
        raise EmptyInputError("need B >= 1 bootstrap replicates")
    idx = np.empty((B, plan.k), dtype=np.int64)
    for r, rng in replicate_streams(seed, B, *tail):
        idx[r] = _draw_block_indices(plan, rng)
    return idx


def _resample(s: HilbertSample, plan: BlockPlan, idx: np.ndarray) -> HilbertSample:
    rows = (idx[:, None] * plan.p + np.arange(plan.p)[None, :]).ravel()
    return HilbertSample(s.grid, s.weights, s.values[rows])


def draw_bootstrap_sample(s: HilbertSample, plan: BlockPlan,
                          rng: np.random.Generator) -> HilbertSample:
    """Concatenate ``k`` blocks drawn uniformly with replacement.

    The output has length ``k*p``; its ``i``-th block is a bit-identical copy
    of one contiguous block of ``s``.  Deterministic given the generator
    state.
    """
    plan.require_sample(s)
    return _resample(s, plan, _draw_block_indices(plan, rng))


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


# The built-in statistics depend on a draw only through its block counts:
# ``evaluator(s, plan)`` returns ``evaluate(counts)``, mapping a ``(B, k)``
# count matrix to the ``B`` replicate values, like the V-statistic and CvM
# evaluators in :mod:`blockboot.vmstat`.


class MeanStatistic:
    """The centered, scaled bootstrap mean itself, as a grid function.

    Replicates are ``(B, d)`` rows of ``sqrt(kp) * (mean(star) - mean of the
    first kp observations)``, as :func:`bootstrap_mean_statistic` gives on
    the assembled sample; for scalar samples, column 0 is the signed
    statistic.
    """

    statistic_id = "mean"

    def evaluator(self, s: HilbertSample, plan: BlockPlan):
        plan.require_sample(s)
        root_kp = math.sqrt(plan.kp)
        return lambda counts: root_kp * block_mean_deviations(s, plan, counts)


class MeanNormStatistic:
    """Norm of the centered, scaled bootstrap mean, one float per replicate."""

    statistic_id = "mean-norm"

    def evaluator(self, s: HilbertSample, plan: BlockPlan):
        plan.require_sample(s)
        root_kp = math.sqrt(plan.kp)

        def evaluate(counts: np.ndarray) -> np.ndarray:
            dev = block_mean_deviations(s, plan, counts)
            return root_kp * np.sqrt(np.sum(dev * dev * s.weights, axis=1))

        return evaluate


class LongRunVarianceStatistic:
    """:func:`long_run_variance_estimate` of each bootstrap sample.

    Star blocks are whole sample blocks, so with ``S_a`` the block sums
    centered at the leading mean and ``c`` a row of counts the estimate is
    ``(sum_a c_a ||S_a||^2 - ||sum_a c_a S_a||^2 / k) / kp``.
    """

    statistic_id = "lrv"

    def evaluator(self, s: HilbertSample, plan: BlockPlan):
        sums = _centered_block_sums(s, plan)
        normsq = np.sum(sums * sums * s.weights, axis=1)

        def evaluate(counts: np.ndarray) -> np.ndarray:
            c = counts.astype(np.float64)
            total = np.einsum("bk,kd->bd", c, sums, optimize=False)
            spread = (np.einsum("bk,k->b", c, normsq, optimize=False)
                      - np.sum(total * total * s.weights, axis=1) / plan.k)
            return np.maximum(spread, 0.0) / plan.kp

        return evaluate


_COUNT_STATISTICS = (MeanStatistic, MeanNormStatistic, LongRunVarianceStatistic)


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


def _callable_replicates(s: HilbertSample, plan: BlockPlan, statistic,
                         idx: np.ndarray) -> np.ndarray:
    """``statistic(s, star, plan)`` on the sample assembled from each row of ``idx``."""
    values = []
    for r, row in enumerate(idx):
        try:
            values.append(statistic(s, _resample(s, plan, row), plan))
        except Exception as exc:
            exc.args = (f"replicate {r}: {exc}",)
            raise
    if isinstance(values[0], GridFunction):
        return np.stack([v.values for v in values])
    if isinstance(values[0], np.ndarray) and values[0].ndim == 1:
        return np.stack(values)
    return np.asarray(values, dtype=np.float64)


def bootstrap_replicate(s: HilbertSample, plan: BlockPlan, statistic, seed: int, r: int):
    """Value of ``statistic`` on the ``r``-th bootstrap draw.

    Replicate ``r`` consumes only the derived stream ``derive_stream(seed, r)``,
    so single replicates can be recomputed, skipped, or distributed across
    workers without affecting any other replicate.
    """
    idx = _draw_block_indices(plan, derive_stream(seed, r))
    if isinstance(statistic, _COUNT_STATISTICS):
        return statistic.evaluator(s, plan)(counts_from_indices(idx, plan.k))[0]
    return statistic(s, _resample(s, plan, idx), plan)


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
    statistic : MeanStatistic, MeanNormStatistic, LongRunVarianceStatistic or callable
        The built-in statistics are evaluated on the ``(B, k)`` block
        counts of all draws at once.  Any other callable is called as
        ``statistic(s, star, plan)`` on each assembled bootstrap sample
        ``star`` and returns a float or a :class:`GridFunction`.
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
    plan.require_sample(s)
    if statistic_id is None:
        statistic_id = getattr(statistic, "statistic_id", None) or getattr(
            statistic, "__name__", "statistic"
        )
    idx = _replicate_block_indices(plan, seed, B)
    if isinstance(statistic, _COUNT_STATISTICS):
        replicates = statistic.evaluator(s, plan)(counts_from_indices(idx, plan.k))
    else:
        replicates = _callable_replicates(s, plan, statistic, idx)
    if replicates.ndim == 1:
        return BootstrapDistribution(replicates, B, seed, statistic_id)
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
    return counts_from_indices(_replicate_block_indices(plan, seed, B, *tail), plan.k)


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


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")


def decide(observed: float, replicates: np.ndarray, level: float) -> dict:
    """Critical value, finite-B p-value and decision of a bootstrap test.

    The test rejects when ``observed`` exceeds the lower empirical
    ``1 - level`` quantile of the replicates, the ``m``-th order statistic
    with ``m = max(1, ceil(B*(1 - level)))``.  Under ties too, that happens
    exactly when ``#{replicates >= observed} <= B - m``.  All values returned
    are plain Python scalars.
    """
    _check_level(level)
    observed = float(observed)
    if not math.isfinite(observed):
        raise NonFiniteStatisticError(f"observed statistic is {observed}")
    replicates = np.asarray(replicates, dtype=np.float64)
    B = replicates.size
    if B < 1:
        raise EmptyInputError("cannot decide on zero replicates")
    # ``1 - level`` rounds to 1 for levels below ~1e-16, so the rank comes
    # from ``B - B*level``; the midpoint level (m - 1/2)/B lies in (0, 1) and
    # selects exactly the m-th order statistic.
    m = max(1, _snap_ceil(B - B * level))
    critical = empirical_quantile(replicates, (m - 0.5) / B)
    exceed = int(np.count_nonzero(replicates >= observed))
    return {
        "statistic": observed,
        "critical_value": critical,
        "p_value": (1.0 + exceed) / (B + 1.0),
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


def two_sample_statistics(x: HilbertSample, y: HilbertSample, plan_x: BlockPlan,
                          plan_y: BlockPlan, counts_x: np.ndarray,
                          counts_y: np.ndarray) -> tuple[float, np.ndarray]:
    """Observed ``||mean(X) - mean(Y)||`` and its replicates from block counts.

    Means are over the first ``kp`` observations of each sample; replicate
    ``r`` resamples X by row ``r`` of ``counts_x`` and Y by row ``r`` of
    ``counts_y``, each recentered at its own mean.
    """
    diff = x.values[: plan_x.kp].mean(axis=0) - y.values[: plan_y.kp].mean(axis=0)
    observed = float(np.sqrt(np.sum(diff * diff * x.weights)))
    delta = (block_mean_deviations(x, plan_x, counts_x)
             - block_mean_deviations(y, plan_y, counts_y))
    return observed, np.sqrt(np.sum(delta * delta * x.weights, axis=1))


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
    _check_level(level)
    observed, values = two_sample_statistics(
        x, y, plan_x, plan_y, block_counts_per_replicate(plan_x, seed, B),
        block_counts_per_replicate(plan_y, seed, B, 1))
    return {**decide(observed, values, level), "replicates": values}
