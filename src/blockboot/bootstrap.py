"""Nonoverlapping block bootstrap for samples of grid functions.

The sample is cut into ``k = floor(n/p)`` contiguous blocks of length ``p``;
a bootstrap sample concatenates ``k`` blocks drawn uniformly with
replacement.  Observations beyond ``k*p`` are discarded by every quantity
here, and the bootstrap mean is centered at the mean over the first ``k*p``
observations.

Replicate ``r`` of a bootstrap distribution always consumes the derived
stream ``derive_stream(seed, r)``, so the distribution is bit-identical no
matter in which order (or on how many workers) replicates are evaluated.

The built-in statistics are the names of :data:`COUNT_STATISTICS`, whose
evaluators run through :func:`replicate_values`: it draws rows of block
indices in batches of about ``BATCH_BYTES``, counts each batch with
:func:`counts_from_indices` and hands the counts to the evaluator, so the
only array that grows with ``B`` is the replicate output.  Evaluators map
each row on its own, so the values do not depend on the batch size.
Callable statistics are called once per replicate on the assembled sample,
outside the batches, with rows from the same per-replicate streams
(:func:`stream_draws`).  A bootstrap distribution is the ``(B,)`` or
``(B, d)`` replicate array; a non-finite replicate raises an error.

Every bootstrap test decides through :func:`bootstrap_test`, which feeds the
replicates to :func:`decide`: the critical value is the lower empirical
``1 - level`` quantile of the replicates, the p-value is
``(1 + #{replicates >= observed}) / (B + 1)``, and the test rejects when the
observed statistic exceeds the critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import (
    EmptyInputError,
    NonFiniteStatisticError,
    PlanMismatchError,
    ReplicateMemoryError,
    UnsupportedStatisticError,
)
from .hilbert import GridFunction, HilbertSample, same_space
from .rng import derive_stream, replicate_streams

#: Relative slack within which a floating-point power or product counts as
#: the integer nearest to it: 1000**(1/3) floors to 10 and not 9, while
#: 167402**0.75 = 8275.9999953 still floors to 8275.
_SNAP = 1e-12

#: Bytes of int64 block indices drawn in one batch of replicates.  A batch
#: and its counts stay in cache, and only the replicate output grows with B.
BATCH_BYTES = 2**19


def _snapped(x: float, rounding) -> int:
    """``rounding(x)`` as an int, or the nearest integer within ``_SNAP`` (relative) of ``x``."""
    nearest = round(x)
    if abs(x - nearest) <= _SNAP * max(1.0, abs(nearest)):
        return int(nearest)
    return int(rounding(x))


@dataclass(frozen=True)
class BlockPlan:
    """Partition of ``1..n`` into ``k`` leading blocks of length ``p``.

    Block ``i`` (0-based) holds the 0-based rows ``range(i*p, (i+1)*p)``.
    """

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
    p = max(1, _snapped(m ** exponent, math.floor))
    return BlockPlan(n=n, p=min(p, n), dyadic_freeze=dyadic_freeze)


def _draw_block_indices(plan: BlockPlan, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, plan.k, size=plan.k)


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
    if not same_space(s, star):
        raise PlanMismatchError("bootstrap sample lives on a different grid or weights")
    diff = star.values.mean(axis=0) - s.values[: plan.kp].mean(axis=0)
    return GridFunction(s.grid, math.sqrt(plan.kp) * diff, s.weights)


def _mean_deviations(s: HilbertSample, plan: BlockPlan):
    """Closure mapping ``(m, k)`` count rows to ``mean(star) - mean(first kp)``, as ``(m, d)``.

    A bootstrap sample's mean is the count-weighted average of the ``k``
    block means, so the deviation needs only the counts; the block means are
    taken once per sample.
    """
    plan.require_sample(s)
    means = s.values[: plan.kp].reshape(plan.k, plan.p, s.d).mean(axis=1)

    def deviations(counts: np.ndarray) -> np.ndarray:
        dev = counts.astype(np.float64) - 1.0
        return np.einsum("bk,kd->bd", dev, means, optimize=False) / plan.k

    return deviations


def mean_evaluator(s: HilbertSample, plan: BlockPlan):
    """``(m, d)`` rows of ``sqrt(kp) * (mean(star) - mean of the first kp observations)``.

    Each row is :func:`bootstrap_mean_statistic` on the assembled sample; for
    scalar samples, column 0 is the signed statistic.
    """
    deviations = _mean_deviations(s, plan)
    root_kp = math.sqrt(plan.kp)
    return lambda counts: root_kp * deviations(counts)


def mean_norm_evaluator(s: HilbertSample, plan: BlockPlan):
    """Norm of the centered, scaled bootstrap mean, one float per count row."""
    deviations = _mean_deviations(s, plan)
    root_kp = math.sqrt(plan.kp)

    def evaluate(counts: np.ndarray) -> np.ndarray:
        dev = deviations(counts)
        return root_kp * np.sqrt(np.sum(dev * dev * s.weights, axis=1))

    return evaluate


def lrv_evaluator(s: HilbertSample, plan: BlockPlan):
    """:func:`long_run_variance_estimate` of each bootstrap sample.

    Star blocks are whole sample blocks, so with ``S_a`` the block sums
    centered at the leading mean and ``c`` a row of counts the estimate is
    ``(sum_a c_a ||S_a||^2 - ||sum_a c_a S_a||^2 / k) / kp``.
    """
    sums = _centered_block_sums(s, plan)
    normsq = np.sum(sums * sums * s.weights, axis=1)

    def evaluate(counts: np.ndarray) -> np.ndarray:
        c = counts.astype(np.float64)
        total = np.einsum("bk,kd->bd", c, sums, optimize=False)
        spread = (np.einsum("bk,k->b", c, normsq, optimize=False)
                  - np.sum(total * total * s.weights, axis=1) / plan.k)
        return np.maximum(spread, 0.0) / plan.kp

    return evaluate


#: The built-in statistics by name.  Each depends on a draw only through its
#: block counts: ``COUNT_STATISTICS[name](s, plan)`` returns ``evaluate(counts)``,
#: mapping an ``(m, k)`` batch of count rows to its ``m`` replicate values,
#: like the V-statistic and CvM evaluators in :mod:`blockboot.vmstat`.
COUNT_STATISTICS = {"mean": mean_evaluator, "mean-norm": mean_norm_evaluator, "lrv": lrv_evaluator}


def _count_evaluator(name: str, s: HilbertSample, plan: BlockPlan):
    if name not in COUNT_STATISTICS:
        raise UnsupportedStatisticError(f"unknown statistic {name!r}, not in {list(COUNT_STATISTICS)}")
    return COUNT_STATISTICS[name](s, plan)


def _finite(values: np.ndarray) -> np.ndarray:
    """``values``, or :class:`NonFiniteStatisticError` if a replicate (row) is not finite."""
    bad = int(np.count_nonzero(~np.isfinite(values).reshape(len(values), -1).all(axis=1)))
    if bad:
        raise NonFiniteStatisticError(f"{bad} of {len(values)} bootstrap replicates are not finite")
    return values


@np.errstate(over="ignore", invalid="ignore")
def bootstrap_replicate(s: HilbertSample, plan: BlockPlan, statistic, seed: int, r: int):
    """Value of ``statistic`` on the ``r``-th bootstrap draw.

    Replicate ``r`` consumes only the derived stream ``derive_stream(seed, r)``,
    so single replicates can be recomputed, skipped, or distributed across
    workers without affecting any other replicate.  A name gives row ``r`` of
    :func:`bootstrap_distribution`, or its error; a callable's value is
    returned as it is.
    """
    plan.require_sample(s)
    idx = _draw_block_indices(plan, derive_stream(seed, r))
    if isinstance(statistic, str):
        return _finite(_count_evaluator(statistic, s, plan)(counts_from_indices(idx, plan.k)))[0]
    return statistic(s, _resample(s, plan, idx), plan)


@np.errstate(over="ignore", invalid="ignore")
def bootstrap_distribution(s: HilbertSample, plan: BlockPlan, B: int, statistic,
                           seed: int) -> np.ndarray:
    """Monte Carlo distribution of ``statistic`` over ``B`` bootstrap draws.

    Parameters
    ----------
    s : HilbertSample
        Observed sample; the plan must match its length.
    plan : BlockPlan
        Block layout used for every draw.
    B : int
        Number of replicates.
    statistic : str or callable
        A name from :data:`COUNT_STATISTICS` (``"mean"``, ``"mean-norm"``,
        ``"lrv"``) is evaluated on the block counts of each batch of draws
        (see :func:`replicate_values`); another name raises
        :class:`UnsupportedStatisticError`.  A callable is called as
        ``statistic(s, star, plan)`` on each assembled bootstrap sample
        ``star``, one replicate at a time, and returns a float or a
        :class:`GridFunction` of the same shape every time.
    seed : int
        Master seed; replicate ``r`` uses ``derive_stream(seed, r)``.

    Returns
    -------
    numpy.ndarray
        Scalar replicates as a ``(B,)`` array, grid-function replicates as a
        ``(B, d)`` matrix.  A non-finite replicate raises
        :class:`NonFiniteStatisticError`, and numpy's overflow warnings on
        finite data near the float range are not printed.
    """
    plan.require_sample(s)
    if isinstance(statistic, str):
        return replicate_values(B, _count_evaluator(statistic, s, plan),
                                stream_draws(plan, B, seed))
    return _callable_replicates(s, plan, B, statistic, seed)


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
    return replicate_values(B, lambda counts: counts, stream_draws(plan, B, seed, *tail))


def stream_draws(plan: BlockPlan, B: int, seed: int, *tail: int):
    """Draw source whose replicate ``r`` draws from ``derive_stream(seed, r, *tail)``.

    A draw source is a pair ``(k, draw)``: ``draw(m)`` returns the ``(m, k)``
    block indices of the next ``m`` replicates.
    """
    streams = replicate_streams(seed, B, *tail)

    def draw(m: int) -> np.ndarray:
        idx = np.empty((m, plan.k), dtype=np.int64)
        for row, (_, rng) in zip(idx, streams):
            row[:] = _draw_block_indices(plan, rng)
        return idx

    return plan.k, draw


def generator_draws(plan: BlockPlan, rng: np.random.Generator):
    """Draw source of one stream; its batches continue one ``(B, k)`` draw bit for bit."""
    return plan.k, lambda m: rng.integers(0, plan.k, size=(m, plan.k))


def _replicate_output(B: int, row_shape: tuple, dtype) -> np.ndarray:
    try:
        return np.empty((B, *row_shape), dtype=dtype)
    except (MemoryError, ValueError) as exc:
        raise ReplicateMemoryError(
            f"cannot allocate {B} bootstrap replicates; use fewer replicates"
        ) from exc


def replicate_values(B: int, evaluate, *sources) -> np.ndarray:
    """Replicate values of ``B`` bootstrap draws, filled in row batches.

    Each batch of rows ``[r0, r1)``, about ``BATCH_BYTES`` of block indices,
    is drawn from every source, counted with :func:`counts_from_indices` and
    mapped to its values by ``evaluate(*counts)``.  The output takes its
    shape and type from the first batch and is the only array that grows
    with ``B``.  Every evaluator maps each row on its own, so no value
    depends on the batch size.  A non-finite replicate raises
    :class:`NonFiniteStatisticError`.
    """
    if B < 1:
        raise EmptyInputError("need B >= 1 bootstrap replicates")
    out = None
    rows = max(1, BATCH_BYTES // (8 * sum(k for k, _ in sources)))
    for r0 in range(0, B, rows):
        m = min(rows, B - r0)
        idx = [draw(m) for _, draw in sources]
        values = evaluate(*(counts_from_indices(i, k) for i, (k, _) in zip(idx, sources)))
        if out is None:
            out = _replicate_output(B, values.shape[1:], values.dtype)
        out[r0 : r0 + m] = values
    return _finite(out)


def _callable_replicates(s: HilbertSample, plan: BlockPlan, B: int, statistic, seed: int):
    """``statistic(s, star, plan)`` on the sample assembled from each replicate's draw."""
    if B < 1:
        raise EmptyInputError("need B >= 1 bootstrap replicates")
    _, draw = stream_draws(plan, B, seed)
    out = None
    for r in range(B):
        try:
            value = statistic(s, _resample(s, plan, draw(1)[0]), plan)
        except Exception as exc:
            exc.args = (f"replicate {r}: {exc}",)
            raise
        value = np.asarray(value.values if isinstance(value, GridFunction) else value,
                           dtype=np.float64)
        if out is None:
            out = _replicate_output(B, value.shape, np.float64)
        elif value.shape != out.shape[1:]:
            raise UnsupportedStatisticError(
                f"replicate {r}: value of shape {value.shape}, replicate 0 had {out.shape[1:]}"
            )
        out[r] = value
    return _finite(out)


def empirical_quantile(values: np.ndarray, q: float) -> float:
    """Lower empirical quantile of scalar replicates: the ``ceil(B*q)``-th order statistic."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise UnsupportedStatisticError("quantiles are defined for scalar replicates only")
    B = values.size
    if B < 1:
        raise EmptyInputError("cannot take a quantile of zero replicates")
    m = max(1, _snapped(B * q, math.ceil))
    return float(np.partition(_finite(values), m - 1)[m - 1])


def _checked_observed(observed: float, level: float) -> float:
    """``observed`` as a float, once it and ``level`` are valid."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    observed = float(observed)
    if not math.isfinite(observed):
        raise NonFiniteStatisticError(f"observed statistic is {observed}")
    return observed


def decide(observed: float, replicates: np.ndarray, level: float) -> dict:
    """Critical value, finite-B p-value and decision of a bootstrap test.

    The test rejects when ``observed`` exceeds the lower empirical
    ``1 - level`` quantile of the replicates, the ``m``-th order statistic
    with ``m = max(1, ceil(B*(1 - level)))``.  Under ties too, that happens
    exactly when ``#{replicates >= observed} <= B - m``.  All values returned
    are plain Python scalars.
    """
    observed = _checked_observed(observed, level)
    replicates = np.asarray(replicates, dtype=np.float64)
    B = replicates.size
    if B < 1:
        raise EmptyInputError("cannot decide on zero replicates")
    # ``1 - level`` rounds to 1 for levels below ~1e-16, so the rank comes
    # from ``B - B*level``; the midpoint level (m - 1/2)/B lies in (0, 1) and
    # selects exactly the m-th order statistic.
    m = max(1, _snapped(B - B * level, math.ceil))
    critical = empirical_quantile(replicates, (m - 0.5) / B)
    exceed = int(np.count_nonzero(replicates >= observed))
    return {
        "statistic": observed,
        "critical_value": critical,
        "p_value": (1.0 + exceed) / (B + 1.0),
        "reject": observed > critical,
    }


def bootstrap_test(observed: float, evaluate, level: float, B: int, *sources) -> dict:
    """Decision of a bootstrap test on ``B`` replicates of ``evaluate``.

    The replicates come from :func:`replicate_values` over the draw
    ``sources``, once ``observed`` and ``level`` are valid; the result is
    :func:`decide`'s dict plus the replicate array under ``"replicates"``.
    """
    observed = _checked_observed(observed, level)
    values = replicate_values(B, evaluate, *sources)
    return {**decide(observed, values, level), "replicates": values}


def _centered_block_sums(s: HilbertSample, plan: BlockPlan) -> np.ndarray:
    """Per-block sums of ``X_j - mean(first kp)`` as a ``(k, d)`` matrix."""
    plan.require_sample(s)
    leading = s.values[: plan.kp]
    centered = leading - leading.mean(axis=0)
    return centered.reshape(plan.k, plan.p, s.d).sum(axis=1)


@np.errstate(over="ignore", invalid="ignore")
def long_run_variance_estimate(s: HilbertSample, plan: BlockPlan) -> float:
    """Average squared norm of centered block sums, scaled by ``1/(kp)``.

    Estimates the variance of the limiting Gaussian of the scaled sample
    mean; for independent scalar data it converges to the marginal variance,
    and under dependence to the sum of all lagged autocovariances.  Finite
    data whose estimate overflows raise :class:`NonFiniteStatisticError`
    without numpy warnings.
    """
    sums = _centered_block_sums(s, plan)
    normsq = np.sum(sums * sums * s.weights, axis=1)
    estimate = float(np.sum(normsq) / plan.kp)
    if not math.isfinite(estimate):
        raise NonFiniteStatisticError(f"long-run variance estimate is {estimate}")
    return estimate


def two_sample_statistics(x: HilbertSample, y: HilbertSample, plan_x: BlockPlan,
                          plan_y: BlockPlan) -> tuple[float, Callable]:
    """Observed ``||mean(X) - mean(Y)||`` and the evaluator of its replicates.

    Means are over the first ``kp`` observations of each sample;
    ``evaluate(counts_x, counts_y)`` resamples X by each row of ``counts_x``
    and Y by the same row of ``counts_y``, each recentered at its own mean.
    """
    diff = x.values[: plan_x.kp].mean(axis=0) - y.values[: plan_y.kp].mean(axis=0)
    observed = float(np.sqrt(np.sum(diff * diff * x.weights)))

    deviations_x, deviations_y = _mean_deviations(x, plan_x), _mean_deviations(y, plan_y)

    def evaluate(counts_x: np.ndarray, counts_y: np.ndarray) -> np.ndarray:
        delta = deviations_x(counts_x) - deviations_y(counts_y)
        return np.sqrt(np.sum(delta * delta * x.weights, axis=1))

    return observed, evaluate


@np.errstate(over="ignore", invalid="ignore")
def two_sample_test(x: HilbertSample, y: HilbertSample, plan_x: BlockPlan,
                    plan_y: BlockPlan, B: int, seed: int, level: float) -> dict:
    """Bootstrap test for equality of the two population means.

    Compares ``||mean(X) - mean(Y)||`` (means over the first ``kp``
    observations of each sample) with the ``1 - level`` quantile of its
    bootstrapped counterpart, in which each sample is resampled
    independently and recentered at its own mean.

    Returns a dict with the observed statistic, critical value, p-value,
    reject flag and replicates; a non-finite statistic raises
    :class:`NonFiniteStatisticError` without numpy warnings.  Replicate
    ``r`` draws from ``derive_stream(seed, r)`` (X) and
    ``derive_stream(seed, r, 1)`` (Y).
    """
    plan_x.require_sample(x)
    plan_y.require_sample(y)
    if not same_space(x, y):
        raise PlanMismatchError("samples live on different spaces")
    observed, evaluate = two_sample_statistics(x, y, plan_x, plan_y)
    return bootstrap_test(observed, evaluate, level, B, stream_draws(plan_x, B, seed),
                          stream_draws(plan_y, B, seed, 1))
