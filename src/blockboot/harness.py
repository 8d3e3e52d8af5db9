"""Config-driven Monte Carlo experiments measuring what the bootstrap earns.

Each experiment repeats ``M`` times: simulate a path, run the bootstrap on
it, record the test or interval decision.  The tests take the observed
statistic and the evaluator of its replicates from the library's
constructors (:func:`~blockboot.bootstrap.two_sample_statistics`,
:func:`~blockboot.vmstat.cvm_statistics`,
:func:`~blockboot.vmstat.vstat_statistics`) that ``two_sample_test``,
``cvm_test`` and ``vstat_test`` call, so each test is defined in one place.
Aggregates report empirical size or coverage with a binomial standard error,
and the Kolmogorov distance between the pooled bootstrap law and the Monte
Carlo law of the observed statistic (the finite-sample target the bootstrap
is supposed to match).
Asymptotic references are reported alongside when a closed form is known:
the chi-square law with one degree of freedom for ``vstat:product`` on iid
data, evaluated as ``erf(sqrt(x/2))`` by :func:`~blockboot.dists.chdtr1`
without scipy.

Replication ``r`` touches only streams derived from ``(master_seed, r)``,
one for data and one for the bootstrap draws, so deleting, reordering, or
parallelizing replications cannot change any individual record.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .bootstrap import (
    BlockPlan,
    block_length_schedule,
    bootstrap_test,
    generator_draws,
    mean_norm_evaluator,
    two_sample_statistics,
)
# Traced by perfbench/tracing.py.
from .bootstrap import counts_from_indices, empirical_quantile  # noqa: F401
from .dists import (
    Distribution,
    chdtr1,
    distribution_from_token,
    normal,
    standardized_uniform,
    student_t,
)
from .exceptions import ConfigError
from .generators import ProcessConfig, generate_functional, generate_real
from .hilbert import HilbertSample
from .io import json_text
from .rng import derive_stream
from .vmstat import cvm_statistics, kernel_from_token, make_cvm_spec, vstat_statistics
# Traced by perfbench/tracing.py.
from .vmstat import (  # noqa: F401
    cvm_bootstrap_evaluator,
    cvm_statistic,
    v_statistic,
    vstat_bootstrap_evaluator,
)

# Stream role tags inside one replication.
_TAG_DATA = 0
_TAG_DATA_Y = 1
_TAG_BOOT = 2
_TAG_BOOT_Y = 3

_FAMILIES = ("mean-norm", "two-sample-mean", "cvm", "vstat")
#: Kernels the V-statistic experiment accepts: built-ins that are degenerate
#: for the centered processes (product) or for a matching marginal (cvm:*).
_DEGENERATE_KERNEL_FAMILIES = ("product", "cvm")

FAILURE_POLICY_LIMIT = 0.01


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid for functional processes; ``points`` is an integer."""

    points: int
    lo: float = 0.0
    hi: float = 1.0
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "points", operator.index(self.points))  # a float raises TypeError
        if self.points < 1:
            raise ConfigError("grid needs at least one point")
        if self.points > 1 and not self.lo < self.hi:
            raise ConfigError(f"grid endpoints must satisfy lo < hi, got {self.lo}, {self.hi}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and 0.0 < self.weight < math.inf):
            raise ConfigError("grid endpoints must be finite and the weight positive and finite")

    def make(self) -> tuple[np.ndarray, np.ndarray]:
        grid = np.linspace(self.lo, self.hi, self.points)
        return grid, np.full(self.points, self.weight)


def ignored_setting(section: str, key: str) -> ConfigError:
    """The error for an experiment setting that has no effect, worded for config files."""
    if section == "experiment":
        return ConfigError(f"[experiment] {key!r} has no effect with 'block_length'")
    return ConfigError(f"[{section}] {key!r} has no effect in an experiment file")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one Monte Carlo experiment needs, in one place.

    ``statistic`` selects the experiment family: ``mean-norm``,
    ``two-sample-mean``, ``cvm``, or ``vstat:<kernel>`` with the degenerate
    kernel tokens ``product`` or ``cvm:<distribution>``.

    ``n``, ``replicates``, ``replications``, ``block_length`` and
    ``master_seed`` are integers: a float raises ``TypeError``.  Settings
    that would be ignored raise :class:`ConfigError` with the config files'
    messages: a process ``seed`` other than 0, since every stream derives
    from ``master_seed``, and ``exponent`` or ``dyadic_freeze`` other than
    their defaults next to ``block_length``, which leaves no schedule.
    """

    statistic: str
    process: ProcessConfig
    n: int
    replicates: int
    replications: int
    level: float
    master_seed: int
    block_length: int | None = None
    exponent: float = 1.0 / 3.0
    dyadic_freeze: bool = True
    grid: GridSpec | None = None
    process_y: ProcessConfig | None = None
    mean_shift: float = 0.0
    null: str = "auto"

    def __post_init__(self):
        for name in ("n", "replicates", "replications", "block_length", "master_seed"):
            value = getattr(self, name)  # a float raises TypeError, as for seeds
            object.__setattr__(self, name, None if value is None else operator.index(value))
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown statistic {self.statistic!r}")
        for name in ("process", "process_y"):  # the class attributes are the defaults
            process = getattr(self, name)
            if process is not None and process.seed != ProcessConfig.seed:
                raise ignored_setting(name, "seed")
        if self.block_length is not None:
            for name in ("exponent", "dyadic_freeze"):
                if getattr(self, name) != getattr(ExperimentConfig, name):
                    raise ignored_setting("experiment", name)
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.replicates < 1 or self.replications < 1:
            raise ConfigError("replicates (B) and replications (M) must be at least 1")
        if not 0.0 < self.level < 1.0:
            raise ConfigError(f"level must lie in (0, 1), got {self.level}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must be an unsigned 64-bit integer")
        if self.block_length is not None and not 1 <= self.block_length <= self.n:
            raise ConfigError(f"block_length must be in 1..n, got {self.block_length}")
        if not 0.0 < self.exponent < 1.0:
            raise ConfigError(f"exponent must lie in (0, 1), got {self.exponent}")
        if self.family in ("cvm", "vstat") and self.process.is_functional:
            raise ConfigError(f"{self.family} experiments need a scalar process")
        if self.process.is_functional and self.grid is None:
            raise ConfigError("functional processes need a [grid] section")
        if self.grid is not None and not self.process.is_functional:
            raise ConfigError("[grid] only applies to functional processes")
        if self.process_y is not None and self.family != "two-sample-mean":
            raise ConfigError("process_y only applies to two-sample-mean")
        if self.process_y is not None and self.process_y.is_functional != self.process.is_functional:
            raise ConfigError("the two processes must live in the same space")
        if not math.isfinite(self.mean_shift):
            raise ConfigError(f"mean_shift must be finite, got {self.mean_shift}")
        if self.mean_shift != 0.0 and self.family != "two-sample-mean":
            raise ConfigError("mean_shift only applies to two-sample-mean")
        if self.null != "auto" and self.family != "cvm":
            raise ConfigError("null only applies to cvm")
        if self.family == "vstat":
            token = self.kernel_token
            if token.split(":")[0] not in _DEGENERATE_KERNEL_FAMILIES:
                raise ConfigError(
                    f"vstat experiments need a degenerate built-in kernel, got {token!r}"
                )
            kernel_from_token(token)  # validate eagerly

    @property
    def family(self) -> str:
        return self.statistic.split(":")[0]

    @property
    def kernel_token(self) -> str:
        if self.family != "vstat":
            raise ConfigError("only vstat statistics carry a kernel")
        token = self.statistic.partition(":")[2]
        if not token:
            raise ConfigError("vstat statistic needs a kernel, e.g. vstat:product")
        return token


@dataclass
class ReplicationRecord:
    """Outcome of one Monte Carlo replication."""

    replication: int
    failed: bool = False
    error: str | None = None
    observed: float | None = None
    critical_value: float | None = None
    reject: bool | None = None
    p_value: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None


# ---------------------------------------------------------------------------
# Kolmogorov distances


#: Sorted points per block of :func:`ks_sample_vs_cdf`: the CDF is evaluated
#: at each block's ends, and inside only the blocks that can hold the supremum.
_KS_BLOCK = 16
#: Slack on a block's bound, for CDFs whose rounding is not monotone in the last bits.
_KS_SLACK = 1e-12


def ks_two_sample(x, y) -> float:
    """Kolmogorov distance between two non-empty empirical distributions.

    Between consecutive values of the smaller sample its ECDF is constant and
    the other ECDF is monotone, so the supremum lies at a point of the smaller
    sample or at the last point of the larger sample below one of them.  Both
    ECDFs are evaluated only there, so after sorting both samples the cost is
    ``m = min(len)`` binary searches in the larger sample plus ``2m`` in
    each; the value is the same as over all pooled points.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    small, large = (x, y) if x.size <= y.size else (y, x)
    below = np.maximum(np.searchsorted(large, small, side="left") - 1, 0)
    points = np.concatenate([small, large[below]])
    fx = np.searchsorted(x, points, side="right") / x.size
    fy = np.searchsorted(y, points, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def ks_sample_vs_cdf(x, cdf) -> float:
    """Kolmogorov distance between a non-empty empirical distribution and a CDF.

    ``cdf`` maps an array elementwise to finite values and is nondecreasing,
    up to rounding well below ``_KS_SLACK``.  It is evaluated at every
    ``_KS_BLOCK``-th sorted point and the last one.  Between two such points
    it lies between its values there, which bounds both deviations inside
    the block; the CDF is evaluated inside only the blocks whose bound
    reaches the largest deviation found so far.  So the cost is one sort plus
    about ``n / _KS_BLOCK`` CDF evaluations and a few blocks more, and the
    value is the same as with the CDF at every point.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = x.size
    ends = np.arange(0, n - 1 + _KS_BLOCK, _KS_BLOCK)
    ends[-1] = n - 1
    at_ends = np.asarray(cdf(x[ends]), dtype=np.float64)
    best = max(np.max((ends + 1) / n - at_ends), np.max(at_ends - ends / n), 0.0)
    # At a point i inside block (a, b): (i + 1)/n - F <= b/n - F(a) and F - i/n <= F(b) - (a + 1)/n.
    a, b = ends[:-1], ends[1:]
    bound = np.maximum(b / n - at_ends[:-1], at_ends[1:] - (a + 1) / n) + _KS_SLACK
    first = a[bound >= best] + 1
    inner = (first[:, None] + np.arange(_KS_BLOCK - 1)).ravel()
    inner = inner[inner < n - 1]
    idx = np.concatenate([ends, inner])
    values = np.concatenate([at_ends, np.asarray(cdf(x[inner]), dtype=np.float64)])
    d_plus = np.max((idx + 1) / n - values)
    d_minus = np.max(values - idx / n)
    return float(max(d_plus, d_minus, 0.0))


def _chi2_1_cdf(x):
    """The chi-square CDF with one degree of freedom, the law of ``n V_n`` for the
    product kernel on standardized draws, ``n V_n = (sqrt(n) mean)^2``: Cephes
    ``erf(sqrt(x/2))`` written out (:func:`~blockboot.dists.chdtr1`), which is
    NaN below 0, where the CDF is 0."""
    return chdtr1(np.maximum(x, 0.0))


# ---------------------------------------------------------------------------
# Shared replication plumbing


def experiment_plan(cfg: ExperimentConfig) -> BlockPlan:
    if cfg.block_length is not None:
        return BlockPlan(n=cfg.n, p=cfg.block_length)
    return block_length_schedule(cfg.n, cfg.exponent, cfg.dyadic_freeze)


def _generate(cfg: ExperimentConfig, process: ProcessConfig, r: int, tag: int) -> HilbertSample:
    """Replication ``r``'s sample of ``process``, drawn from its stream ``tag``."""
    rng = derive_stream(cfg.master_seed, r, tag)
    if process.is_functional:
        grid, w = cfg.grid.make()
        return generate_functional(process, cfg.n, grid, w, rng=rng)
    return generate_real(process, cfg.n, rng=rng)


def _bootstrap_record(cfg: ExperimentConfig, plan: BlockPlan, r: int, observed: float,
                      evaluate, *tags: int):
    """Record and replicates of replication ``r``; each tag's stream draws a sample's blocks."""
    draws = [generator_draws(plan, derive_stream(cfg.master_seed, r, tag)) for tag in tags]
    result = bootstrap_test(observed, evaluate, cfg.level, cfg.replicates, *draws)
    record = ReplicationRecord(
        replication=r,
        observed=result["statistic"],
        critical_value=result["critical_value"],
        reject=result["reject"],
        p_value=result["p_value"],
    )
    return record, result["replicates"]


def resolve_null(cfg: ExperimentConfig) -> Distribution:
    """The goodness-of-fit null: explicit token, or the process marginal.

    ``auto`` is available where the marginal is known in closed form: iid
    processes, and gaussian AR(1)/linear filters.
    """
    if cfg.null != "auto":
        return distribution_from_token(cfg.null)
    process = cfg.process
    if process.kind == "iid":
        if process.innovation == "gaussian":
            return normal(0.0, 1.0)
        if process.innovation == "uniform":
            return standardized_uniform()
        return student_t(process.t_df, math.sqrt((process.t_df - 2.0) / process.t_df))
    if process.innovation == "gaussian" and process.kind == "ar1-real":
        return normal(0.0, math.sqrt(1.0 / (1.0 - process.phi**2)))
    if process.innovation == "gaussian" and process.kind == "linear-real":
        return normal(0.0, math.sqrt(sum(c * c for c in process.coefficients)))
    raise ConfigError(
        f"cannot derive the marginal of {process.kind!r} with "
        f"{process.innovation!r} innovations; set null explicitly"
    )


# ---------------------------------------------------------------------------
# Per-replication workers (one per experiment family)


def _mean_replication(cfg: ExperimentConfig, plan: BlockPlan, r: int):
    s = _generate(cfg, cfg.process, r, _TAG_DATA)
    center = s.values[: plan.kp].mean(axis=0)
    root_kp = math.sqrt(plan.kp)

    # All built-in processes are centered, so the truth is the zero function.
    observed = float(root_kp * np.sqrt(np.sum(center * center * s.weights)))
    record, boot = _bootstrap_record(cfg, plan, r, observed,
                                     mean_norm_evaluator(s, plan), _TAG_BOOT)
    if s.d == 1:
        radius = record.critical_value / root_kp
        record.ci_low = float(center[0] - radius)
        record.ci_high = float(center[0] + radius)
    return record, boot


def _two_sample_replication(cfg: ExperimentConfig, plan: BlockPlan, r: int):
    process_y = cfg.process_y if cfg.process_y is not None else cfg.process
    x = _generate(cfg, cfg.process, r, _TAG_DATA)
    y = _generate(cfg, process_y, r, _TAG_DATA_Y)
    if cfg.mean_shift != 0.0:
        y = HilbertSample(y.grid, y.weights, y.values + cfg.mean_shift)
    return _bootstrap_record(cfg, plan, r, *two_sample_statistics(x, y, plan, plan),
                             _TAG_BOOT, _TAG_BOOT_Y)


# Built once per process: ``Kernel`` and ``Distribution`` hold functions that
# cannot cross a ``--workers`` pool, and rebuilding them costs ~1 ms each.
_cached_null = functools.cache(resolve_null)
_cached_kernel = functools.cache(kernel_from_token)


def _cvm_replication(cfg: ExperimentConfig, plan: BlockPlan, r: int):
    null = _cached_null(cfg)
    s = _generate(cfg, cfg.process, r, _TAG_DATA)
    spec = make_cvm_spec(null.cdf, null.support, null.weight_fn, sample=s)
    return _bootstrap_record(cfg, plan, r, *cvm_statistics(s, plan, spec), _TAG_BOOT)


def _vstat_replication(cfg: ExperimentConfig, plan: BlockPlan, r: int):
    kernel = _cached_kernel(cfg.kernel_token)
    s = _generate(cfg, cfg.process, r, _TAG_DATA)
    return _bootstrap_record(cfg, plan, r, *vstat_statistics(s, plan, kernel), _TAG_BOOT)


# ---------------------------------------------------------------------------
# Reports


def _csv_cell(value) -> str:
    """One CSV cell: empty, ``true``/``false``, an integer, a float repr, or one-line text."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")
    return repr(float(value))


@dataclass
class ExperimentReport:
    """Per-replication records plus aggregates and full provenance."""

    config: dict
    plan: dict
    statistic: str
    records: list[ReplicationRecord]
    aggregates: dict
    flags: dict
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "version": self.version,
            "statistic": self.statistic,
            "config": self.config,
            "plan": self.plan,
            "aggregates": self.aggregates,
            "flags": self.flags,
            "replications": len(self.records),
        }

    def report_json(self) -> str:
        return json_text(self.to_dict())

    def records_csv(self) -> str:
        columns = ("replication", "observed", "critical_value", "reject",
                   "p_value", "ci_low", "ci_high", "failed", "error")
        lines = [",".join(columns)]
        for rec in self.records:
            lines.append(",".join(_csv_cell(getattr(rec, col)) for col in columns))
        return "\n".join(lines) + "\n"

    def summary_csv(self) -> str:
        lines = ["metric,value,stderr"]
        for metric, value in self.aggregates.items():
            if metric.endswith("_se") or value is None:
                continue
            se = self.aggregates.get(metric + "_se")
            lines.append(f"{metric},{_csv_cell(value)},{_csv_cell(se)}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str) -> None:
        """Write the three files; a report that is not finite JSON raises before any is made."""
        texts = {"report.json": self.report_json(), "records.csv": self.records_csv(),
                 "summary.csv": self.summary_csv()}
        os.makedirs(out_dir, exist_ok=True)
        for name, text in texts.items():
            with open(os.path.join(out_dir, name), "w", encoding="ascii") as fh:
                fh.write(text)


def aggregates_from_records(family: str, records: list[ReplicationRecord],
                            pooled_boot: np.ndarray | None = None,
                            reference_cdf=None, reference_name: str | None = None) -> dict:
    """Aggregate statistics; exactly recomputable from the records.

    Rate aggregates (size or coverage, with binomial standard errors) use
    only the per-replication records.  The Kolmogorov aggregates additionally
    use the pooled bootstrap replicates, which are reproducible replication
    by replication from the derived streams.
    """
    ok = [rec for rec in records if not rec.failed]
    failed = len(records) - len(ok)
    out: dict = {
        "replications": len(records),
        "failed": failed,
        "failure_rate": failed / len(records),
    }
    if ok:
        rejects = np.array([rec.reject for rec in ok], dtype=np.float64)
        rate = float(rejects.mean())
        se = float(np.sqrt(rate * (1.0 - rate) / rejects.size))
        if family == "mean-norm":
            out["coverage"] = 1.0 - rate
            out["coverage_se"] = se
        else:
            out["size"] = rate
            out["size_se"] = se
        observed = np.array([rec.observed for rec in ok], dtype=np.float64)
        out["mean_observed"] = float(observed.mean())
        if pooled_boot is not None and pooled_boot.size:
            out["ks_bootstrap_vs_mc"] = ks_two_sample(pooled_boot, observed)
            if reference_cdf is not None:
                out["reference"] = reference_name
                out["ks_bootstrap_vs_reference"] = ks_sample_vs_cdf(pooled_boot, reference_cdf)
                out["ks_mc_vs_reference"] = ks_sample_vs_cdf(observed, reference_cdf)
    return out


def _safe_replicate(cfg: ExperimentConfig, plan: BlockPlan, r: int):
    # Built per call, so that it reads the module's current functions.
    replicate = {
        "mean-norm": _mean_replication,
        "two-sample-mean": _two_sample_replication,
        "cvm": _cvm_replication,
        "vstat": _vstat_replication,
    }[cfg.family]
    try:
        return replicate(cfg, plan, r)
    except Exception as exc:  # recorded, excluded, counted
        record = ReplicationRecord(
            replication=r, failed=True, error=f"{type(exc).__name__}: {exc}"
        )
        return record, None


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run the Monte Carlo experiment of the configured statistic family.

    ``mean-norm`` reports the coverage of the bootstrap confidence ball for
    the mean; ``two-sample-mean`` the size (or power, under a mean shift) of
    the two-sample mean test; ``cvm`` the size of the goodness-of-fit test;
    ``vstat:<kernel>`` the agreement of a degenerate V-statistic's law with
    its bootstrap.  An unresolvable ``cvm`` null fails before any
    replication runs.

    ``workers > 1`` runs replications on a pool of at most ``workers``
    processes, and no more than there are replications or CPUs; because
    replication ``r`` depends only on streams derived from
    ``(master_seed, r)``, the report is byte-identical for any worker count.
    """
    if cfg.family == "cvm":
        resolve_null(cfg)  # fail fast on unresolvable nulls
    plan = experiment_plan(cfg)
    workers = min(workers, cfg.replications, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, cfg.replications // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(functools.partial(_safe_replicate, cfg, plan),
                                     range(cfg.replications), chunksize=chunk))
    else:
        outcomes = [_safe_replicate(cfg, plan, r) for r in range(cfg.replications)]
    records = [record for record, _ in outcomes]
    pooled = [np.asarray(boot, dtype=np.float64)
              for _, boot in outcomes if boot is not None]
    pooled_boot = np.concatenate(pooled) if pooled else np.empty(0)

    reference_cdf = None
    reference_name = None
    if cfg.family == "vstat" and cfg.kernel_token == "product" and cfg.process.kind == "iid":
        reference_cdf = _chi2_1_cdf
        reference_name = "chi2:1"

    aggregates = aggregates_from_records(cfg.family, records, pooled_boot,
                                         reference_cdf, reference_name)
    flags = {
        "degenerate_single_block": plan.k == 1,
        "discarded_tail": plan.discarded,
        "failure_policy_breach": aggregates["failure_rate"] > FAILURE_POLICY_LIMIT,
    }
    return ExperimentReport(
        config=asdict(cfg),
        plan=plan.to_dict(),
        statistic=cfg.statistic,
        records=records,
        aggregates=aggregates,
        flags=flags,
    )
