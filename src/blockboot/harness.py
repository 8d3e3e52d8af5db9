"""Config-driven Monte Carlo experiments measuring what the bootstrap earns.

Each experiment repeats ``M`` times: simulate a path, run the bootstrap on
it, record the test or interval decision.  Aggregates report empirical size
or coverage with a binomial standard error, and the Kolmogorov distance
between the pooled bootstrap law and the Monte Carlo law of the observed
statistic (the finite-sample target the bootstrap is supposed to match).
Asymptotic references are reported alongside when a closed form is known.

Replication ``r`` touches only streams derived from ``(master_seed, r)``,
one for data and one for the bootstrap draws, so deleting, reordering, or
parallelizing replications cannot change any individual record.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats as _sstats

from . import __version__
from .bootstrap import (
    BlockPlan,
    MeanNormStatistic,
    block_length_schedule,
    counts_from_indices,
    decide,
    two_sample_statistics,
)
from .bootstrap import empirical_quantile  # noqa: F401  (traced by perfbench/tracing.py)
from .dists import Distribution, distribution_from_token, normal, standardized_uniform, student_t
from .exceptions import ConfigError
from .generators import ProcessConfig, generate_functional, generate_real
from .hilbert import HilbertSample
from .rng import derive_stream
from .vmstat import (
    cvm_bootstrap_evaluator,
    cvm_statistic,
    kernel_from_token,
    make_cvm_spec,
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
    """Uniform evaluation grid for functional processes."""

    points: int
    lo: float = 0.0
    hi: float = 1.0
    weight: float = 1.0

    def __post_init__(self):
        if self.points < 1:
            raise ConfigError("grid needs at least one point")
        if self.points > 1 and not self.lo < self.hi:
            raise ConfigError(f"grid endpoints must satisfy lo < hi, got {self.lo}, {self.hi}")
        if not self.weight > 0:
            raise ConfigError("grid weight must be positive")

    def make(self) -> tuple[np.ndarray, np.ndarray]:
        grid = np.linspace(self.lo, self.hi, self.points)
        return grid, np.full(self.points, self.weight)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one Monte Carlo experiment needs, in one place.

    ``statistic`` selects the experiment family: ``mean-norm``,
    ``two-sample-mean``, ``cvm``, or ``vstat:<kernel>`` with kernel tokens
    ``product``, ``gaussian:<bandwidth>`` or ``cvm:<distribution>``.
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
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown statistic {self.statistic!r}")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.replicates < 1 or self.replications < 1:
            raise ConfigError("replicates (B) and replications (M) must be at least 1")
        if not 0.0 < self.level < 1.0:
            raise ConfigError(f"level must lie in (0, 1), got {self.level}")
        if not 0 <= int(self.master_seed) < 2**64:
            raise ConfigError("master_seed must be an unsigned 64-bit integer")
        if self.block_length is not None and not 1 <= self.block_length <= self.n:
            raise ConfigError(f"block_length must be in 1..n, got {self.block_length}")
        if not 0.0 < self.exponent < 1.0:
            raise ConfigError(f"exponent must lie in (0, 1), got {self.exponent}")
        if self.family in ("cvm", "vstat") and self.process.is_functional:
            raise ConfigError(f"{self.family} experiments need a scalar process")
        if self.process.is_functional and self.grid is None:
            raise ConfigError("functional processes need a [grid] section")
        if self.process_y is not None and self.family != "two-sample-mean":
            raise ConfigError("process_y only applies to two-sample-mean")
        if self.process_y is not None and self.process_y.is_functional != self.process.is_functional:
            raise ConfigError("the two processes must live in the same space")
        if self.mean_shift != 0.0 and self.family != "two-sample-mean":
            raise ConfigError("mean_shift only applies to two-sample-mean")
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


def ks_two_sample(x, y) -> float:
    """Kolmogorov distance between two empirical distributions."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    points = np.concatenate([x, y])
    points.sort(kind="stable")
    fx = np.searchsorted(x, points, side="right") / x.size
    fy = np.searchsorted(y, points, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def ks_sample_vs_cdf(x, cdf) -> float:
    """Kolmogorov distance between an empirical distribution and a CDF."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = x.size
    values = np.asarray(cdf(x), dtype=np.float64)
    d_plus = np.max(np.arange(1, n + 1) / n - values)
    d_minus = np.max(values - np.arange(0, n) / n)
    return float(max(d_plus, d_minus, 0.0))


def ks_sample_vs_discrete(x, support, probs, tol: float = 1e-9) -> float:
    """Kolmogorov distance between an empirical law and a discrete law.

    Sample values within ``tol`` (absolute) of an atom are counted as sitting
    on it, which makes the distance robust to rounding differences between
    two routes to the same discrete statistic.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    support = np.asarray(support, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(support, kind="stable")
    support, probs = support[order], probs[order]
    cum = np.cumsum(probs)
    f_right = np.searchsorted(x, support + tol, side="right") / x.size
    f_left = np.searchsorted(x, support - tol, side="left") / x.size
    d_at = np.max(np.abs(f_right - cum))
    d_before = np.max(np.abs(f_left - (cum - probs)))
    return float(max(d_at, d_before))


# ---------------------------------------------------------------------------
# Shared replication plumbing


def experiment_plan(cfg: ExperimentConfig) -> BlockPlan:
    if cfg.block_length is not None:
        return BlockPlan(n=cfg.n, p=cfg.block_length, dyadic_freeze=False)
    return block_length_schedule(cfg.n, cfg.exponent, cfg.dyadic_freeze)


def _generate(cfg: ExperimentConfig, process: ProcessConfig,
              rng: np.random.Generator) -> HilbertSample:
    if process.is_functional:
        grid, w = cfg.grid.make()
        return generate_functional(process, cfg.n, grid, w, rng=rng)
    return generate_real(process, cfg.n, rng=rng)


def _draw_counts(plan: BlockPlan, rng: np.random.Generator, B: int) -> np.ndarray:
    idx = rng.integers(0, plan.k, size=(B, plan.k))
    return counts_from_indices(idx, plan.k)


def _record(r: int, observed: float, boot: np.ndarray, level: float) -> ReplicationRecord:
    decision = decide(observed, boot, level)
    return ReplicationRecord(
        replication=r,
        observed=decision["statistic"],
        critical_value=decision["critical_value"],
        reject=decision["reject"],
        p_value=decision["p_value"],
    )


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
    rng = derive_stream(cfg.master_seed, r, _TAG_DATA)
    s = _generate(cfg, cfg.process, rng)
    center = s.values[: plan.kp].mean(axis=0)
    root_kp = math.sqrt(plan.kp)

    counts = _draw_counts(plan, derive_stream(cfg.master_seed, r, _TAG_BOOT), cfg.replicates)
    boot = MeanNormStatistic().evaluator(s, plan)(counts)

    # All built-in processes are centered, so the truth is the zero function.
    observed = float(root_kp * np.sqrt(np.sum(center * center * s.weights)))
    record = _record(r, observed, boot, cfg.level)
    if s.d == 1:
        radius = record.critical_value / root_kp
        record.ci_low = float(center[0] - radius)
        record.ci_high = float(center[0] + radius)
    return record, boot


def _two_sample_replication(cfg: ExperimentConfig, plan: BlockPlan, r: int):
    process_y = cfg.process_y if cfg.process_y is not None else cfg.process
    x = _generate(cfg, cfg.process, derive_stream(cfg.master_seed, r, _TAG_DATA))
    y = _generate(cfg, process_y, derive_stream(cfg.master_seed, r, _TAG_DATA_Y))
    if cfg.mean_shift != 0.0:
        y = HilbertSample(y.grid, y.weights, y.values + cfg.mean_shift)
    counts_x = _draw_counts(plan, derive_stream(cfg.master_seed, r, _TAG_BOOT), cfg.replicates)
    counts_y = _draw_counts(plan, derive_stream(cfg.master_seed, r, _TAG_BOOT_Y),
                            cfg.replicates)
    observed, boot = two_sample_statistics(x, y, plan, plan, counts_x, counts_y)
    return _record(r, observed, boot, cfg.level), boot


def _cvm_replication(cfg: ExperimentConfig, plan: BlockPlan, r: int):
    null = resolve_null(cfg)
    rng = derive_stream(cfg.master_seed, r, _TAG_DATA)
    s = _generate(cfg, cfg.process, rng)
    spec = make_cvm_spec(null.cdf, null.support, null.weight_fn, sample=s)
    observed = float(cfg.n * cvm_statistic(s, spec))
    evaluator = cvm_bootstrap_evaluator(s, plan, spec)
    counts = _draw_counts(plan, derive_stream(cfg.master_seed, r, _TAG_BOOT), cfg.replicates)
    boot = evaluator(counts)
    return _record(r, observed, boot, cfg.level), boot


def _vstat_replication(cfg: ExperimentConfig, plan: BlockPlan, r: int):
    kernel = kernel_from_token(cfg.kernel_token)
    rng = derive_stream(cfg.master_seed, r, _TAG_DATA)
    s = _generate(cfg, cfg.process, rng)
    observed = float(cfg.n * v_statistic(s, kernel))
    evaluator = vstat_bootstrap_evaluator(s, plan, kernel)
    counts = _draw_counts(plan, derive_stream(cfg.master_seed, r, _TAG_BOOT), cfg.replicates)
    boot = evaluator(counts)
    return _record(r, observed, boot, cfg.level), boot


# ---------------------------------------------------------------------------
# Reports


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
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def records_csv(self) -> str:
        columns = ("replication", "observed", "critical_value", "reject",
                   "p_value", "ci_low", "ci_high", "failed", "error")
        lines = [",".join(columns)]
        for rec in self.records:
            row = []
            for col in columns:
                value = getattr(rec, col)
                if value is None:
                    row.append("")
                elif isinstance(value, bool):
                    row.append("true" if value else "false")
                elif isinstance(value, float):
                    row.append(repr(value))
                elif col == "error":
                    row.append(str(value).replace(",", ";").replace("\n", " "))
                else:
                    row.append(str(value))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def summary_csv(self) -> str:
        lines = ["metric,value,stderr"]
        for metric, value in self.aggregates.items():
            if metric.endswith("_se") or value is None:
                continue
            se = self.aggregates.get(metric + "_se")
            se_txt = repr(float(se)) if se is not None else ""
            if isinstance(value, bool):
                txt = "true" if value else "false"
            elif isinstance(value, (int, np.integer)):
                txt = str(int(value))
            elif isinstance(value, str):
                txt = value
            else:
                txt = repr(float(value))
            lines.append(f"{metric},{txt},{se_txt}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str) -> None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="ascii") as fh:
            fh.write(self.report_json())
        with open(os.path.join(out_dir, "records.csv"), "w", encoding="ascii") as fh:
            fh.write(self.records_csv())
        with open(os.path.join(out_dir, "summary.csv"), "w", encoding="ascii") as fh:
            fh.write(self.summary_csv())


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


def _run(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    plan = experiment_plan(cfg)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        chunk = max(1, cfg.replications // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(partial(_safe_replicate, cfg, plan),
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
        # n V_n = (sqrt(n) mean)^2 for the product kernel, a scaled chi-square
        # with one degree of freedom; unit scale for the standardized draws.
        reference_cdf = _sstats.chi2(df=1).cdf
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


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run the Monte Carlo experiment of the configured statistic family.

    ``mean-norm`` reports the coverage of the bootstrap confidence ball for
    the mean; ``two-sample-mean`` the size (or power, under a mean shift) of
    the two-sample mean test; ``cvm`` the size of the goodness-of-fit test;
    ``vstat:<kernel>`` the agreement of a degenerate V-statistic's law with
    its bootstrap.  An unresolvable ``cvm`` null fails before any
    replication runs.

    ``workers > 1`` runs replications on a process pool; because replication
    ``r`` depends only on streams derived from ``(master_seed, r)``, the
    report is byte-identical for any worker count.
    """
    if cfg.family == "cvm":
        resolve_null(cfg)  # fail fast on unresolvable nulls
    return _run(cfg, workers)
