import json

import numpy as np
import pytest

import blockboot.harness as harness
from blockboot.dists import normal, student_t
from blockboot.exceptions import ConfigError
from blockboot.generators import ProcessConfig, generate_real
from blockboot.harness import (
    ExperimentConfig,
    GridSpec,
    ReplicationRecord,
    aggregates_from_records,
    ks_sample_vs_cdf,
    ks_two_sample,
    resolve_null,
    run_experiment,
)
from blockboot.rng import derive_stream
from oracles import ks_sample_vs_discrete


def mean_config(**overrides):
    base = dict(
        statistic="mean-norm",
        process=ProcessConfig(kind="iid"),
        n=200,
        replicates=100,
        replications=30,
        level=0.10,
        master_seed=5150,
        block_length=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestKolmogorovDistances:
    def test_two_sample_identical(self):
        x = np.array([1.0, 2.0, 3.0])
        assert ks_two_sample(x, x) == 0.0

    def test_two_sample_disjoint(self):
        assert ks_two_sample([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_two_sample_against_known_value(self):
        # F differs by exactly 1/2 just left of 2
        assert ks_two_sample([1.0, 2.0], [2.0, 3.0]) == 0.5

    def test_sample_vs_cdf_uniform(self):
        rng = derive_stream(70)
        u = rng.uniform(0, 1, 50000)
        assert ks_sample_vs_cdf(u, lambda t: np.clip(t, 0, 1)) < 0.01

    def test_sample_vs_discrete_exact_match(self):
        sample = np.array([0.0] * 25 + [1.0] * 75)
        assert ks_sample_vs_discrete(sample, [0.0, 1.0], [0.25, 0.75]) == 0.0

    def test_sample_vs_discrete_detects_shift(self):
        sample = np.array([0.0] * 50 + [1.0] * 50)
        assert ks_sample_vs_discrete(sample, [0.0, 1.0], [0.25, 0.75]) == pytest.approx(0.25)


class TestConfigValidation:
    def test_functional_process_needs_grid(self):
        with pytest.raises(ConfigError):
            mean_config(process=ProcessConfig(kind="ar1-functional"))

    def test_cvm_needs_scalar_process(self):
        with pytest.raises(ConfigError):
            mean_config(statistic="cvm", process=ProcessConfig(kind="ar1-functional"),
                        grid=GridSpec(points=8))

    def test_vstat_requires_degenerate_builtin_kernel(self):
        with pytest.raises(ConfigError):
            mean_config(statistic="vstat:gaussian:1.0")
        mean_config(statistic="vstat:product")
        mean_config(statistic="vstat:cvm:normal")

    def test_mean_shift_only_for_two_sample(self):
        with pytest.raises(ConfigError):
            mean_config(mean_shift=1.0)

    @pytest.mark.parametrize("build", [
        lambda: mean_config(statistic="two-sample-mean", mean_shift=float("inf")),
        lambda: mean_config(statistic="two-sample-mean", mean_shift=float("nan")),
        lambda: GridSpec(points=8, lo=float("-inf")),
        lambda: GridSpec(points=8, hi=float("inf")),
        lambda: GridSpec(points=8, weight=float("inf")),
        lambda: ProcessConfig(kind="iid", innovation="student-t", t_df=float("inf")),
    ], ids=["mean_shift-inf", "mean_shift-nan", "grid-lo", "grid-hi", "grid-weight", "t_df-inf"])
    def test_non_finite_values_rejected(self, build):
        with pytest.raises(ConfigError):
            build()


class TestResolveNull:
    def test_iid_gaussian(self):
        null = resolve_null(mean_config(statistic="cvm"))
        assert null.name.startswith("normal:0.0,1.0")

    def test_ar1_gaussian_marginal(self):
        cfg = mean_config(statistic="cvm",
                          process=ProcessConfig(kind="ar1-real", phi=0.6))
        null = resolve_null(cfg)
        assert null.cdf(0.0) == pytest.approx(0.5)
        # marginal sd of the stationary AR(1)
        assert "1.25" in null.name

    # The scale of an auto null is the process's marginal standard deviation:
    # n = 20000 draws sit within Kolmogorov distance 0.015 of the resolved
    # null (the iid 99.9% quantile is 1.95/sqrt(n) = 0.0138), and farther
    # than 0.025 from the same law at unit scale.
    @pytest.mark.parametrize("process, unscaled", [
        (ProcessConfig(kind="iid", innovation="student-t", t_df=6), student_t(6)),
        (ProcessConfig(kind="linear-real", coefficients=(1.0, -0.6, 0.3)), normal()),
    ], ids=["iid-student-t", "linear-real-gaussian"])
    def test_auto_null_fits_the_marginal(self, process, unscaled):
        null = resolve_null(mean_config(statistic="cvm", process=process))
        x = generate_real(process, 20000, rng=derive_stream(20000)).values[:, 0]
        assert ks_sample_vs_cdf(x, null.cdf) < 0.015
        assert ks_sample_vs_cdf(x, unscaled.cdf) > 0.025

    def test_explicit_token_wins(self):
        cfg = mean_config(statistic="cvm", null="uniform:0,2")
        assert resolve_null(cfg).support == (0.0, 2.0)

    def test_unknown_marginal_requires_explicit_null(self):
        cfg = mean_config(statistic="cvm",
                          process=ProcessConfig(kind="ar1-real", phi=0.5,
                                                innovation="uniform"))
        with pytest.raises(ConfigError):
            resolve_null(cfg)


class TestMeanExperiment:
    def test_single_block_is_flagged_degenerate(self):
        cfg = mean_config(n=10, block_length=10, replications=1, replicates=1)
        report = run_experiment(cfg)
        assert report.flags["degenerate_single_block"] is True
        rec = report.records[0]
        assert rec.critical_value == 0.0
        assert rec.ci_low == rec.ci_high

    def test_same_seed_gives_identical_reports(self):
        a = run_experiment(mean_config())
        b = run_experiment(mean_config())
        assert a.report_json() == b.report_json()
        assert a.records_csv() == b.records_csv()

    def test_records_depend_only_on_their_replication_stream(self):
        full = run_experiment(mean_config(replications=8))
        prefix = run_experiment(mean_config(replications=3))
        for r in range(3):
            assert full.records[r] == prefix.records[r]

    def test_worker_pool_gives_identical_reports(self):
        sequential = run_experiment(mean_config(replications=12))
        pooled = run_experiment(mean_config(replications=12), workers=3)
        assert sequential.report_json() == pooled.report_json()
        assert sequential.records_csv() == pooled.records_csv()

    # (workers, CPUs, pool size): never more processes than replications or CPUs.
    @pytest.mark.parametrize("workers, cpus, size", [
        (100000, 3, 3), (100000, 64, 12), (2, 64, 2), (100000, None, None),
    ])
    def test_worker_pool_is_capped(self, monkeypatch, workers, cpus, size):
        import concurrent.futures
        import os

        sizes = []

        class SerialPool:  # records its size and starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pooled = run_experiment(mean_config(replications=12), workers=workers)
        assert sizes == ([] if size is None else [size])
        assert pooled.records_csv() == run_experiment(mean_config(replications=12)).records_csv()

    def test_reasonable_coverage_at_small_scale(self):
        report = run_experiment(mean_config(replications=200, replicates=300))
        assert 0.80 <= report.aggregates["coverage"] <= 0.98

    def test_scalar_ci_contains_leading_mean_logic(self):
        cfg = mean_config(replications=5)
        report = run_experiment(cfg)
        for rec in report.records:
            assert rec.ci_low <= rec.ci_high
            covered = rec.ci_low <= 0.0 <= rec.ci_high
            assert covered == (not rec.reject)


class TestTwoSampleExperiment:
    def test_size_at_stated_scale(self):
        # Weak dependence: at this n the block bootstrap's variance deflation
        # is ~4% in sd terms for strongly dependent pairs, which pushes the
        # true size above the binomial band around the nominal level.
        cfg = ExperimentConfig(
            statistic="two-sample-mean",
            process=ProcessConfig(kind="ar1-functional", phi=0.1),
            n=500,
            replicates=500,
            replications=1000,
            level=0.05,
            master_seed=99,
            grid=GridSpec(points=24),
            block_length=10,
        )
        report = run_experiment(cfg)
        assert 0.03 <= report.aggregates["size"] <= 0.07

    def test_power_against_large_shift(self):
        cfg = ExperimentConfig(
            statistic="two-sample-mean",
            process=ProcessConfig(kind="iid"),
            n=200,
            replicates=200,
            replications=100,
            level=0.05,
            master_seed=100,
            block_length=5,
            mean_shift=5.0,
        )
        report = run_experiment(cfg)
        assert report.aggregates["size"] >= 0.99  # rejection rate under the shift

    def test_two_processes_may_differ(self):
        cfg = ExperimentConfig(
            statistic="two-sample-mean",
            process=ProcessConfig(kind="iid"),
            process_y=ProcessConfig(kind="ar1-real", phi=0.4),
            n=150,
            replicates=100,
            replications=20,
            level=0.10,
            master_seed=101,
            block_length=5,
        )
        report = run_experiment(cfg)
        assert report.aggregates["failed"] == 0


class TestCvmExperiment:
    def test_small_scale_size_is_sane(self):
        cfg = ExperimentConfig(
            statistic="cvm",
            process=ProcessConfig(kind="iid", innovation="uniform"),
            n=400,
            replicates=300,
            replications=200,
            level=0.05,
            master_seed=102,
        )
        report = run_experiment(cfg)
        assert 0.01 <= report.aggregates["size"] <= 0.10
        assert report.aggregates["ks_bootstrap_vs_mc"] < 0.15

    def test_power_under_marginal_mismatch(self):
        # AR(1) data tested against the too-narrow standard normal null
        null_cfg = ExperimentConfig(
            statistic="cvm",
            process=ProcessConfig(kind="ar1-real", phi=0.6),
            n=400,
            replicates=300,
            replications=100,
            level=0.05,
            master_seed=103,
            null="normal",
        )
        rejected = run_experiment(null_cfg).aggregates["size"]
        honest_cfg = ExperimentConfig(
            statistic="cvm",
            process=ProcessConfig(kind="ar1-real", phi=0.6),
            n=400,
            replicates=300,
            replications=100,
            level=0.05,
            master_seed=103,
        )
        size = run_experiment(honest_cfg).aggregates["size"]
        assert rejected > size


class TestVstatExperiment:
    def test_product_kernel_reference_is_reported(self):
        cfg = ExperimentConfig(
            statistic="vstat:product",
            process=ProcessConfig(kind="iid"),
            n=500,
            replicates=300,
            replications=100,
            level=0.05,
            master_seed=104,
        )
        report = run_experiment(cfg)
        assert report.aggregates["reference"] == "chi2:1"
        assert report.aggregates["ks_bootstrap_vs_reference"] < 0.10

    def test_single_block_flags_degenerate(self):
        cfg = ExperimentConfig(
            statistic="vstat:product",
            process=ProcessConfig(kind="iid"),
            n=20,
            replicates=10,
            replications=2,
            level=0.05,
            master_seed=105,
            block_length=20,
        )
        report = run_experiment(cfg)
        assert report.flags["degenerate_single_block"] is True
        assert all(rec.critical_value == 0.0 for rec in report.records)


class TestFailurePolicy:
    def test_failed_replications_are_recorded_and_excluded(self, monkeypatch):
        original = harness._mean_replication

        def flaky(cfg, plan, r):
            if r in (2, 5):
                raise RuntimeError("synthetic fault")
            return original(cfg, plan, r)

        monkeypatch.setattr(harness, "_mean_replication", flaky)
        report = run_experiment(mean_config(replications=40))
        assert report.aggregates["failed"] == 2
        assert report.records[2].failed and "synthetic fault" in report.records[2].error
        assert report.flags["failure_policy_breach"] is True  # 5% > 1%
        ok = [rec for rec in report.records if not rec.failed]
        assert len(ok) == 38

    @pytest.mark.parametrize("target", ["observed", "replicate"])
    def test_non_finite_statistic_is_a_recorded_failure(self, monkeypatch, target):
        if target == "observed":
            monkeypatch.setattr(harness, "v_statistic", lambda s, kernel: float("nan"))
        else:
            original = harness.vstat_bootstrap_evaluator

            def with_nan(s, plan, kernel):
                evaluator = original(s, plan, kernel)
                return lambda counts: np.where(np.arange(len(counts)) == 3, np.nan,
                                               evaluator(counts))

            monkeypatch.setattr(harness, "vstat_bootstrap_evaluator", with_nan)
        cfg = mean_config(statistic="vstat:product", replications=3)
        report = run_experiment(cfg)
        assert report.aggregates["failed"] == 3
        for rec in report.records:
            assert rec.failed and rec.error.startswith("NonFiniteStatisticError:")
            assert rec.reject is None and rec.p_value is None

    def test_rare_failures_do_not_breach(self, monkeypatch):
        original = harness._mean_replication

        def flaky(cfg, plan, r):
            if r == 17:
                raise RuntimeError("one-off")
            return original(cfg, plan, r)

        monkeypatch.setattr(harness, "_mean_replication", flaky)
        report = run_experiment(mean_config(replications=200))
        assert report.aggregates["failed"] == 1
        assert report.flags["failure_policy_breach"] is False


class TestReportSerialization:
    def test_aggregates_recomputable_from_records(self):
        report = run_experiment(mean_config())
        # independent recomputation from the CSV text
        lines = report.records_csv().strip().splitlines()
        header = lines[0].split(",")
        reject_col = header.index("reject")
        failed_col = header.index("failed")
        rejects = []
        for line in lines[1:]:
            cells = line.split(",")
            if cells[failed_col] == "false":
                rejects.append(cells[reject_col] == "true")
        rate = sum(rejects) / len(rejects)
        assert report.aggregates["coverage"] == 1.0 - rate
        se = (rate * (1.0 - rate) / len(rejects)) ** 0.5
        assert report.aggregates["coverage_se"] == pytest.approx(se, rel=1e-12)

    def test_report_json_round_trips_byte_identically(self):
        report = run_experiment(mean_config())
        text = report.report_json()
        reparsed = json.loads(text)
        assert json.dumps(reparsed, indent=2) + "\n" == text

    def test_summary_csv_lists_metrics_with_stderr(self):
        report = run_experiment(mean_config())
        lines = report.summary_csv().strip().splitlines()
        assert lines[0] == "metric,value,stderr"
        metrics = {line.split(",")[0] for line in lines[1:]}
        assert {"coverage", "failure_rate", "ks_bootstrap_vs_mc"} <= metrics

    def test_p_values_are_written_as_plain_floats(self):
        report = run_experiment(mean_config(statistic="vstat:product", replications=6))
        lines = report.records_csv().strip().splitlines()
        column = lines[0].split(",").index("p_value")
        for rec, line in zip(report.records, lines[1:], strict=True):
            cell = line.split(",")[column]
            assert cell and float(cell) == rec.p_value

    def test_write_outputs_three_files(self, tmp_path):
        report = run_experiment(mean_config(replications=3))
        report.write(str(tmp_path))
        for name in ("report.json", "records.csv", "summary.csv"):
            assert (tmp_path / name).exists()

    def test_aggregates_helper_handles_all_failed(self):
        records = [ReplicationRecord(replication=0, failed=True, error="x")]
        out = aggregates_from_records("cvm", records)
        assert out["failed"] == 1 and "size" not in out


class TestDispatch:
    def test_run_experiment_routes_by_family(self):
        report = run_experiment(mean_config(replications=2))
        assert report.statistic == "mean-norm"
