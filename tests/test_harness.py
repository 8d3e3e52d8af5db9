import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
import oracles
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


#: Samples of 1 to 60 points: spread floats, or few values with many ties
#: (within a sample and, drawn twice, between two samples).
KS_SAMPLES = st.one_of(
    st.lists(st.floats(-0.5, 12.0), min_size=1, max_size=60),
    st.lists(st.integers(0, 4).map(float), min_size=1, max_size=60),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), min_size=1, max_size=60),
)


def _jitter(cdf):
    """``cdf`` moved by +-1e-14 point by point: not monotone in its last bits."""
    return lambda t: cdf(t) + np.where(np.sin(1e3 * np.asarray(t)) > 0, 1e-14, -1e-14)


KS_CDFS = {
    "uniform": lambda t: np.clip(t, 0.0, 1.0),
    "chi2:1": harness._chi2_1_cdf,
    "uniform-jittered": _jitter(lambda t: np.clip(t, 0.0, 1.0)),
    "chi2:1-jittered": _jitter(harness._chi2_1_cdf),
}


@settings(max_examples=300, deadline=None)
@given(x=KS_SAMPLES, y=KS_SAMPLES)
@example(x=[1.0], y=[1.0]).via("one point each, tied")
@example(x=[0.0, 1.0], y=[5.0, 6.0]).via("disjoint")
def test_two_sample_distance_is_the_all_points_distance(x, y):
    expected = oracles.ks_two_sample(x, y)
    assert ks_two_sample(x, y) == expected
    assert ks_two_sample(y, x) == expected


@settings(max_examples=150, deadline=None)
@given(x=KS_SAMPLES)
@example(x=[0.5] * 17).via("one block and a point, all tied")
@pytest.mark.parametrize("name", KS_CDFS)
def test_cdf_distance_is_the_all_points_distance(name, x):
    assert ks_sample_vs_cdf(x, KS_CDFS[name]) == oracles.ks_sample_vs_cdf(x, KS_CDFS[name])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(61, 3000), df=st.sampled_from([1, 2]))
@pytest.mark.parametrize("name", ["chi2:1", "chi2:1-jittered"])
def test_cdf_distance_skips_only_blocks_below_the_supremum(name, seed, n, df):
    # Larger chi-square samples, near the reference law and off it, so that
    # most blocks are skipped and which ones changes from sample to sample.
    x = np.sum(derive_stream(seed).standard_normal((n, df)) ** 2, axis=1)
    assert ks_sample_vs_cdf(x, KS_CDFS[name]) == oracles.ks_sample_vs_cdf(x, KS_CDFS[name])


def test_cdf_distance_slack_covers_a_dip_in_the_last_bits():
    # n = 32 points, blocks (0, 16) and (16, 31).  F is flat at 8/32 over the
    # first block but dips by 1e-14 at point 15, so D+ there is 8/32 + 1e-14,
    # above the block's bound 16/32 - F(0) = 8/32.  F(16) puts D+ at the
    # block's end halfway between the two: only the slack opens the block.
    q, dip = 1.0 / 32, 1e-14
    table = np.concatenate([np.full(15, 8 * q), [8 * q - dip, 9 * q - dip / 2],
                            (np.arange(17, 32) + 0.5) * q])
    x = np.arange(32.0)

    def cdf(t):
        return table[np.asarray(t).astype(int)]

    assert ks_sample_vs_cdf(x, cdf) == oracles.ks_sample_vs_cdf(x, cdf) == 16 * q - (8 * q - dip)


def test_cdf_distance_evaluates_the_cdf_at_few_points():
    # A work guard that times nothing: evaluating the CDF at every point is
    # what the block bounds avoid.
    x = derive_stream(20000, 1).standard_normal(20000) ** 2
    evaluated = []

    def counted(t):
        evaluated.append(np.size(t))
        return harness._chi2_1_cdf(t)

    assert ks_sample_vs_cdf(x, counted) == oracles.ks_sample_vs_cdf(x, harness._chi2_1_cdf)
    assert sum(evaluated) <= 0.25 * x.size


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

    @pytest.mark.parametrize("overrides, message", [
        (dict(statistic="vstat:product", null="t:3"), "null only applies to cvm"),
        (dict(statistic="two-sample-mean", null="normal"), "null only applies to cvm"),
        (dict(null="auto", grid=GridSpec(points=5)), "only applies to functional"),
        (dict(statistic="cvm", grid=GridSpec(points=5)), "only applies to functional"),
        # The config files' messages: every stream derives from master_seed,
        # and mean_config's block_length = 5 leaves no schedule.
        (dict(process=ProcessConfig(kind="iid", seed=99)),
         r"^\[process\] 'seed' has no effect in an experiment file$"),
        (dict(statistic="two-sample-mean", process_y=ProcessConfig(kind="iid", seed=5)),
         r"^\[process_y\] 'seed' has no effect in an experiment file$"),
        (dict(exponent=0.9), r"^\[experiment\] 'exponent' has no effect with 'block_length'$"),
        (dict(dyadic_freeze=False),
         r"^\[experiment\] 'dyadic_freeze' has no effect with 'block_length'$"),
    ], ids=["vstat-null", "two-sample-null", "mean-norm-scalar-grid", "cvm-scalar-grid",
            "process-seed", "process_y-seed", "exponent-with-block_length",
            "dyadic_freeze-with-block_length"])
    def test_settings_without_effect_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            mean_config(**overrides)

    def test_default_settings_are_accepted(self):
        # Only a value that would be ignored is refused: the defaults, given
        # explicitly, and a schedule without block_length are kept.
        mean_config(process=ProcessConfig(kind="iid", seed=0), exponent=1.0 / 3.0,
                    dyadic_freeze=True)
        mean_config(statistic="two-sample-mean", process_y=ProcessConfig(kind="iid", seed=0))
        cfg = mean_config(block_length=None, exponent=0.9, dyadic_freeze=False)
        assert (cfg.exponent, cfg.dyadic_freeze) == (0.9, False)

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

    @pytest.mark.parametrize("build, message", [
        (lambda: mean_config(n=0), "n must be at least 1"),
        (lambda: mean_config(replicates=0), r"replicates \(B\) and replications \(M\)"),
        (lambda: mean_config(replications=0), r"replicates \(B\) and replications \(M\)"),
        (lambda: mean_config(level=1.0), r"level must lie in \(0, 1\), got 1.0"),
        (lambda: mean_config(level=0.0), r"level must lie in \(0, 1\), got 0.0"),
        (lambda: mean_config(master_seed=-1), "master_seed must be an unsigned 64-bit integer"),
        (lambda: mean_config(master_seed=2**64), "master_seed must be an unsigned 64-bit integer"),
        (lambda: mean_config(block_length=None, exponent=1.0),
         r"exponent must lie in \(0, 1\), got 1.0"),
        (lambda: mean_config(process_y=ProcessConfig(kind="iid")),
         "process_y only applies to two-sample-mean"),
        (lambda: mean_config(statistic="two-sample-mean", process_y=ProcessConfig(
            kind="ar1-functional")), "the two processes must live in the same space"),
        (lambda: mean_config(statistic="vstat"), "vstat statistic needs a kernel"),
        (lambda: mean_config().kernel_token, "only vstat statistics carry a kernel"),
        (lambda: GridSpec(points=0), "grid needs at least one point"),
        (lambda: GridSpec(points=2, lo=1.0, hi=1.0), "grid endpoints must satisfy lo < hi"),
    ], ids=["n", "replicates", "replications", "level-1", "level-0", "master_seed-negative",
            "master_seed-2**64", "exponent", "process_y-mean-norm", "process_y-space",
            "vstat-no-kernel", "kernel_token-mean-norm", "grid-points", "grid-lo-hi"])
    def test_out_of_range_values_rejected(self, build, message):
        with pytest.raises(ConfigError, match=message):
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

    def test_chi2_reference_is_the_erf_law_and_zero_below_zero(self):
        cfg = ExperimentConfig(statistic="vstat:product", process=ProcessConfig(kind="iid"),
                               n=40, replicates=20, replications=2, level=0.05, master_seed=105)
        with mock.patch.object(harness, "aggregates_from_records",
                               wraps=harness.aggregates_from_records) as aggregate:
            run_experiment(cfg)
        family, _, _, cdf, name = aggregate.call_args.args
        assert (family, name) == ("vstat", "chi2:1")
        x = np.concatenate([[-1.0, -0.0, 0.0, 5e-324, np.inf, -np.inf, np.nan, 1e308],
                            np.geomspace(1e-12, 1e3, 400)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = cdf(x)
        assert values[0] == 0.0 and values[1] == 0.0
        # The law of a squared standard normal, erf(sqrt(x/2)), by the C
        # library's erf; scipy.stats' chi2 is itself up to 22 eps off it here.
        exact = [0.0 if v < 0.0 else math.erf(math.sqrt(v / 2.0)) for v in x.tolist()]
        np.testing.assert_allclose(values, exact, rtol=4 * np.finfo(float).eps, atol=0.0)

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

    def test_non_finite_report_raises_before_any_file_is_made(self, tmp_path):
        report = run_experiment(mean_config(replications=3))
        report.aggregates["coverage"] = float("nan")
        out = tmp_path / "mc"
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            report.write(str(out))
        assert not out.exists()

    def test_aggregates_helper_handles_all_failed(self):
        records = [ReplicationRecord(replication=0, failed=True, error="x")]
        out = aggregates_from_records("cvm", records)
        assert out["failed"] == 1 and "size" not in out


class TestDispatch:
    def test_run_experiment_routes_by_family(self):
        report = run_experiment(mean_config(replications=2))
        assert report.statistic == "mean-norm"
