"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; the one-line verdicts bypass
output capture, so they are visible either way.  The heavy Monte Carlo
criteria (8 and 9) dominate the runtime.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from blockboot import (
    BlockPlan,
    HilbertSample,
    bootstrap_distribution,
    block_length_schedule,
    cvm_statistic,
    gaussian_kernel,
    generate_real,
    long_run_variance_estimate,
    make_cvm_spec,
    product_kernel,
    v_statistic,
)
from blockboot.bootstrap import counts_from_indices
from blockboot.generators import ProcessConfig
from blockboot.harness import ExperimentConfig, run_experiment
from blockboot.rng import derive_stream
from blockboot.vmstat import kernel_from_token, vstat_bootstrap_evaluator
from child_env import child_env
from oracles import (
    all_block_selections,
    ar1_long_run_variance,
    assemble,
    discrete_law,
    exact_centered_mean_law,
    ks_sample_vs_discrete,
    u_statistic,
)


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, detail):
        with capsys.disabled():
            print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {number}: {detail}"

    return _announce


def scalar_sample(values):
    return HilbertSample.from_scalars(np.asarray(values, dtype=np.float64))


def test_criterion_01_exact_bootstrap_oracle(announce):
    """Monte Carlo bootstrap law vs the exact 27-outcome enumeration."""
    started = time.perf_counter()
    data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    s = scalar_sample(data)
    plan = BlockPlan(n=6, p=2)
    dist = bootstrap_distribution(s, plan, 100000, "mean", seed=20260801)
    exact = [float(v) * math.sqrt(6.0) for v in exact_centered_mean_law(data, 2)]
    support, probs = discrete_law(exact, tol=1e-12)
    distance = ks_sample_vs_discrete(dist[:, 0], support, probs)
    elapsed = time.perf_counter() - started
    ok = distance < 0.01 and elapsed < 5.0
    announce(1, ok, f"KS(MC, exact 27-point law) = {distance:.5f} < 0.01, "
                    f"runtime {elapsed:.2f}s < 5s")


def test_criterion_02_centering_identity(announce):
    """Enumerated average of bootstrap means equals the leading mean exactly."""
    results = []
    for data, p in (([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2),
                    ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 2)):
        s = scalar_sample(data)
        plan = BlockPlan(n=len(data), p=p)
        total = Fraction(0)
        count = 0
        for pick in all_block_selections(plan.k):
            rows = np.concatenate([np.arange(b * p, b * p + p) for b in pick])
            star_values = s.values[rows, 0]
            total += sum((Fraction(float(v)) for v in star_values), Fraction(0)) / plan.kp
            count += 1
        xbar = sum((Fraction(float(v)) for v in data[: plan.kp]), Fraction(0)) / plan.kp
        results.append((plan.k, total / count == xbar))
    ok = all(flag for _, flag in results)
    announce(2, ok, "exact equality of the enumerated bootstrap expectation for "
                    + ", ".join(f"k={k}" for k, _ in results))


def test_criterion_03_u_v_identity(announce):
    """The package's V and the dense-mesh U agree through the diagonal-correction identity."""
    rng = derive_stream(20260803)
    kernels = [product_kernel(), gaussian_kernel(1.0), gaussian_kernel(0.5),
               kernel_from_token("cvm:normal")]
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 51))
        x = rng.standard_normal(n) * float(rng.uniform(0.5, 2.0))
        s = scalar_sample(x)
        kern = kernels[trial % len(kernels)]
        u = u_statistic(x, kern.eval)
        v = v_statistic(s, kern)
        diagonal = float(np.sum(kern.eval(x, x)))
        rhs = n / (n - 1) * v - diagonal / (n * (n - 1))
        worst = max(worst, abs(u - rhs) / max(1.0, abs(u)))
    ok = worst < 1e-12
    announce(3, ok, f"worst relative identity error {worst:.2e} < 1e-12 "
                    f"on 100 random (sample, kernel) pairs")


def test_criterion_04_three_term_formula(announce):
    """Three-term bootstrap value: product-kernel identity and nonnegativity.

    Each value ``V*`` is read from the count evaluator on the counts of one
    draw; the product-kernel target is taken on the sample assembled from it.
    """
    rng = derive_stream(20260804)

    def star_value(x, plan, kern):
        pick = rng.integers(0, plan.k, size=plan.k)
        counts = counts_from_indices(pick, plan.k)
        value = vstat_bootstrap_evaluator(scalar_sample(x), plan, kern)(counts)[0] / plan.kp
        return value, assemble(x, plan.p, pick)

    kern_xy = product_kernel()
    worst_product = 0.0
    for _ in range(100):
        x = rng.standard_normal(16)
        value, star = star_value(x, BlockPlan(n=16, p=4), kern_xy)
        target = (np.mean(star) - np.mean(x)) ** 2
        worst_product = max(worst_product, abs(value - target))
    kern_gauss = gaussian_kernel(1.0)
    most_negative = 0.0
    for _ in range(10000):
        x = rng.standard_normal(12)
        most_negative = min(most_negative, star_value(x, BlockPlan(n=12, p=3), kern_gauss)[0])
    ok = worst_product < 1e-12 and most_negative >= -1e-12
    announce(4, ok, f"product-kernel identity error {worst_product:.2e} < 1e-12 "
                    f"(100 draws); gaussian minimum {most_negative:.2e} >= -1e-12 "
                    f"(10000 draws)")


def test_criterion_05_cvm_analytic_value(announce):
    """One observation at 1/2 under the uniform null integrates to 1/12."""
    s = scalar_sample([0.5])
    spec = make_cvm_spec(lambda t: np.clip(t, 0.0, 1.0), (0.0, 1.0),
                         sample=s, n_grid=10000)
    value = cvm_statistic(s, spec)
    error = abs(value - 1.0 / 12.0)
    ok = error < 1e-4
    announce(5, ok, f"|V_1 - 1/12| = {error:.2e} < 1e-4 on a 10^4-point grid")


def test_criterion_06_iid_coverage(announce):
    """Nominal 90% bootstrap confidence ball for the mean of iid data."""
    started = time.perf_counter()
    cfg = ExperimentConfig(
        statistic="mean-norm",
        process=ProcessConfig(kind="iid"),
        n=1000,
        replicates=1000,
        replications=1000,
        level=0.10,
        master_seed=20260806,
        block_length=10,  # floor(1000 ** (1/3))
    )
    coverage = run_experiment(cfg).aggregates["coverage"]
    elapsed = time.perf_counter() - started
    ok = 0.86 <= coverage <= 0.94 and elapsed < 120.0
    announce(6, ok, f"empirical coverage {coverage:.3f} in [0.86, 0.94], "
                    f"runtime {elapsed:.1f}s < 120s")


def test_criterion_07_dependent_coverage_and_lrv(announce):
    """AR(1) coverage plus the long-run variance against the series oracle."""
    cfg = ExperimentConfig(
        statistic="mean-norm",
        process=ProcessConfig(kind="ar1-real", phi=0.5),
        n=1000,
        replicates=1000,
        replications=1000,
        level=0.10,
        master_seed=20260807,
        block_length=10,
    )
    coverage = run_experiment(cfg).aggregates["coverage"]
    path = generate_real(ProcessConfig(kind="ar1-real", phi=0.5, seed=20260817), 100000)
    plan = block_length_schedule(100000)
    estimate = long_run_variance_estimate(path, plan)
    target = ar1_long_run_variance(0.5)
    relative = abs(estimate - target) / target
    ok = 0.85 <= coverage <= 0.94 and relative < 0.10
    announce(7, ok, f"coverage {coverage:.3f} in [0.85, 0.94]; "
                    f"LRV {estimate:.3f} vs oracle {target:.3f} "
                    f"({100 * relative:.1f}% < 10%)")


def test_criterion_08_degenerate_vstat_law(announce):
    """Bootstrap law of the degenerate product-kernel V-statistic."""
    started = time.perf_counter()
    cfg = ExperimentConfig(
        statistic="vstat:product",
        process=ProcessConfig(kind="iid"),
        n=2000,
        replicates=2000,
        replications=2000,
        level=0.05,
        master_seed=20260808,
        block_length=12,  # floor(2000 ** (1/3))
    )
    agg = run_experiment(cfg).aggregates
    elapsed = time.perf_counter() - started
    ok = (agg["ks_bootstrap_vs_mc"] < 0.10
          and agg["ks_bootstrap_vs_reference"] < 0.10
          and agg["ks_mc_vs_reference"] < 0.10
          and elapsed < 600.0)
    announce(8, ok, f"KS(bootstrap, MC) = {agg['ks_bootstrap_vs_mc']:.4f}, "
                    f"KS(bootstrap, chi2_1) = {agg['ks_bootstrap_vs_reference']:.4f}, "
                    f"KS(MC, chi2_1) = {agg['ks_mc_vs_reference']:.4f}, all < 0.10; "
                    f"runtime {elapsed:.0f}s < 600s")


def test_criterion_09_cvm_test_size(announce):
    """Empirical size of the goodness-of-fit test under the uniform null."""
    cfg = ExperimentConfig(
        statistic="cvm",
        process=ProcessConfig(kind="iid", innovation="uniform"),
        n=2000,
        replicates=1000,
        replications=2000,
        level=0.05,
        master_seed=20260809,
        block_length=12,
    )
    size = run_experiment(cfg).aggregates["size"]
    ok = 0.03 <= size <= 0.07
    announce(9, ok, f"empirical size {size:.4f} in [0.03, 0.07] over M=2000")


def test_criterion_10_cli_determinism(announce, tmp_path):
    """Byte-identical CLI reports across runs and thread counts."""
    config = tmp_path / "exp.ini"
    config.write_text(
        "[experiment]\n"
        "schema = 1\n"
        "statistic = vstat:product\n"
        "n = 200\n"
        "replicates = 100\n"
        "replications = 30\n"
        "level = 0.05\n"
        "master_seed = 20260810\n"
        "block_length = 6\n"
        "\n"
        "[process]\n"
        "kind = iid\n"
    )
    process_config = tmp_path / "proc.ini"
    process_config.write_text(
        "[process]\nschema = 1\nkind = ar1-real\nphi = 0.5\nseed = 12\n"
    )
    outputs = {}
    for label, threads, workers in (
        ("t1", "1", "1"), ("t4", "4", "3"), ("t1-again", "1", "1"),
    ):
        env = child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        out_dir = tmp_path / f"mc-{label}"
        data = tmp_path / f"data-{label}.csv"
        boot = tmp_path / f"boot-{label}.json"
        for argv in (
            ["montecarlo", "--config", str(config), "--out", str(out_dir),
             "--workers", workers],
            ["generate", "--config", str(process_config), "--n", "150", "--out", str(data)],
            ["bootstrap", "--data", str(data), "--block-length", "5",
             "--replicates", "200", "--seed", "4", "--out", str(boot)],
        ):
            proc = subprocess.run([sys.executable, "-m", "blockboot.cli", *argv],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        outputs[label] = (
            (out_dir / "report.json").read_bytes(),
            (out_dir / "records.csv").read_bytes(),
            data.read_bytes(),
            boot.read_bytes(),
        )
    ok = outputs["t1"] == outputs["t4"] == outputs["t1-again"]
    announce(10, ok, "report.json, records.csv, generated data and bootstrap "
                     "reports byte-identical across reruns, BLAS thread counts, "
                     "and worker-pool sizes")
