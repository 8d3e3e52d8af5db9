"""Stream addressing: what ``derive_stream`` refuses; seeds, counts and lengths
that must be integers."""

import numpy as np
import pytest

from blockboot import (
    BlockPlan,
    HilbertSample,
    block_length_schedule,
    bootstrap_distribution,
    bootstrap_replicate,
    cvm_test,
    make_cvm_spec,
    product_kernel,
    two_sample_test,
    vstat_test,
)
from blockboot.exceptions import ParameterRangeError
from blockboot.generators import ProcessConfig, generate_functional, generate_real
from blockboot.harness import ExperimentConfig
from blockboot.rng import derive_stream

SAMPLE = HilbertSample.from_scalars(np.linspace(-1.0, 1.0, 12))
PLAN = BlockPlan(n=12, p=3)


@pytest.mark.parametrize("path, message", [
    ((1, 2, 3), "at most 2 path components are supported"),
    ((-1,), "path component -1 out of range"),
    ((0, 2**64), f"path component {2**64} out of range"),
], ids=["third-component", "negative-component", "component-at-2**64"])
def test_stream_paths_outside_the_layout_are_refused(path, message):
    with pytest.raises(ValueError) as info:
        derive_stream(5, *path)
    assert type(info.value) is ParameterRangeError and str(info.value) == message


@pytest.mark.parametrize("call", [
    lambda: derive_stream(1.5),
    lambda: derive_stream(1, 2.5),
    lambda: derive_stream(np.float64(1.0)),
    lambda: bootstrap_distribution(SAMPLE, PLAN, 8, "mean-norm", seed=1.5),
    lambda: bootstrap_distribution(SAMPLE, PLAN, 8, lambda s, star, plan: 0.0, seed=1.5),
    lambda: bootstrap_replicate(SAMPLE, PLAN, "mean-norm", seed=1.5, r=2),
    lambda: bootstrap_replicate(SAMPLE, PLAN, "mean-norm", seed=1, r=2.5),
    lambda: vstat_test(SAMPLE, product_kernel(), PLAN, 8, 7.9, 0.05),
    lambda: cvm_test(SAMPLE, make_cvm_spec(lambda t: np.clip((t + 1.0) / 2.0, 0.0, 1.0),
                                           (-1.0, 1.0)), PLAN, 8, 7.9, 0.05),
    lambda: two_sample_test(SAMPLE, SAMPLE, PLAN, PLAN, 8, 7.9, 0.05),
    lambda: ProcessConfig(kind="iid", seed=1.5),
    lambda: ExperimentConfig(statistic="mean-norm", process=ProcessConfig(kind="iid"), n=12,
                             replicates=8, replications=2, level=0.1, master_seed=1.5),
], ids=["derive-seed", "derive-path", "derive-numpy-float", "distribution-named",
        "distribution-callable", "replicate-seed", "replicate-r", "vstat-test", "cvm-test",
        "two-sample-test", "process-config", "experiment-config"])
def test_float_seeds_and_paths_raise_type_error(call):
    """A float is refused where it is passed, not truncated to another stream."""
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value).endswith("object cannot be interpreted as an integer")


def experiment(**overrides):
    base = dict(statistic="mean-norm", process=ProcessConfig(kind="iid"), n=12, replicates=8,
                replications=2, level=0.1, master_seed=1, block_length=3)
    return ExperimentConfig(**{**base, **overrides})


@pytest.mark.parametrize("call", [
    lambda: BlockPlan(10, 2.5),
    lambda: BlockPlan(10.5, 2),
    lambda: block_length_schedule(10.7),
    lambda: bootstrap_distribution(SAMPLE, PLAN, 2.5, "mean-norm", seed=1),
    lambda: bootstrap_distribution(SAMPLE, PLAN, 2.5, lambda s, star, plan: 0.0, seed=1),
    lambda: vstat_test(SAMPLE, product_kernel(), PLAN, 8.0, 7, 0.05),
    lambda: two_sample_test(SAMPLE, SAMPLE, PLAN, PLAN, np.float64(8), 7, 0.05),
    lambda: generate_real(ProcessConfig(kind="iid"), 10.5),
    lambda: generate_functional(ProcessConfig(kind="doubling-map-functional"), 10.5, [0.0, 1.0]),
    lambda: experiment(n=12.0),
    lambda: experiment(replicates=8.5),
    lambda: experiment(replications=2.0),
    lambda: experiment(block_length=3.0),
], ids=["plan-p", "plan-n", "schedule-n", "distribution-named-B", "distribution-callable-B",
        "vstat-test-B", "two-sample-test-B", "generate-real-n", "generate-functional-n",
        "experiment-n", "experiment-replicates", "experiment-replications",
        "experiment-block_length"])
def test_float_counts_and_lengths_raise_type_error(call):
    """A float count or length is refused where it is passed, as a float seed is."""
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value).endswith("object cannot be interpreted as an integer")


def test_integer_parameters_are_stored_as_int_and_bools_count_as_zero_or_one():
    # operator.index admits bools, as range() does; the stored values are plain ints.
    plan = BlockPlan(np.int64(12), True)
    assert (plan.n, plan.p, plan.k) == (12, 1, 12) and type(plan.n) is type(plan.p) is int
    assert block_length_schedule(np.int64(27)) == BlockPlan(27, 3)
    cfg = experiment(n=np.int64(12), replications=True, block_length=np.int32(3))
    assert (cfg.n, cfg.replications, cfg.block_length) == (12, 1, 3)
    assert {type(v) for v in (cfg.n, cfg.replicates, cfg.replications, cfg.block_length)} == {int}
