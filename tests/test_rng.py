"""Stream addressing: what ``derive_stream`` refuses, and seeds that must be integers."""

import numpy as np
import pytest

from blockboot import (
    BlockPlan,
    HilbertSample,
    bootstrap_distribution,
    bootstrap_replicate,
    cvm_test,
    make_cvm_spec,
    product_kernel,
    two_sample_test,
    vstat_test,
)
from blockboot.generators import ProcessConfig
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
    assert type(info.value) is ValueError and str(info.value) == message


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
