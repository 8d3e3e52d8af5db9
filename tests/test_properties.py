"""Property tests of the stream, block-count and decision invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockboot import (
    BlockPlan,
    HilbertSample,
    draw_bootstrap_sample,
    trapezoid_weights,
    two_sample_test,
)
from blockboot.bootstrap import _snap_ceil, decide
from blockboot.rng import derive_stream, replicate_streams

SEEDS = st.integers(0, 2**64 - 1)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, B=st.integers(1, 6),
       tail=st.one_of(st.just(()), st.tuples(SEEDS)))
def test_replicate_streams_match_derived_streams(seed, B, tail):
    def draws(gen):
        return gen.integers(0, 2**63, size=3).tolist() + [gen.random()]

    reused = [draws(gen) for _, gen in replicate_streams(seed, B, *tail)]
    fresh = [draws(derive_stream(seed, r, *tail)) for r in range(B)]
    assert reused == fresh


@st.composite
def sample_and_plan(draw, d):
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, n))
    values = derive_stream(draw(SEEDS)).standard_normal((n, d))
    grid = np.linspace(0.0, 1.0, d)
    weights = trapezoid_weights(grid) if d > 1 else np.ones(1)
    return HilbertSample(grid, weights, values), BlockPlan(n=n, p=p)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 3]), B=st.integers(1, 8), seed=SEEDS)
def test_two_sample_replicates_match_assembled_samples(data, d, B, seed):
    x, plan_x = data.draw(sample_and_plan(d))
    y, plan_y = data.draw(sample_and_plan(d))
    result = two_sample_test(x, y, plan_x, plan_y, B, seed, level=0.1)
    center_x = x.values[: plan_x.kp].mean(axis=0)
    center_y = y.values[: plan_y.kp].mean(axis=0)
    expected = []
    for r in range(B):
        star_x = draw_bootstrap_sample(x, plan_x, derive_stream(seed, r))
        star_y = draw_bootstrap_sample(y, plan_y, derive_stream(seed, r, 1))
        delta = ((star_x.values.mean(axis=0) - center_x)
                 - (star_y.values.mean(axis=0) - center_y))
        expected.append(math.sqrt(np.sum(delta * delta * x.weights)))
    # The data are of unit scale; the absolute slack covers replicates whose
    # exact value is 0, where the two summation orders leave ~1e-17.
    np.testing.assert_allclose(result["replicates"], expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(replicates=st.lists(st.integers(-4, 4), min_size=1, max_size=60),
       observed=st.integers(-5, 5), level=st.floats(0.001, 0.999))
def test_reject_counts_replicates_at_or_above_observed_under_ties(replicates, observed, level):
    B = len(replicates)
    result = decide(observed, np.array(replicates, dtype=np.float64), level)
    m = max(1, _snap_ceil(B * (1.0 - level)))
    exceed = sum(v >= observed for v in replicates)
    assert result["reject"] == (exceed <= B - m)
    assert round((B + 1) * result["p_value"]) == 1 + exceed
    assert result["reject"] == (round((B + 1) * result["p_value"]) <= 1 + B - m)
