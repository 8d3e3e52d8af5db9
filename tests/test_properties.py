"""Property tests of the stream, schedule, block-count and decision invariants.

Every count-matrix evaluator is checked against the statistic of the
explicitly assembled bootstrap sample: the same stream draws the same
blocks, so the two routes differ only in floating-point summation order.
"""

import itertools
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockboot import (
    BlockPlan,
    HilbertSample,
    bootstrap_distribution,
    block_length_schedule,
    long_run_variance_estimate,
    make_cvm_spec,
    trapezoid_weights,
    two_sample_test,
)
import blockboot.bootstrap as bootstrap
import blockboot.vmstat as vmstat
from blockboot.bootstrap import (
    COUNT_STATISTICS,
    block_counts_per_replicate,
    counts_from_indices,
    decide,
    generator_draws,
    mean_norm_evaluator,
    replicate_values,
    stream_draws,
    two_sample_statistics,
)
from blockboot.dists import normal, uniform
from blockboot.rng import derive_stream, replicate_streams
from blockboot.vmstat import (
    Kernel,
    cvm_bootstrap_evaluator,
    cvm_kernel,
    kernel_from_token,
    cvm_test,
    product_kernel,
    v_statistic,
    vstat_bootstrap_evaluator,
    vstat_test,
)
from oracles import (
    bootstrap_cvm_statistic,
    bootstrap_mean_statistic,
    bootstrap_v_statistic,
    draw_bootstrap_sample,
    max_block_gram,
)

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


def numpy_rows(plan, B, seed, *tail):
    rows = [derive_stream(seed, r, *tail).integers(0, plan.k, size=plan.k) for r in range(B)]
    return np.array(rows, dtype=np.int64).reshape(B, plan.k)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 300), splits=st.lists(st.integers(0, 6), min_size=1, max_size=4),
       tail=st.sampled_from([(), (1,)]), seed=SEEDS)
@example(k=1, splits=[1, 2], tail=(), seed=0)
@example(k=2, splits=[3, 0, 1], tail=(1,), seed=7)
def test_stream_draws_are_numpy_integers_rows(k, splits, tail, seed):
    """Every row, over uneven batches, is ``integers(0, k, size=k)`` of the row's own stream."""
    plan = BlockPlan(n=k, p=1)
    _, draw = stream_draws(plan, sum(splits), seed, *tail)
    got = np.concatenate([draw(m) for m in splits])
    expected = numpy_rows(plan, sum(splits), seed, *tail)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("tail", [(), (1,)], ids=["no-tail", "tail-1"])
def test_rejected_lemire_rows_are_drawn_again(tail):
    """At k = 100000 numpy rejects a word half in some rows; those rows still match."""
    plan = BlockPlan(n=100000, p=1)
    with mock.patch.object(bootstrap, "_draw_block_indices",
                           wraps=bootstrap._draw_block_indices) as redraw:
        got = stream_draws(plan, 4, 1, *tail)[1](4)
    assert redraw.call_count > 0
    assert got.tobytes() == numpy_rows(plan, 4, 1, *tail).tobytes()


def test_ranges_past_32_bits_redraw_every_row():
    """numpy draws ``k > 2**32`` with its 64-bit branch, which the batched pass leaves alone."""
    scaled = np.zeros((3, 2), dtype=np.uint64)
    assert bootstrap._redrawn_rows(scaled, 2**32 + 1).tolist() == [0, 1, 2]
    assert bootstrap._redrawn_rows(scaled, 2**32).tolist() == []
    assert bootstrap._redrawn_rows(scaled, 3).tolist() == [0, 1, 2]  # 0 < 2**32 mod 3 = 1


@st.composite
def sample_and_plan(draw, d, points=None):
    """Standard normal values, or values drawn from ``points`` when given."""
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, n))
    if points is None:
        values = derive_stream(draw(SEEDS)).standard_normal((n, d))
    else:
        values = np.array(draw(st.lists(st.sampled_from(points), min_size=n * d,
                                        max_size=n * d))).reshape(n, d)
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
        star_x = draw_bootstrap_sample(x.values, plan_x.p, derive_stream(seed, r))
        star_y = draw_bootstrap_sample(y.values, plan_y.p, derive_stream(seed, r, 1))
        delta = (star_x.mean(axis=0) - center_x) - (star_y.mean(axis=0) - center_y)
        expected.append(math.sqrt(np.sum(delta * delta * x.weights)))
    # The data are of unit scale; the absolute slack covers replicates whose
    # exact value is 0, where the two summation orders leave ~1e-17.
    np.testing.assert_allclose(result["replicates"], expected, rtol=1e-12, atol=1e-12)


def assembled(s, plan, seed, B):
    """The ``(kp, d)`` bootstrap samples that replicates ``0..B-1`` draw."""
    return [draw_bootstrap_sample(s.values, plan.p, derive_stream(seed, r)) for r in range(B)]


def _star_mean_norm(s, star, plan):
    mean = bootstrap_mean_statistic(s.values, star)
    return math.sqrt(np.sum(mean * mean * s.weights))


def _star_lrv(s, star, plan):
    return long_run_variance_estimate(HilbertSample(s.grid, s.weights, star),
                                      BlockPlan(n=len(star), p=plan.p))


#: Each count statistic's value on an assembled bootstrap sample, by its name.
REFERENCES = {
    "mean": lambda s, star, plan: bootstrap_mean_statistic(s.values, star),
    "mean-norm": _star_mean_norm,
    "lrv": _star_lrv,
}


def test_every_count_statistic_has_a_reference():
    assert set(REFERENCES) == set(COUNT_STATISTICS)


@pytest.mark.parametrize("name", sorted(COUNT_STATISTICS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 3]), B=st.integers(1, 8), seed=SEEDS)
def test_count_statistics_match_assembled_samples(name, data, d, B, seed):
    s, plan = data.draw(sample_and_plan(d))
    dist = bootstrap_distribution(s, plan, B, name, seed)
    expected = [REFERENCES[name](s, star, plan) for star in assembled(s, plan, seed, B)]
    np.testing.assert_allclose(dist, np.array(expected), rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(sp=sample_and_plan(1), B=st.integers(1, 8), seed=SEEDS,
       token=st.sampled_from(["product", "gaussian:1.0", "cvm:normal"]))
def test_vstat_evaluator_matches_assembled_samples(sp, B, seed, token):
    s, plan = sp
    kernel = kernel_from_token(token)
    values = vstat_bootstrap_evaluator(s, plan, kernel)(block_counts_per_replicate(plan, seed, B))
    expected = [plan.kp * bootstrap_v_statistic(s.scalars(), star[:, 0], kernel.eval)
                for star in assembled(s, plan, seed, B)]
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(sp=sample_and_plan(1), tile_blocks=st.integers(1, 5) | st.floats(0.0, 0.99),
       bandwidth=st.floats(0.1, 10.0))
def test_half_mesh_walk_matches_full_mesh_sums(sp, tile_blocks, bandwidth):
    # Tiles of ``tile_blocks`` blocks, or of whole rows of a block when below
    # one, read only the upper half of the mesh; the block-pair sums and the
    # total of the full mesh must still agree.
    s, plan = sp
    x = s.scalars()
    kernel = kernel_from_token(f"gaussian:{bandwidth}")
    with mock.patch.object(vmstat, "TILE_BYTES", int(8 * plan.p * s.n * tile_blocks)):
        T, total = vmstat._mesh_sums(x, plan, kernel)
    mesh = kernel.eval(x[:, None], x[None, :])
    block_sums = mesh[: plan.kp, : plan.kp].reshape(plan.k, plan.p, plan.k, plan.p)
    expected = [[math.fsum(block_sums[a, :, b].ravel()) for b in range(plan.k)]
                for a in range(plan.k)]
    np.testing.assert_allclose(T, expected, rtol=1e-12, atol=0)
    assert total == pytest.approx(math.fsum(mesh.ravel()), rel=1e-12)


@st.composite
def gram_inputs(draw):
    """Points in blocks, ``k = 1`` and ``p = 1`` included, spread or tie-heavy."""
    k = draw(st.integers(1, 40))
    p = draw(st.integers(1, 6) if k > 1 else st.integers(1, 60))
    seed = draw(SEEDS)
    x = derive_stream(seed).standard_normal(k * p)
    if draw(st.booleans()):
        x = np.round(x * draw(st.sampled_from([0.5, 2.0]))) / 2.0
    return x, BlockPlan(n=k * p, p=p), draw(st.integers(1, k))


@settings(max_examples=200, deadline=None)
@given(inputs=gram_inputs())
def test_max_block_gram_is_the_cumsum_form(inputs):
    # The running sums in place count the same integers as a cumsum of
    # block-equality masks, so the Gram is bitwise the same, for any tile width.
    x, plan, cols = inputs
    g = -np.tanh(x) + 0.1 * x
    with mock.patch.object(vmstat, "TILE_BYTES", 8 * x.size * cols):
        assert vmstat._tile_size(x.size) == cols
        T = vmstat._max_block_gram(x, plan, g)
    expected = max_block_gram(x, plan.p, g, cols)
    assert T.tobytes() == expected.tobytes()


PRODUCT_MESH = Kernel("product-mesh", eval=lambda x, y: x * y)


@settings(max_examples=60, deadline=None)
@given(sp=sample_and_plan(1), B=st.integers(1, 8), seed=SEEDS)
def test_feature_map_matches_kernel_meshes(sp, B, seed):
    # The product kernel's declared features against the same kernel
    # evaluated over meshes; exact zeros (e.g. n = 1 or one block) get the
    # absolute slack.
    s, plan = sp
    fast = product_kernel()
    counts = block_counts_per_replicate(plan, seed, B)
    checks = [(v_statistic(s, fast), v_statistic(s, PRODUCT_MESH)),
              (vstat_bootstrap_evaluator(s, plan, fast)(counts),
               vstat_bootstrap_evaluator(s, plan, PRODUCT_MESH)(counts))]
    for got, expected in checks:
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


CVM_CASES = st.one_of(
    st.tuples(sample_and_plan(1), st.just(normal(0.0, 1.0))),
    # Ties, sample points on the grid (including both ends of the support),
    # and points below and above the support, where the tail weight is the
    # full mass or 0.
    st.tuples(sample_and_plan(1, points=(-0.5, 0.0, 0.25, 0.5, 1.0, 1.5)),
              st.just(uniform(0.0, 1.0))),
)


@settings(max_examples=60, deadline=None)
@given(case=CVM_CASES, B=st.integers(1, 8), seed=SEEDS)
def test_cvm_evaluator_matches_assembled_samples(case, B, seed):
    (s, plan), null = case
    spec = make_cvm_spec(null.cdf, null.support, null.weight_fn, sample=s, n_grid=256)
    values = cvm_bootstrap_evaluator(s, plan, spec)(block_counts_per_replicate(plan, seed, B))
    expected = [bootstrap_cvm_statistic(s.scalars(), star[:, 0], spec.grid, spec.weights)
                for star in assembled(s, plan, seed, B)]
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12)


def spec_kernel(spec):
    """``sum_t w_t (1{x <= t} - F(t)) (1{y <= t} - F(t))``, declaring its max profile:
    ``g = Wtail`` and ``f = C/2 - G`` with ``G(x) = sum_{t >= x} w_t F(t)`` and
    ``C = sum_t w_t F(t)^2``."""
    suffix = lambda v: np.append(np.cumsum(v[::-1])[::-1], 0.0)
    tail, G = suffix(spec.weights), suffix(spec.weights * spec.cdf_values)
    half_c = np.sum(spec.weights * spec.cdf_values**2) / 2.0

    def induced(x, y):
        ind_x = (spec.grid >= np.asarray(x)[..., None]) - spec.cdf_values
        ind_y = (spec.grid >= np.asarray(y)[..., None]) - spec.cdf_values
        return np.sum(ind_x * ind_y * spec.weights, axis=-1)

    def max_profile(x):
        at = np.searchsorted(spec.grid, x, side="left")
        return tail[at], half_c - G[at]

    return Kernel("cvm-spec", eval=induced, max_profile=max_profile)


@settings(max_examples=90, deadline=None)
@given(case=CVM_CASES, B=st.integers(1, 8), seed=SEEDS, shape=st.sampled_from(["cvm", "spec"]))
def test_max_profile_matches_kernel_meshes(case, B, seed, shape):
    # A kernel's declared max profile against the same kernel evaluated over
    # meshes.  The one-sort forms cancel pair terms of the kernel's size, so
    # the absolute slack scales with the largest value or diagonal entry.
    (s, plan), null = case
    if shape == "cvm":
        fast = cvm_kernel(null.cdf)
    else:
        fast = spec_kernel(make_cvm_spec(null.cdf, null.support, null.weight_fn, sample=s,
                                         n_grid=64))
    mesh = Kernel("mesh", eval=fast.eval)
    counts = block_counts_per_replicate(plan, seed, B)
    checks = [(v_statistic(s, fast), v_statistic(s, mesh)),
              (vstat_bootstrap_evaluator(s, plan, fast)(counts),
               vstat_bootstrap_evaluator(s, plan, mesh)(counts))]
    diagonal = np.abs(fast.eval(s.scalars(), s.scalars()))
    for got, expected in checks:
        scale = np.max(np.concatenate([np.abs(np.atleast_1d(expected)), diagonal]))
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10 * scale)


def exact_root(m: int, a: int, b: int) -> int:
    """The largest integer ``q`` with ``q**b <= m**a``, in integer arithmetic."""
    target = m**a
    q = int(round(m ** (a / b)))
    while q**b > target:
        q -= 1
    while (q + 1) ** b <= target:
        q += 1
    return q


@st.composite
def schedule_lengths(draw):
    """Sample lengths, half of them a ``b``-th power ``r**b`` or one off it."""
    b = draw(st.integers(2, 10))
    a = draw(st.integers(1, b - 1))
    if draw(st.booleans()):
        return draw(st.integers(1, 10**6)), a, b
    r = draw(st.integers(2, math.floor(10 ** (10 / b))))
    return max(1, r**b + draw(st.sampled_from([-1, 0, 1]))), a, b


@settings(max_examples=300, deadline=None)
@given(case=schedule_lengths(), freeze=st.booleans())
@example(case=(167402, 3, 4), freeze=False)  # 167402**0.75 = 8275.9999953
@example(case=(96770, 9, 10), freeze=False)
@example(case=(1000, 1, 3), freeze=False)
def test_schedule_floors_exact_rational_powers(case, freeze):
    # p = max(1, floor(m**(a/b))) with m = n, or the power of two at or above n.
    n, a, b = case
    m = 1 << (n - 1).bit_length() if freeze else n
    plan = block_length_schedule(n, a / b, dyadic_freeze=freeze)
    assert plan.p == min(n, max(1, exact_root(m, a, b)))


@settings(max_examples=300, deadline=None)
@given(replicates=st.lists(st.integers(-4, 4), min_size=1, max_size=60),
       observed=st.integers(-5, 5), level=st.floats(0.001, 0.999))
def test_reject_counts_replicates_at_or_above_observed_under_ties(replicates, observed, level):
    B = len(replicates)
    result = decide(observed, np.array(replicates, dtype=np.float64), level)
    m = max(1, bootstrap._snapped(B * (1.0 - level), math.ceil))
    exceed = sum(v >= observed for v in replicates)
    assert result["reject"] == (exceed <= B - m)
    assert round((B + 1) * result["p_value"]) == 1 + exceed
    assert result["reject"] == (round((B + 1) * result["p_value"]) <= 1 + B - m)


# Batch sizes of the replicate loop: one row, 13 rows, and all rows at once.
BATCH_ROWS = (1, 13, None)


def batched(rows, k, run):
    """``run()`` with batches of ``rows`` replicates, for draw sources summing to ``k``."""
    batch_bytes = 2**62 if rows is None else rows * 8 * k
    with mock.patch.object(bootstrap, "BATCH_BYTES", batch_bytes):
        return run()


def _order_sensitive(s, star, plan):
    # Depends on the order of the drawn blocks, not only on their counts.
    return float(np.sum(star.values[:, 0] * np.arange(star.n)))


def replicate_paths(s, y, plan, B, seed):
    """``{name: (k, run)}``: every path to replicate values; ``k`` sums its sources."""
    k = plan.k

    def harness(evaluate, *tags):
        return lambda: replicate_values(
            B, evaluate, *[generator_draws(plan, derive_stream(seed, tag)) for tag in tags])

    paths = {}
    for name, evaluator in COUNT_STATISTICS.items():
        paths[name] = (k, lambda name=name: bootstrap_distribution(s, plan, B, name, seed))
        paths[name + "/harness"] = (k, harness(evaluator(s, plan), 2))
    paths["callable"] = (k, lambda: bootstrap_distribution(s, plan, B, _order_sensitive, seed))
    paths["two-sample"] = (2 * k, lambda: two_sample_test(
        s, y, plan, plan, B, seed, 0.1)["replicates"])
    paths["two-sample/harness"] = (2 * k, harness(two_sample_statistics(s, y, plan, plan)[1],
                                                  2, 3))
    if s.d > 1:
        return paths
    # The product kernel runs through its feature map, cvm:normal through its
    # max profile and gaussian through kernel meshes.
    for token in ("product", "cvm:normal", "gaussian:1.0"):
        kernel = kernel_from_token(token)
        paths[token] = (k, lambda h=kernel: vstat_test(s, h, plan, B, seed, 0.1)["replicates"])
        paths[token + "/harness"] = (k, harness(vstat_bootstrap_evaluator(s, plan, kernel), 2))
    null = normal(0.0, 1.0)
    spec = make_cvm_spec(null.cdf, null.support, null.weight_fn, sample=s, n_grid=64)
    paths["cvm"] = (k, lambda: cvm_test(s, spec, plan, B, seed, 0.1)["replicates"])
    paths["cvm/harness"] = (k, harness(cvm_bootstrap_evaluator(s, plan, spec), 2))
    return paths


@pytest.mark.parametrize("parity", [0, 1], ids=["even-B", "odd-B"])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 3]), half=st.integers(0, 20), seed=SEEDS)
def test_batch_size_does_not_change_any_replicate(parity, data, d, half, seed):
    B = max(1, 2 * half + parity)
    s, plan = data.draw(sample_and_plan(d))
    y = HilbertSample(s.grid, s.weights, derive_stream(seed, 9).standard_normal(s.values.shape))
    for name, (k, run) in replicate_paths(s, y, plan, B, seed).items():
        whole, *split = [batched(rows, k, run) for rows in BATCH_ROWS[::-1]]
        for values in split:
            assert values.shape == whole.shape and values.tobytes() == whole.tobytes(), name
    # One batch of the harness source is one (B, k) draw of its stream.
    evaluator = mean_norm_evaluator(s, plan)
    idx = derive_stream(seed, 2).integers(0, plan.k, size=(B, plan.k))
    reference = evaluator(counts_from_indices(idx, plan.k))
    got = batched(13, plan.k, lambda: replicate_values(
        B, evaluator, generator_draws(plan, derive_stream(seed, 2))))
    assert got.tobytes() == reference.tobytes()


@pytest.mark.parametrize("rows", BATCH_ROWS)
def test_callable_errors_name_the_global_replicate(rows):
    s = HilbertSample(np.zeros(1), np.ones(1), np.arange(12.0)[:, None])
    plan = BlockPlan(n=12, p=2)
    calls = itertools.count()

    def fails_at_20(sample, star, pl):
        if next(calls) == 20:
            raise ValueError("boom")
        return 0.0

    with pytest.raises(ValueError, match=r"^replicate 20: boom$"):
        batched(rows, plan.k, lambda: bootstrap_distribution(s, plan, 30, fails_at_20, seed=0))


@st.composite
def count_product_cases(draw):
    """A float matrix with ``k`` rows and columns of scale 2^-1000 to 2^1000 or zero,
    and ``m`` integer rows: block counts (sum ``k``), or counts minus one."""
    k, m = draw(st.integers(1, 600)), draw(st.integers(1, 5))
    rng = derive_stream(draw(SEEDS))
    scales = [0.0 if draw(st.booleans()) and draw(st.booleans())
              else math.ldexp(1.0, draw(st.integers(-1000, 1000)))
              for _ in range(draw(st.integers(1, 3)))]
    M = rng.standard_normal((k, len(scales))) * scales
    # Draws from the first ``span`` blocks only: counts from spread to piled on one block.
    idx = rng.integers(0, draw(st.integers(1, k)), size=(m, k))
    rows = counts_from_indices(idx, k) - (1.0 if draw(st.booleans()) else 0.0)
    return M, rows


def exact_products(rows, M):
    """``rows @ M`` in rational arithmetic."""
    exact_M = [[Fraction(float(x)) for x in col] for col in M.T]
    return [[sum(Fraction(int(v)) * x for v, x in zip(row, col) if v) for col in exact_M]
            for row in rows]


@settings(max_examples=40, deadline=None)
@given(case=count_product_cases(), cut=st.integers(1, 4))
def test_count_product_slices_are_exact_for_any_batching(case, cut):
    M, rows = case
    k = len(M)
    s = (k - 1).bit_length() + 2
    hi = bootstrap._split(M, s)
    mid = bootstrap._split(M - hi, s)
    for piece in (hi, mid):
        got = rows @ piece
        assert [[Fraction(float(x)) for x in row] for row in got] == exact_products(rows, piece)
    product = bootstrap._count_product(M)
    whole = product(rows)
    assert whole.tobytes() == (rows @ hi + rows @ mid).tobytes()
    for chunks in ([rows[i : i + 1] for i in range(len(rows))], [rows[:cut], rows[cut:]]):
        assert np.concatenate([product(c) for c in chunks if len(c)]).tobytes() == whole.tobytes()
    # Within the dropped third slice, 2^(2s - 106) of a column's largest entry
    # per unit of the row, plus the one rounding of the sum.
    largest = np.max(np.abs(M), axis=0)
    for row, values, exact in zip(rows, whole, exact_products(rows, M)):
        for x, e, top in zip(values, exact, largest):
            bound = (Fraction(float(np.sum(np.abs(row)))) * Fraction(top) / 2 ** (106 - 2 * s)
                     + Fraction(abs(float(x))) / 2**53)
            assert abs(Fraction(float(x)) - e) <= bound


@pytest.mark.parametrize("k", [1, 2, 7, 166])
def test_count_product_scales_columns_near_the_float_range(k):
    rng = derive_stream(k, 4)
    top = np.finfo(np.float64).max
    M = top * rng.uniform(0.5, 1.0, (k, 3))
    M[:, 1] = -M[:, 1]
    M[:, 2] = 2.0**-1000  # a column far from the range keeps its own split
    rows = np.eye(k)
    if k > 1:  # counts minus one that cancel: one block twice, another never
        rows = np.vstack([rows, np.eye(k)[0] - np.eye(k)[1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bootstrap._count_product(M)(rows)
    assert got[:k].tobytes() == M.tobytes()
    if k > 1:
        assert got[k].tobytes() == (M[0] - M[1]).tobytes()
    # Random count rows, against the two slice products of the scaled columns
    # added and scaled back; at 2^-s of the range the products stay finite.
    rows = counts_from_indices(rng.integers(0, k, size=(3, k)), k) - np.array([[0.0], [0.0], [1.0]])
    s = (k - 1).bit_length() + 2
    for M in (M, M / 2.0**s):
        scale = np.ldexp(1.0, np.minimum(0, 1023 - s - bootstrap._exponents(M)))
        hi = bootstrap._split(M * scale, s)
        mid = bootstrap._split(M * scale - hi, s)
        with np.errstate(over="ignore"):
            expected = (rows @ hi + rows @ mid) / scale
            got = bootstrap._count_product(M)(rows)
        assert got.tobytes() == expected.tobytes()
