import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from blockboot import (
    BlockPlan,
    HilbertSample,
    block_length_schedule,
    bootstrap_distribution,
    bootstrap_mean_statistic,
    bootstrap_replicate,
    draw_bootstrap_sample,
    empirical_quantile,
    long_run_variance_estimate,
    two_sample_test,
)
from blockboot import bootstrap
from blockboot.bootstrap import (
    COUNT_STATISTICS,
    block_counts_per_replicate,
    counts_from_indices,
    decide,
)
from blockboot.exceptions import (
    EmptyInputError,
    NonFiniteStatisticError,
    PlanMismatchError,
    ReplicateMemoryError,
    UnsupportedStatisticError,
)
from blockboot.generators import ProcessConfig, generate_real
from blockboot.hilbert import GridFunction
from blockboot.rng import derive_stream
from blockboot.vmstat import product_kernel, vstat_test
from oracles import (
    all_block_selections,
    ar1_long_run_variance,
    discrete_law,
    exact_bootstrap_mean_law,
    exact_centered_mean_law,
    ks_sample_vs_discrete,
)


def scalar_sample(values):
    return HilbertSample.from_scalars(np.asarray(values, dtype=np.float64))


class TestBlockLengthSchedule:
    def test_smallest_case(self):
        plan = block_length_schedule(1)
        assert (plan.p, plan.k) == (1, 1)

    def test_cube_root_rule_at_1000(self):
        plan = block_length_schedule(1000, exponent=1.0 / 3.0)
        assert (plan.p, plan.k) == (10, 100)

    def test_dyadic_freeze_at_5(self):
        # 4 < 5 <= 8, so the rule is evaluated at 8: floor(8**(1/3)) = 2
        plan = block_length_schedule(5, exponent=1.0 / 3.0, dyadic_freeze=True)
        assert (plan.p, plan.k) == (2, 2)

    @pytest.mark.parametrize("freeze", [False, True])
    def test_schedule_is_nondecreasing(self, freeze):
        previous = 0
        for n in range(1, 10001):
            p = block_length_schedule(n, dyadic_freeze=freeze).p
            assert p >= previous
            previous = p

    def test_blocks_partition_leading_range(self):
        plan = block_length_schedule(103, exponent=0.4)
        covered = []
        for i in range(plan.k):
            covered.extend(range(i * plan.p, (i + 1) * plan.p))
        assert covered == list(range(plan.kp))
        assert plan.kp <= plan.n

    def test_zero_length_rejected(self):
        with pytest.raises(EmptyInputError):
            block_length_schedule(0)

    def test_large_exponent_is_capped_at_n(self):
        plan = block_length_schedule(9, exponent=0.9, dyadic_freeze=True)
        assert 1 <= plan.p <= plan.n and plan.k >= 1


class TestDrawBootstrapSample:
    def test_single_block_returns_leading_slice(self):
        s = scalar_sample(np.arange(10.0))
        plan = BlockPlan(n=10, p=10)
        rng = derive_stream(1)
        for _ in range(5):
            star = draw_bootstrap_sample(s, plan, rng)
            assert np.array_equal(star.values, s.values[:10])

    def test_outputs_are_original_blocks(self):
        rng = derive_stream(2)
        s = scalar_sample(rng.standard_normal(20))
        plan = BlockPlan(n=20, p=4)
        original_blocks = {s.values[i * 4 : (i + 1) * 4].tobytes() for i in range(plan.k)}
        star = draw_bootstrap_sample(s, plan, derive_stream(3))
        for i in range(plan.k):
            assert star.values[i * 4 : (i + 1) * 4].tobytes() in original_blocks

    def test_uniform_block_frequencies(self):
        # oracle: with k = 2 the four outcome pairs are equally likely
        s = scalar_sample([10.0, 11.0, 20.0, 21.0])
        plan = BlockPlan(n=4, p=2)
        rng = derive_stream(4)
        counts = {}
        draws = 100000
        for _ in range(draws):
            star = draw_bootstrap_sample(s, plan, rng)
            key = (star.values[0, 0], star.values[2, 0])
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 4
        chi_square = 0.0
        for count in counts.values():
            assert abs(count / draws - 0.25) < 0.01
            chi_square += (count - draws / 4) ** 2 / (draws / 4)
        # chi-square with 3 degrees of freedom; 1e-6 tail is about 30.66
        assert chi_square < 30.66

    def test_fixed_stream_is_deterministic(self):
        s = scalar_sample(np.arange(12.0))
        plan = BlockPlan(n=12, p=3)
        a = draw_bootstrap_sample(s, plan, derive_stream(9, 5))
        b = draw_bootstrap_sample(s, plan, derive_stream(9, 5))
        assert np.array_equal(a.values, b.values)

    def test_plan_mismatch(self):
        s = scalar_sample(np.arange(10.0))
        with pytest.raises(PlanMismatchError):
            draw_bootstrap_sample(s, BlockPlan(n=8, p=2), derive_stream(0))


class TestBootstrapMeanStatistic:
    def test_identity_draw_gives_zero(self):
        s = scalar_sample(np.arange(1.0, 9.0))
        plan = BlockPlan(n=8, p=8)
        star = HilbertSample(s.grid, s.weights, s.values[: plan.kp])
        assert np.all(bootstrap_mean_statistic(s, star, plan).values == 0.0)

    def test_dyadic_scaling_is_exact(self):
        rng = derive_stream(5)
        s = scalar_sample(rng.standard_normal(12))
        plan = BlockPlan(n=12, p=3)
        star = draw_bootstrap_sample(s, plan, derive_stream(6))
        scaled = HilbertSample(s.grid, s.weights, 2.0 * s.values)
        star2 = HilbertSample(s.grid, s.weights, 2.0 * star.values)
        lhs = bootstrap_mean_statistic(scaled, star2, plan).values
        rhs = 2.0 * bootstrap_mean_statistic(s, star, plan).values
        assert np.array_equal(lhs, rhs)

    def test_exact_conditional_law_matches_enumeration(self):
        # oracle: exhaustive k**k enumeration in exact rational arithmetic
        data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        s = scalar_sample(data)
        plan = BlockPlan(n=6, p=2)
        oracle = sorted(float(v) * math.sqrt(6.0) for v in exact_centered_mean_law(data, 2))
        got = []
        for pick in all_block_selections(plan.k):
            rows = np.concatenate([np.arange(b * 2, b * 2 + 2) for b in pick])
            star = HilbertSample(s.grid, s.weights, s.values[rows])
            got.append(float(bootstrap_mean_statistic(s, star, plan).values[0]))
        got.sort()
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_length_mismatch(self):
        s = scalar_sample(np.arange(6.0))
        plan = BlockPlan(n=6, p=2)
        with pytest.raises(PlanMismatchError):
            bootstrap_mean_statistic(s, scalar_sample([1.0, 2.0]), plan)


class TestCenteringIdentity:
    @pytest.mark.parametrize("data,p", [
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 2),
        ([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0], 3),
    ])
    def test_enumerated_mean_of_bootstrap_means_is_leading_mean(self, data, p):
        # The identity is exact, so the enumeration averages the machinery's
        # resampled values in exact rational arithmetic; float summation
        # order can then neither mask nor fake it.
        s = scalar_sample(data)
        plan = BlockPlan(n=len(data), p=p)
        total = Fraction(0)
        count = 0
        for pick in all_block_selections(plan.k):
            rows = np.concatenate([np.arange(b * p, b * p + p) for b in pick])
            star_values = s.values[rows, 0]
            total += sum((Fraction(float(v)) for v in star_values), Fraction(0)) / plan.kp
            count += 1
        xbar_kp = sum((Fraction(float(v)) for v in data[: plan.kp]), Fraction(0)) / plan.kp
        assert total / count == xbar_kp


class TestBootstrapDistribution:
    def test_constant_statistic(self):
        s = scalar_sample(np.arange(5.0))
        plan = BlockPlan(n=5, p=2)
        dist = bootstrap_distribution(s, plan, 16, lambda a, b, c: 3.25, seed=0)
        assert dist.shape == (16,) and np.all(dist == 3.25)

    def test_single_block_mean_statistic_is_degenerate(self):
        s = scalar_sample(np.arange(7.0))
        plan = BlockPlan(n=7, p=7)
        dist = bootstrap_distribution(s, plan, 32, "mean-norm", seed=1)
        assert np.all(dist == 0.0)

    def test_law_matches_enumeration(self):
        # oracle: the 27-point exact law; Kolmogorov distance must be small
        data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        s = scalar_sample(data)
        plan = BlockPlan(n=6, p=2)
        dist = bootstrap_distribution(s, plan, 20000, "mean", seed=99)
        exact = [float(v) * math.sqrt(6.0) for v in exact_centered_mean_law(data, 2)]
        support, probs = discrete_law(exact, tol=1e-12)
        d = ks_sample_vs_discrete(dist[:, 0], support, probs)
        assert d < 0.02

    @staticmethod
    def assert_replicates_recomputable(statistic):
        rng = derive_stream(7)
        s = scalar_sample(rng.standard_normal(30))
        plan = BlockPlan(n=30, p=5)
        dist = bootstrap_distribution(s, plan, 64, statistic, seed=42)
        for r in (0, 13, 63):
            value = bootstrap_replicate(s, plan, statistic, 42, r)
            if isinstance(value, GridFunction):
                value = value.values
            assert np.array_equal(dist[r], value)

    def test_replicates_independent_of_evaluation_order(self):
        self.assert_replicates_recomputable("mean-norm")

    @pytest.mark.parametrize("statistic", [
        "mean",
        "lrv",
        lambda s, star, plan: float(np.sum(star.values[:, 0] * np.arange(star.n))),
        bootstrap_mean_statistic,
    ], ids=["mean", "lrv", "float-callable", "grid-callable"])
    def test_every_statistic_kind_recomputes_single_replicates(self, statistic):
        # The float callable depends on the order of the drawn blocks.
        self.assert_replicates_recomputable(statistic)

    def test_statistic_errors_carry_replicate_index(self):
        s = scalar_sample(np.arange(6.0))
        plan = BlockPlan(n=6, p=2)

        def broken(sample, star, pl):
            raise ValueError("boom")

        with pytest.raises(ValueError, match=r"replicate 0: boom"):
            bootstrap_distribution(s, plan, 4, broken, seed=0)

    def test_unknown_name_is_unsupported(self):
        s = scalar_sample(np.arange(6.0))
        plan = BlockPlan(n=6, p=2)
        with pytest.raises(UnsupportedStatisticError, match="unknown statistic 'median'"):
            bootstrap_distribution(s, plan, 4, "median", seed=0)
        with pytest.raises(UnsupportedStatisticError, match="unknown statistic 'median'"):
            bootstrap_replicate(s, plan, "median", 0, 1)

    def test_plan_mismatch(self):
        s = scalar_sample(np.arange(10.0))
        plan = BlockPlan(n=8, p=2)

        def statistic(sample, star, pl):
            return float(star.values.sum())

        with pytest.raises(PlanMismatchError):
            bootstrap_distribution(s, plan, 4, statistic, seed=0)
        with pytest.raises(PlanMismatchError):
            bootstrap_replicate(s, plan, statistic, 0, 1)

    def test_data_near_the_float_range_raise_without_warnings(self):
        # Finite data whose block means overflow: every library entry point
        # raises a typed error, with the text a harness record would carry,
        # and numpy prints no overflow or invalid-value warning.
        s = scalar_sample([1e308, 1e308, -1e308, -1e308, 1.0, 2.0])
        plan = BlockPlan(n=6, p=2)
        calls = [("of 20 bootstrap replicates are not finite",
                  lambda name=name: bootstrap_distribution(s, plan, 20, name, 0))
                 for name in sorted(COUNT_STATISTICS)]
        calls += [
            ("1 of 1 bootstrap replicates are not finite",
             lambda: bootstrap_replicate(s, plan, "mean-norm", 0, 3)),
            ("observed statistic is nan", lambda: two_sample_test(s, s, plan, plan, 20, 0, 0.05)),
            ("observed statistic is inf",
             lambda: vstat_test(s, product_kernel(), plan, 20, 0, 0.05)),
            ("long-run variance estimate is inf", lambda: long_run_variance_estimate(s, plan)),
        ]
        for message, call in calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(NonFiniteStatisticError, match=message):
                    call()
            assert [str(w.message) for w in caught] == []

    def test_counts_helper_matches_streams(self):
        plan = BlockPlan(n=40, p=5)
        counts = block_counts_per_replicate(plan, seed=11, B=20)
        assert counts.shape == (20, plan.k)
        assert np.all(counts.sum(axis=1) == plan.k)
        idx7 = derive_stream(11, 7).integers(0, plan.k, size=plan.k)
        assert np.array_equal(counts[7], counts_from_indices(idx7, plan.k)[0])


class TestReplicateMemory:
    @pytest.mark.parametrize("path", ["mean-norm", "two-sample", "vstat"])
    def test_replicate_loop_memory_is_bounded(self, path):
        import tracemalloc

        n, B = 2000, 5000
        x = scalar_sample(derive_stream(81).standard_normal(n))
        y = scalar_sample(derive_stream(82).standard_normal(n))
        plan = BlockPlan(n=n, p=5)
        run = {
            "mean-norm": lambda: bootstrap_distribution(x, plan, B, "mean-norm", 3),
            "two-sample": lambda: two_sample_test(x, y, plan, plan, B, 3, 0.05),
            "vstat": lambda: vstat_test(x, product_kernel(), plan, B, 3, 0.05),
        }[path]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One (B, k) = (5000, 400) int64 array of indices or counts is 16 MB.
        assert peak < 8 * 2**20

    # Each output is allocated after its first batch (the first value for callables).
    @pytest.mark.parametrize("statistic", [
        "mean", "mean-norm", "lrv",
        lambda s, star, plan: float(star.values.sum()),
    ], ids=["mean", "mean-norm", "lrv", "callable"])
    def test_unallocatable_replicates_raise_a_typed_error(self, statistic):
        s = scalar_sample(np.arange(10.0))
        with pytest.raises(ReplicateMemoryError, match="10000000000000"):
            bootstrap_distribution(s, BlockPlan(n=10, p=2), 10**13, statistic, 0)

    def test_callable_value_of_a_new_shape_raises(self):
        s = HilbertSample(np.linspace(0, 1, 3), np.ones(3), np.arange(24.0).reshape(8, 3))
        plan = BlockPlan(n=8, p=2)
        first = iter([GridFunction(s.grid, np.zeros(3), s.weights)])

        def grid_then_float(sample, star, pl):
            return next(first, 1.0)

        with mock.patch.object(bootstrap, "BATCH_BYTES", 8 * plan.k):
            with pytest.raises(UnsupportedStatisticError, match=r"^replicate 1: .*\(3,\)"):
                bootstrap_distribution(s, plan, 4, grid_then_float, seed=0)


class TestEmpiricalQuantile:
    def test_order_statistic_definition(self):
        assert empirical_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_boundary_below_one_over_b(self):
        assert empirical_quantile([5.0, 1.0, 3.0, 9.0], 0.2) == 1.0

    def test_uniform_quantile_oracle(self):
        values = derive_stream(12).uniform(0, 1, 100000)
        assert empirical_quantile(values, 0.9) == pytest.approx(0.9, abs=0.01)

    def test_vector_replicates_unsupported(self):
        s = scalar_sample(np.arange(6.0))
        plan = BlockPlan(n=6, p=2)
        dist = bootstrap_distribution(s, plan, 8, "mean", seed=3)
        assert dist.shape == (8, 1)
        with pytest.raises(UnsupportedStatisticError, match="scalar replicates only"):
            empirical_quantile(dist, 0.5)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            empirical_quantile([1.0, 2.0], 1.0)

    def test_non_finite_replicate_is_an_error(self):
        s = scalar_sample(np.arange(6.0))
        plan = BlockPlan(n=6, p=2)
        with pytest.raises(NonFiniteStatisticError, match="^8 of 8 bootstrap replicates"):
            bootstrap_distribution(s, plan, 8, lambda a, b, c: float("nan"), seed=0)
        with pytest.raises(NonFiniteStatisticError, match="^1 of 3 bootstrap replicates"):
            empirical_quantile([1.0, float("nan"), 2.0], 0.5)


class TestDecide:
    def test_finite_b_conventions(self):
        result = decide(2.0, np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
        assert result == {"statistic": 2.0, "critical_value": 2.0,
                          "p_value": 4.0 / 5.0, "reject": False}

    def test_values_are_plain_python_scalars(self):
        result = decide(np.float64(3.5), np.arange(99.0), 0.05)
        assert [type(result[key]) for key in ("statistic", "critical_value",
                                              "p_value", "reject")] == \
            [float, float, float, bool]

    @pytest.mark.parametrize("observed", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_observed_is_an_error(self, observed):
        with pytest.raises(NonFiniteStatisticError):
            decide(observed, np.arange(99.0), 0.05)

    def test_non_finite_replicate_is_an_error(self):
        values = np.arange(99.0)
        values[40] = np.nan
        with pytest.raises(NonFiniteStatisticError):
            decide(1.0, values, 0.05)

    def test_level_below_double_epsilon(self):
        # 1 - 1e-17 rounds to 1.0; the rank is still ceil(10 * (1 - level)) = 10.
        result = decide(1.0, np.arange(10.0), 1e-17)
        assert result == {"statistic": 1.0, "critical_value": 9.0,
                          "p_value": 10.0 / 11.0, "reject": False}

    @pytest.mark.parametrize("level", [0.0, 1.0])
    def test_level_bounds(self, level):
        with pytest.raises(ValueError, match="level must lie in"):
            decide(1.0, np.arange(10.0), level)


class TestLongRunVariance:
    def test_constant_sample_gives_zero(self):
        s = scalar_sample(np.full(60, 2.5))
        assert long_run_variance_estimate(s, BlockPlan(n=60, p=5)) == 0.0

    def test_iid_normal_matches_unit_variance(self):
        cfg = ProcessConfig(kind="iid", seed=31)
        s = generate_real(cfg, 100000)
        est = long_run_variance_estimate(s, BlockPlan(n=100000, p=10))
        assert est == pytest.approx(1.0, abs=0.05)

    def test_ar1_matches_autocovariance_sum_oracle(self):
        cfg = ProcessConfig(kind="ar1-real", phi=0.5, seed=32)
        s = generate_real(cfg, 100000)
        plan = block_length_schedule(100000)
        est = long_run_variance_estimate(s, plan)
        target = ar1_long_run_variance(0.5)
        assert abs(est - target) / target < 0.10

    def test_shift_invariance_is_exact_for_representable_shifts(self):
        # dyadic data, dyadic shift, power-of-two kp: every step is exact
        rng = derive_stream(33)
        values = rng.integers(-8, 8, 1024) * 0.25
        s = scalar_sample(values)
        shifted = scalar_sample(values + 3.5)
        plan = BlockPlan(n=1024, p=8)
        assert long_run_variance_estimate(s, plan) == long_run_variance_estimate(shifted, plan)


class TestTwoSampleTest:
    def test_identical_samples_never_reject(self):
        rng = derive_stream(37)
        s = scalar_sample(rng.standard_normal(48))
        plan = BlockPlan(n=48, p=4)
        result = two_sample_test(s, s, plan, plan, B=64, seed=2, level=0.05)
        assert result["statistic"] == 0.0
        assert result["reject"] is False

    def test_obvious_shift_rejects(self):
        rng = derive_stream(38)
        x = scalar_sample(rng.standard_normal(200))
        y = scalar_sample(rng.standard_normal(200) + 10.0)
        plan = BlockPlan(n=200, p=5)
        result = two_sample_test(x, y, plan, plan, B=200, seed=3, level=0.05)
        assert result["reject"] is True
        assert result["p_value"] <= 1.0 / 201.0 + 1e-12
