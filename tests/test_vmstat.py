import math

import numpy as np
import pytest

from blockboot import (
    BlockPlan,
    CvmSpec,
    HilbertSample,
    Kernel,
    bootstrap_cvm_statistic,
    bootstrap_v_statistic,
    cvm_kernel,
    cvm_statistic,
    cvm_test,
    degeneracy_diagnostic,
    draw_bootstrap_sample,
    empirical_cdf,
    gaussian_kernel,
    make_cvm_spec,
    product_kernel,
    sample_mean,
    u_statistic,
    v_statistic,
    vstat_test,
)
from blockboot.exceptions import ConfigError, CvmSpecError, InsufficientSampleError, PlanMismatchError
from blockboot.harness import ks_sample_vs_discrete
from blockboot.rng import derive_stream
from blockboot.vmstat import (
    cvm_bootstrap_evaluator,
    kernel_from_token,
    vstat_bootstrap_evaluator,
)
from blockboot.bootstrap import counts_from_indices
from oracles import all_block_selections, brute_force_ecdf, discrete_law


def scalar_sample(values):
    return HilbertSample.from_scalars(np.asarray(values, dtype=np.float64))


ONES = Kernel(name="ones", eval=lambda x, y: np.ones(np.broadcast(x, y).shape))


def counted(kern):
    """``kern`` as a features-free kernel that records the shape of each mesh."""
    shapes = []

    def evaluate(x, y):
        shapes.append(np.broadcast(x, y).shape)
        return kern.eval(x, y)

    counting = Kernel(name=f"counted-{kern.name}", eval=evaluate)
    shapes.clear()
    return counting, shapes


class TestKernels:
    def test_asymmetric_kernel_rejected(self):
        with pytest.raises(ConfigError):
            Kernel(name="bad", eval=lambda x, y: x - y)

    def test_features_disagreeing_with_eval_rejected(self):
        with pytest.raises(ConfigError, match="disagree"):
            Kernel("bad", eval=lambda x, y: x * y, features=lambda x: 2 * x[:, None])

    def test_max_profile_disagreeing_with_eval_rejected(self):
        # 1/3 - max(x, y) + (x^2 + y^2)/2 has max profile -x, not +x
        kern = cvm_kernel(lambda t: t)
        with pytest.raises(ConfigError, match="disagrees"):
            Kernel("bad", eval=kern.eval, max_profile=lambda x: x)
        Kernel("good", eval=kern.eval, max_profile=lambda x: -x)

    def test_features_must_be_a_matrix(self):
        with pytest.raises(ConfigError, match=r"\(n, r\)"):
            Kernel("flat", eval=lambda x, y: x * y, features=lambda x: x)

    def test_rank_two_features(self):
        # h(x, y) = xy + x^2 y^2 through Phi(x) = (x, x^2)
        kern = Kernel("rank-2", eval=lambda x, y: x * y + (x * y) ** 2,
                      features=lambda x: np.stack([x, x * x], axis=1))
        mesh = Kernel("rank-2-mesh", eval=kern.eval)
        s = scalar_sample(derive_stream(69).standard_normal(30))
        plan = BlockPlan(n=30, p=4)
        counts = counts_from_indices(derive_stream(70).integers(0, plan.k, (5, plan.k)), plan.k)
        assert v_statistic(s, kern) == pytest.approx(v_statistic(s, mesh), rel=1e-12)
        assert u_statistic(s, kern) == pytest.approx(u_statistic(s, mesh), rel=1e-12)
        np.testing.assert_allclose(vstat_bootstrap_evaluator(s, plan, kern)(counts),
                                   vstat_bootstrap_evaluator(s, plan, mesh)(counts),
                                   rtol=1e-12, atol=1e-12)

    def test_token_parsing(self):
        assert kernel_from_token("product").name == "product"
        with pytest.raises(ConfigError):
            kernel_from_token("sobolev")

    def test_cvm_kernel_closed_form(self):
        # oracle: direct quadrature of (1{x<=t} - F(t))(1{y<=t} - F(t)) dF
        # for the uniform distribution on [0, 1]
        kern = kernel_from_token("cvm:uniform:0,1")
        grid = np.linspace(0, 1, 200001)
        for x, y in [(0.3, 0.7), (0.5, 0.5), (0.9, 0.1), (0.25, 0.8)]:
            integrand = ((grid >= x).astype(float) - grid) * ((grid >= y).astype(float) - grid)
            reference = np.trapezoid(integrand, grid)
            assert float(kern.eval(x, y)) == pytest.approx(reference, abs=1e-5)


class TestVStatistic:
    def test_constant_kernel(self):
        assert v_statistic(scalar_sample([3.0, -1.0, 4.0]), ONES) == 1.0

    def test_product_kernel_mean_zero_pair(self):
        assert v_statistic(scalar_sample([1.0, -1.0]), product_kernel()) == 0.0

    def test_product_kernel_hand_sum(self):
        # (1+2+3)^2 / 3^2 = 4
        assert v_statistic(scalar_sample([1.0, 2.0, 3.0]), product_kernel()) == 4.0

    def test_permutation_invariance(self):
        rng = derive_stream(50)
        x = rng.standard_normal(40)
        kern = gaussian_kernel(1.0)
        base = v_statistic(scalar_sample(x), kern)
        for _ in range(5):
            perm = rng.permutation(x)
            assert v_statistic(scalar_sample(perm), kern) == pytest.approx(base, rel=1e-12)

    def test_dyadic_scaling_of_product_kernel(self):
        rng = derive_stream(51)
        x = rng.standard_normal(25)
        kern = product_kernel()
        assert v_statistic(scalar_sample(2.0 * x), kern) == 4.0 * v_statistic(scalar_sample(x), kern)

    def test_tiled_path_matches_dense_path(self, monkeypatch):
        import blockboot.vmstat as vm

        rng = derive_stream(52)
        x = rng.standard_normal(300)
        kern, meshes = counted(gaussian_kernel(0.8))
        dense = v_statistic(scalar_sample(x), kern)
        assert meshes == [(300, 300)]
        meshes.clear()
        monkeypatch.setattr(vm, "TILE_BYTES", 8 * 300 * 64)
        tiled = v_statistic(scalar_sample(x), kern)
        assert meshes == [(64, 300)] * 4 + [(44, 300)]
        assert tiled == pytest.approx(dense, rel=1e-12)


class TestUStatistic:
    def test_constant_kernel(self):
        assert u_statistic(scalar_sample([1.0, 5.0, 9.0]), ONES) == 1.0

    def test_single_pair(self):
        assert u_statistic(scalar_sample([1.0, 2.0]), product_kernel()) == 2.0

    def test_needs_two_observations(self):
        with pytest.raises(InsufficientSampleError):
            u_statistic(scalar_sample([1.0]), product_kernel())

    @pytest.mark.parametrize("kernel_token", ["product", "gaussian:1.0", "cvm:normal"])
    def test_uv_identity_on_random_samples(self, kernel_token):
        # independent cross-check of the diagonal-correction identity
        kern = kernel_from_token(kernel_token)
        rng = derive_stream(53)
        for _ in range(34):
            n = int(rng.integers(2, 51))
            x = rng.standard_normal(n)
            s = scalar_sample(x)
            u = u_statistic(s, kern)
            v = v_statistic(s, kern)
            diagonal = float(np.sum(kern.eval(x, x)))
            rhs = n / (n - 1) * v - diagonal / (n * (n - 1))
            assert abs(u - rhs) < 1e-12 * max(1.0, abs(u))


class TestBootstrapVStatistic:
    def test_identity_resample_is_exactly_zero(self):
        rng = derive_stream(54)
        s = scalar_sample(rng.standard_normal(12))
        assert bootstrap_v_statistic(s, s, gaussian_kernel(1.0)) == 0.0

    def test_product_kernel_equals_squared_mean_difference(self):
        rng = derive_stream(55)
        kern = product_kernel()
        for _ in range(25):
            s = scalar_sample(rng.standard_normal(16))
            plan = BlockPlan(n=16, p=4)
            star = draw_bootstrap_sample(s, plan, rng)
            value = bootstrap_v_statistic(s, star, kern)
            target = (sample_mean(star).values[0] - sample_mean(s).values[0]) ** 2
            assert abs(value - target) < 1e-12

    def test_gaussian_kernel_nonnegative(self):
        rng = derive_stream(56)
        kern = gaussian_kernel(1.0)
        for _ in range(200):
            s = scalar_sample(rng.standard_normal(12))
            plan = BlockPlan(n=12, p=3)
            star = draw_bootstrap_sample(s, plan, rng)
            assert bootstrap_v_statistic(s, star, kern) >= -1e-12

    def test_length_mismatch(self):
        with pytest.raises(PlanMismatchError):
            bootstrap_v_statistic(scalar_sample([1.0, 2.0]), scalar_sample([1.0]), ONES)

    def test_exact_conditional_law_matches_enumeration(self):
        # oracle: k^k = 4 outcomes enumerated through direct resample values
        data = np.array([1.0, 2.0, 3.0, 4.0])
        s = scalar_sample(data)
        plan = BlockPlan(n=4, p=2)
        kern = gaussian_kernel(1.0)
        exact = []
        for pick in all_block_selections(plan.k):
            rows = np.concatenate([np.arange(b * 2, b * 2 + 2) for b in pick])
            star = HilbertSample(s.grid, s.weights, s.values[rows])
            exact.append(bootstrap_v_statistic(s, star, kern))
        support, probs = discrete_law(exact, tol=1e-12)
        rng = derive_stream(57)
        draws = np.empty(20000)
        for i in range(draws.size):
            star = draw_bootstrap_sample(s, plan, rng)
            draws[i] = bootstrap_v_statistic(s, star, kern)
        assert ks_sample_vs_discrete(draws, support, probs) < 0.02

    def test_evaluator_matches_three_term_formula(self):
        rng = derive_stream(58)
        s = scalar_sample(rng.standard_normal(24))
        plan = BlockPlan(n=24, p=4)
        kern = gaussian_kernel(1.0)
        evaluator = vstat_bootstrap_evaluator(s, plan, kern)
        idx = rng.integers(0, plan.k, size=(10, plan.k))
        fast = evaluator(counts_from_indices(idx, plan.k))
        for row, value in zip(idx, fast):
            rows = (row[:, None] * plan.p + np.arange(plan.p)).ravel()
            star = HilbertSample(s.grid, s.weights, s.values[rows])
            slow = plan.kp * bootstrap_v_statistic(s, star, kern)
            assert value == pytest.approx(slow, rel=1e-10, abs=1e-12)

    def test_tiled_block_pair_sums_match_dense(self, monkeypatch):
        import blockboot.vmstat as vm

        rng = derive_stream(68)
        x = rng.standard_normal(96)
        plan = BlockPlan(n=96, p=8)
        kern, meshes = counted(gaussian_kernel(1.0))
        dense = vm._block_pair_sums(x, plan, kern)
        assert meshes == [(96, 96)]
        meshes.clear()
        # Five blocks of 8 rows per tile: tiles of 40, 40 and 16 rows.
        monkeypatch.setattr(vm, "TILE_BYTES", 8 * 96 * 8 * 5)
        tiled = vm._block_pair_sums(x, plan, kern)
        assert meshes == [(40, 96), (40, 96), (16, 96)]
        assert tiled == pytest.approx(dense, rel=1e-12)

    def test_gaussian_vstat_test_memory_is_bounded(self):
        import tracemalloc

        s = scalar_sample(derive_stream(71).standard_normal(4000))
        plan = BlockPlan(n=4000, p=16)
        tracemalloc.start()
        try:
            vstat_test(s, gaussian_kernel(1.0), plan, B=1000, seed=3, level=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A dense 4000 x 4000 mesh is 128 MB per temporary.
        assert peak < 128 * 2**20


class TestEmpiricalCdf:
    def test_counting(self):
        s = scalar_sample([1.0, 2.0, 3.0])
        assert empirical_cdf(s, 2.0) == pytest.approx(2.0 / 3.0)

    def test_boundaries(self):
        s = scalar_sample([1.0, 2.0, 3.0])
        assert empirical_cdf(s, 0.5) == 0.0
        assert empirical_cdf(s, 3.0) == 1.0
        assert empirical_cdf(s, 99.0) == 1.0

    def test_matches_brute_force_counting(self):
        rng = derive_stream(59)
        x = rng.standard_normal(1000)
        s = scalar_sample(x)
        queries = rng.uniform(-3, 3, 100)
        values = empirical_cdf(s, queries)
        for t, got in zip(queries, values):
            assert got == brute_force_ecdf(x, t)


class TestCvmStatistic:
    def test_zero_weight_gives_zero(self):
        spec = CvmSpec(cdf=lambda t: np.clip(t, 0, 1), grid=np.linspace(0, 1, 50),
                       weights=np.zeros(50))
        s = scalar_sample([0.3, 0.6])
        assert cvm_statistic(s, spec) == 0.0

    def test_perfect_fit_gives_zero(self):
        x = np.array([0.2, 0.4, 0.9])
        s = scalar_sample(x)
        sorted_x = np.sort(x)

        def fitted(t):
            return np.searchsorted(sorted_x, t, side="right") / x.size

        spec = make_cvm_spec(fitted, (0.0, 1.0), sample=s)
        assert cvm_statistic(s, spec) == 0.0

    def test_single_observation_analytic_value(self):
        # oracle: for one observation at 1/2 under the uniform null the
        # integral is 1/24 + 1/24 = 1/12
        s = scalar_sample([0.5])
        spec = make_cvm_spec(lambda t: np.clip(t, 0.0, 1.0), (0.0, 1.0),
                             sample=s, n_grid=10000)
        assert cvm_statistic(s, spec) == pytest.approx(1.0 / 12.0, abs=1e-4)

    def test_nonmonotone_cdf_rejected(self):
        with pytest.raises(CvmSpecError):
            CvmSpec(cdf=lambda t: np.where(t < 0.5, 0.8, 0.2),
                    grid=np.linspace(0, 1, 11), weights=np.ones(11))

    def test_cdf_outside_unit_interval_rejected(self):
        with pytest.raises(CvmSpecError):
            CvmSpec(cdf=lambda t: 2.0 * t, grid=np.linspace(0, 1, 11),
                    weights=np.ones(11))

    def test_matches_v_statistic_with_induced_kernel(self):
        # The weighted squared CDF distance is a V-statistic whose kernel is
        # the discretized inner product of centered indicators.
        rng = derive_stream(60)
        from scipy.stats import norm as normal_dist

        x = rng.standard_normal(15)
        s = scalar_sample(x)
        spec = make_cvm_spec(normal_dist.cdf, (-8.0, 8.0), weight_fn=normal_dist.pdf,
                             sample=s, n_grid=10000)

        def induced(a, b):
            a = np.asarray(a, dtype=np.float64)[..., None]
            b = np.asarray(b, dtype=np.float64)[..., None]
            ind_a = (spec.grid >= a).astype(np.float64) - spec.cdf_values
            ind_b = (spec.grid >= b).astype(np.float64) - spec.cdf_values
            return np.sum(ind_a * ind_b * spec.weights, axis=-1)

        kern = Kernel(name="induced", eval=induced)
        assert cvm_statistic(s, spec) == pytest.approx(v_statistic(s, kern), abs=1e-6)


class TestBootstrapCvmStatistic:
    def _uniform_spec(self, s):
        return make_cvm_spec(lambda t: np.clip(t, 0.0, 1.0), (0.0, 1.0), sample=s)

    def test_identity_resample_is_exactly_zero(self):
        s = scalar_sample([0.1, 0.5, 0.9, 0.2])
        spec = self._uniform_spec(s)
        assert bootstrap_cvm_statistic(s, s, spec) == 0.0

    def test_equals_norm_of_indicator_mean_difference(self):
        rng = derive_stream(61)
        data = rng.uniform(0, 1, 12)
        s = scalar_sample(data)
        plan = BlockPlan(n=12, p=3)
        spec = self._uniform_spec(s)
        star = draw_bootstrap_sample(s, plan, rng)
        value = bootstrap_cvm_statistic(s, star, spec)

        def indicator_rows(sample):
            return (spec.grid[None, :] >= sample.values[:, [0]]).astype(np.float64)

        diff = indicator_rows(star).mean(axis=0) - indicator_rows(s).mean(axis=0)
        target = plan.kp * float(np.sum(diff * diff * spec.weights))
        assert value == pytest.approx(target, rel=1e-12, abs=1e-15)

    def test_exact_conditional_law_matches_monte_carlo(self):
        data = np.array([0.1, 0.4, 0.6, 0.9])
        s = scalar_sample(data)
        plan = BlockPlan(n=4, p=2)
        spec = self._uniform_spec(s)
        exact = []
        for pick in all_block_selections(plan.k):
            rows = np.concatenate([np.arange(b * 2, b * 2 + 2) for b in pick])
            star = HilbertSample(s.grid, s.weights, s.values[rows])
            exact.append(bootstrap_cvm_statistic(s, star, spec))
        support, probs = discrete_law(exact, tol=1e-12)
        rng = derive_stream(62)
        draws = np.empty(20000)
        for i in range(draws.size):
            star = draw_bootstrap_sample(s, plan, rng)
            draws[i] = bootstrap_cvm_statistic(s, star, spec)
        assert ks_sample_vs_discrete(draws, support, probs) < 0.02

    def test_evaluator_matches_direct_statistic(self):
        rng = derive_stream(63)
        data = rng.uniform(0, 1, 20)
        s = scalar_sample(data)
        plan = BlockPlan(n=20, p=4)
        spec = self._uniform_spec(s)
        evaluator = cvm_bootstrap_evaluator(s, plan, spec)
        idx = rng.integers(0, plan.k, size=(10, plan.k))
        fast = evaluator(counts_from_indices(idx, plan.k))
        for row, value in zip(idx, fast):
            rows = (row[:, None] * plan.p + np.arange(plan.p)).ravel()
            star = HilbertSample(s.grid, s.weights, s.values[rows])
            slow = bootstrap_cvm_statistic(s, star, spec)
            assert value == pytest.approx(slow, rel=1e-10, abs=1e-15)

    def test_length_mismatch(self):
        s = scalar_sample([0.1, 0.2, 0.3, 0.4])
        spec = self._uniform_spec(s)
        with pytest.raises(PlanMismatchError):
            bootstrap_cvm_statistic(s, scalar_sample([0.1]), spec)

    def test_cvm_test_memory_is_bounded(self):
        import tracemalloc
        from scipy.stats import norm as normal_dist

        s = scalar_sample(derive_stream(72).standard_normal(20000))
        plan = BlockPlan(n=20000, p=27)
        spec = make_cvm_spec(normal_dist.cdf, (-8.0, 8.0), weight_fn=normal_dist.pdf, sample=s)
        tracemalloc.start()
        try:
            cvm_test(s, spec, plan, B=10, seed=3, level=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Dense (kp, k) prefix counts would be 118 MB each (kp = 19980, k = 740).
        assert peak < 96 * 2**20


class TestDegeneracyDiagnostic:
    def test_symmetric_pair_cancels_product_kernel(self):
        s = scalar_sample([-2.0, 2.0])
        probes = np.linspace(-3, 3, 13)
        assert degeneracy_diagnostic(s, product_kernel(), probes) == 0.0

    def test_constant_kernel_is_flagrantly_nondegenerate(self):
        s = scalar_sample([1.0, 2.0, 3.0])
        assert degeneracy_diagnostic(s, ONES, np.array([0.0, 1.0])) == 1.0

    def test_shift_invariant_kernel_on_circle_is_degenerate(self):
        # cos(x - y) has mean zero against the uniform law on [0, 2*pi]
        kern = Kernel(name="cos-diff", eval=lambda x, y: np.cos(x - y))
        rng = derive_stream(64)
        s = scalar_sample(rng.uniform(0, 2 * math.pi, 100000))
        probes = np.linspace(0, 2 * math.pi, 17)
        assert degeneracy_diagnostic(s, kern, probes) <= 0.02


class TestSingleShotTests:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_narrow_gaussian_kernel_runs_without_warnings(self):
        # z * z overflows to inf off the diagonal, where exp(-inf) = 0 is the exact value
        s = scalar_sample(derive_stream(67).standard_normal(40))
        result = vstat_test(s, gaussian_kernel(1e-300), BlockPlan(n=40, p=4), B=50, seed=5,
                            level=0.05)
        assert result["statistic"] == pytest.approx(1.0)
        assert np.all(np.isfinite(result["replicates"]))

    def test_vstat_test_report_shape(self):
        rng = derive_stream(65)
        s = scalar_sample(rng.standard_normal(200))
        plan = BlockPlan(n=200, p=6)
        result = vstat_test(s, product_kernel(), plan, B=200, seed=4, level=0.05)
        assert set(result) >= {"statistic", "critical_value", "p_value", "reject"}
        assert 0.0 < result["p_value"] <= 1.0
        assert result["replicates"].size == 200

    def test_cvm_test_detects_wrong_null(self):
        rng = derive_stream(66)
        s = scalar_sample(rng.standard_normal(400) + 1.5)
        plan = BlockPlan(n=400, p=7)
        from scipy.stats import norm as normal_dist

        spec = make_cvm_spec(normal_dist.cdf, (-8.0, 8.0),
                             weight_fn=normal_dist.pdf, sample=s)
        result = cvm_test(s, spec, plan, B=300, seed=6, level=0.05)
        assert result["reject"] is True
