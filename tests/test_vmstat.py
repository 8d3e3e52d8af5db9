import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from blockboot import (
    BlockPlan,
    CvmSpec,
    HilbertSample,
    Kernel,
    cvm_kernel,
    cvm_statistic,
    cvm_test,
    degeneracy_diagnostic,
    empirical_cdf,
    gaussian_kernel,
    make_cvm_spec,
    product_kernel,
    v_statistic,
    vstat_test,
)
from blockboot.exceptions import (
    ConfigError,
    CvmSpecError,
    NonFiniteStatisticError,
    PlanMismatchError,
    ReplicateMemoryError,
)
from blockboot.rng import derive_stream
from blockboot.vmstat import (
    cvm_bootstrap_evaluator,
    kernel_from_token,
    vstat_bootstrap_evaluator,
)
from blockboot.bootstrap import counts_from_indices
from oracles import (
    all_block_selections,
    assemble,
    bootstrap_cvm_statistic,
    bootstrap_v_statistic,
    brute_force_ecdf,
    discrete_law,
    ks_sample_vs_discrete,
    u_statistic,
)


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
        # 1/3 - max(x, y) + (x^2 + y^2)/2 has max profile -x, not +x, and
        # separable part 1/6 + x^2/2, not x^2/2
        kern = cvm_kernel(lambda t: t)
        with pytest.raises(ConfigError, match="disagrees"):
            Kernel("bad", eval=kern.eval, max_profile=lambda x: (x, 1 / 6 + x * x / 2))
        with pytest.raises(ConfigError, match="disagrees"):
            Kernel("bad", eval=kern.eval, max_profile=lambda x: (-x, x * x / 2))
        Kernel("good", eval=kern.eval, max_profile=lambda x: (-x, 1 / 6 + x * x / 2))

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
    @pytest.mark.parametrize("kernel_token", ["product", "gaussian:1.0", "cvm:normal"])
    def test_uv_identity_on_random_samples(self, kernel_token):
        # The package's V against the dense-mesh U through the diagonal-correction identity
        kern = kernel_from_token(kernel_token)
        rng = derive_stream(53)
        for _ in range(34):
            n = int(rng.integers(2, 51))
            x = rng.standard_normal(n)
            s = scalar_sample(x)
            u = u_statistic(x, kern.eval)
            v = v_statistic(s, kern)
            diagonal = float(np.sum(kern.eval(x, x)))
            rhs = n / (n - 1) * v - diagonal / (n * (n - 1))
            assert abs(u - rhs) < 1e-12 * max(1.0, abs(u))


def draws_and_counts(rng, plan, m):
    """``m`` draws of ``plan.k`` block indices from ``rng``, and their count rows."""
    idx = rng.integers(0, plan.k, size=(m, plan.k))
    return idx, counts_from_indices(idx, plan.k)


class TestBootstrapVStatistic:
    def test_identity_resample_is_exactly_zero(self):
        rng = derive_stream(54)
        s = scalar_sample(rng.standard_normal(12))
        plan = BlockPlan(n=12, p=3)
        evaluator = vstat_bootstrap_evaluator(s, plan, gaussian_kernel(1.0))
        assert evaluator(np.ones((1, plan.k), dtype=np.int64))[0] == 0.0

    def test_product_kernel_equals_squared_mean_difference(self):
        rng = derive_stream(55)
        kern = product_kernel()
        plan = BlockPlan(n=16, p=4)
        for _ in range(25):
            x = rng.standard_normal(16)
            idx, counts = draws_and_counts(rng, plan, 1)
            value = vstat_bootstrap_evaluator(scalar_sample(x), plan, kern)(counts)[0] / plan.kp
            target = (np.mean(assemble(x, plan.p, idx[0])) - np.mean(x)) ** 2
            assert abs(value - target) < 1e-12

    def test_gaussian_kernel_nonnegative(self):
        rng = derive_stream(56)
        kern = gaussian_kernel(1.0)
        plan = BlockPlan(n=12, p=3)
        for _ in range(200):
            s = scalar_sample(rng.standard_normal(12))
            _, counts = draws_and_counts(rng, plan, 1)
            assert vstat_bootstrap_evaluator(s, plan, kern)(counts)[0] / plan.kp >= -1e-12

    def test_exact_conditional_law_matches_enumeration(self):
        # oracle: k^k = 4 outcomes of the dense three-term formula, enumerated
        data = np.array([1.0, 2.0, 3.0, 4.0])
        plan = BlockPlan(n=4, p=2)
        kern = gaussian_kernel(1.0)
        exact = [bootstrap_v_statistic(data, assemble(data, plan.p, pick), kern.eval)
                 for pick in all_block_selections(plan.k)]
        support, probs = discrete_law(exact, tol=1e-12)
        _, counts = draws_and_counts(derive_stream(57), plan, 20000)
        draws = vstat_bootstrap_evaluator(scalar_sample(data), plan, kern)(counts) / plan.kp
        assert ks_sample_vs_discrete(draws, support, probs) < 0.02

    def test_evaluator_matches_three_term_formula(self):
        rng = derive_stream(58)
        x = rng.standard_normal(24)
        plan = BlockPlan(n=24, p=4)
        kern = gaussian_kernel(1.0)
        evaluator = vstat_bootstrap_evaluator(scalar_sample(x), plan, kern)
        idx, counts = draws_and_counts(rng, plan, 10)
        for row, value in zip(idx, evaluator(counts)):
            slow = plan.kp * bootstrap_v_statistic(x, assemble(x, plan.p, row), kern.eval)
            assert value == pytest.approx(slow, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n", [100, 50])
    @pytest.mark.parametrize("token", ["product", "gaussian:1.0", "cvm:normal"])
    def test_sample_of_another_length_is_refused(self, token, n):
        s = scalar_sample(derive_stream(59).standard_normal(n))
        with pytest.raises(PlanMismatchError, match=f"plan is for n=60, sample has n={n}"):
            vstat_bootstrap_evaluator(s, BlockPlan(n=60, p=4), kernel_from_token(token))

    def test_tiled_block_pair_sums_match_dense(self, monkeypatch):
        import blockboot.vmstat as vm

        rng = derive_stream(68)
        x = rng.standard_normal(96)
        plan = BlockPlan(n=96, p=8)
        kern, meshes = counted(gaussian_kernel(1.0))
        dense = vm._mesh_sums(x, plan, kern)
        assert meshes == [(96, 96)]
        meshes.clear()
        # Five blocks of 8 rows per tile, each against the columns from its
        # own first block onward: tiles of 40, 40 and 16 rows.
        monkeypatch.setattr(vm, "TILE_BYTES", 8 * 96 * 8 * 5)
        tiled = vm._mesh_sums(x, plan, kern)
        assert meshes == [(40, 96), (40, 56), (16, 16)]
        assert tiled[0] == pytest.approx(dense[0], rel=1e-12)
        assert tiled[1] == pytest.approx(dense[1], rel=1e-12)
        meshes.clear()
        # Blocks of 48 rows that do not fit: tiles of 10 rows against all 96
        # columns, then of 20 rows against the last 48.
        monkeypatch.setattr(vm, "TILE_BYTES", 8 * 96 * 10)
        split = vm._mesh_sums(x, BlockPlan(n=96, p=48), kern)
        assert meshes == [(10, 96)] * 4 + [(8, 96), (20, 48), (20, 48), (8, 48)]
        assert split[1] == pytest.approx(dense[1], rel=1e-12)

    # (n, p): n a multiple of p, tails of 1..p-1, p = 1 and p = n.
    @pytest.mark.parametrize("n, p", [(20, 5), (21, 5), (22, 5), (23, 5), (24, 5), (7, 1),
                                      (9, 9), (17, 9)])
    @pytest.mark.parametrize("tile_blocks", [None, 1, 3, 0.4, 0.0],
                             ids=["one-tile", "block-tiles", "ragged-tiles", "part-block-tiles",
                                  "row-tiles"])
    def test_mesh_sums_match_fsum_reference(self, monkeypatch, n, p, tile_blocks):
        import blockboot.vmstat as vm

        x = derive_stream(69, n, p).standard_normal(n)
        plan = BlockPlan(n=n, p=p)
        kern = gaussian_kernel(0.9)
        if tile_blocks is not None:
            monkeypatch.setattr(vm, "TILE_BYTES", int(8 * p * n * tile_blocks))
        T, total = vm._mesh_sums(x, plan, kern)
        mesh = kern.eval(x[:, None], x[None, :])
        blocks = [range(a * p, (a + 1) * p) for a in range(plan.k)]
        expected = [[math.fsum(mesh[i, j] for i in rows for j in cols) for cols in blocks]
                    for rows in blocks]
        np.testing.assert_allclose(T, expected, rtol=1e-12, atol=0)
        assert total == pytest.approx(math.fsum(mesh.ravel()), rel=1e-12)

    @pytest.mark.parametrize("n", [2000, 5000])
    def test_max_profile_total_matches_fsum_of_the_mesh(self, n):
        from blockboot.vmstat import _total_pair_sum

        # h = c - |x - y| / 2 = c - max(x, y) + (x + y) / 2 has max profile
        # c - x with f = x / 2.  On multiples of 2^-52 in [1/2, 1) with c a
        # multiple of 2^-53 every evaluation is exact, so the fsum of the mesh
        # is the exact total rounded once; c near E|x - y| / 2 cancels it
        # ~sqrt(n) times.
        c = math.ldexp(round(2.0**53 / 12), -53)
        kern = Kernel("abs", eval=lambda x, y: c - np.abs(x - y) / 2,
                      max_profile=lambda x: (c - x, x / 2))
        for seed in range(2):
            x = np.ldexp(derive_stream(73, n, seed).integers(2**51, 2**52, n).astype(float), -52)
            rows = (kern.eval(x[i : i + 64, None], x[None, :]).ravel().tolist()
                    for i in range(0, n, 64))
            assert _total_pair_sum(x, kern) == math.fsum(itertools.chain.from_iterable(rows))

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_cvm_total_is_the_exact_total_within_a_bound_that_does_not_grow(self, n):
        from blockboot.vmstat import _total_pair_sum

        # The exact total of c - max(F_i, F_j) + (F_i^2 + F_j^2)/2 over all
        # pairs, in exact arithmetic on the float CDF values F_i and the
        # kernel's float c = 1/3, is n^2 c - sum (2m - 1) F_(m) + n sum F_i^2.
        # Only the declared f = 1/6 + F^2/2 rounds, once a point; deriving f
        # as (h(x, x) - g)/2 put an error in n V_n that grew with n (3.3-3.7
        # times this bound at n = 20000).
        kern = kernel_from_token("cvm:normal")
        for seed in range(2):
            x = derive_stream(75, n, seed).standard_normal(n)
            F = [Fraction(v) for v in np.sort(-kern.max_profile(x)[0]).tolist()]
            exact = (n * n * Fraction(1.0 / 3.0) - sum((2 * m + 1) * f for m, f in enumerate(F))
                     + n * sum(f * f for f in F))
            assert abs(Fraction(_total_pair_sum(x, kern)) - exact) / n <= 2.0**-46

    @pytest.mark.parametrize("token", ["product", "cvm:normal", "cvm:uniform:-3,3"])
    def test_vstat_statistics_of_declared_kernels_are_unchanged(self, token):
        from blockboot.vmstat import vstat_statistics

        s = scalar_sample(derive_stream(70).standard_normal(101))
        plan = BlockPlan(n=101, p=6)
        kern = kernel_from_token(token)
        counts = counts_from_indices(derive_stream(71).integers(0, plan.k, (9, plan.k)), plan.k)
        observed, evaluate = vstat_statistics(s, plan, kern)
        assert observed == s.n * v_statistic(s, kern)
        assert np.array_equal(evaluate(counts), vstat_bootstrap_evaluator(s, plan, kern)(counts))

    def test_vstat_test_walks_half_the_mesh(self, monkeypatch):
        import blockboot.vmstat as vm

        n, p = 200, 7
        s = scalar_sample(derive_stream(72).standard_normal(n))
        kern, meshes = counted(gaussian_kernel(1.0))
        # Three blocks per tile: 10 row tiles over the 28 blocks, plus the 4-point tail.
        monkeypatch.setattr(vm, "TILE_BYTES", 8 * p * n * 3)
        vstat_test(s, kern, BlockPlan(n=n, p=p), B=5, seed=1, level=0.1)
        assert len(meshes) >= 8
        # Separate observed and block-pair meshes took n^2 + (kp)^2 cells.
        assert sum(math.prod(shape) for shape in meshes) <= 0.6 * n * n

    # A dense 4000 x 4000 mesh is 128 MB per temporary.  One block of 2000
    # rows against all columns is 64 MB per temporary; tiles of whole rows
    # keep each to TILE_BYTES (1 MiB).
    @pytest.mark.parametrize("p, limit", [(16, 128 * 2**20), (2000, 16 * 2**20)],
                             ids=["short-blocks", "long-blocks"])
    def test_gaussian_vstat_test_memory_is_bounded(self, p, limit):
        import tracemalloc

        s = scalar_sample(derive_stream(71).standard_normal(4000))
        plan = BlockPlan(n=4000, p=p)
        tracemalloc.start()
        try:
            vstat_test(s, gaussian_kernel(1.0), plan, B=1000, seed=3, level=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def gram_paths(s, plan):
    """The three bootstrap paths through ``k x k`` block-pair sums, as thunks."""
    spec = make_cvm_spec(lambda t: np.clip(t / 8.0 + 0.5, 0.0, 1.0), (-4.0, 4.0), sample=s)
    return {
        "mesh": lambda: vstat_test(s, gaussian_kernel(1.0), plan, B=20, seed=3, level=0.05),
        "max-profile": lambda: vstat_test(s, kernel_from_token("cvm:uniform:-4,4"), plan, B=20,
                                          seed=3, level=0.05),
        "cvm-test": lambda: cvm_test(s, spec, plan, B=20, seed=3, level=0.05),
    }


def traced_peak(run):
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGramMemory:
    @pytest.mark.parametrize("path", ["mesh", "max-profile", "cvm-test"])
    def test_working_set_is_the_documented_multiple_of_k_squared(self, path):
        import blockboot.vmstat as vm

        s = scalar_sample(derive_stream(73).uniform(-4.0, 4.0, 1000))
        run = gram_paths(s, BlockPlan(n=1000, p=1))[path]
        square = 8 * 1000**2
        assert (vm.GRAM_ARRAYS - 1) * square < traced_peak(run) <= 1.02 * vm.GRAM_ARRAYS * square

    @pytest.mark.parametrize("path", ["mesh", "max-profile", "cvm-test"])
    def test_paths_beyond_physical_memory_raise_before_any_k_by_k_array(self, monkeypatch, path):
        import blockboot.vmstat as vm

        n = 1200
        s = scalar_sample(derive_stream(74).uniform(-4.0, 4.0, n))
        run = gram_paths(s, BlockPlan(n=n, p=1))[path]
        need = vm.GRAM_ARRAYS * 8 * n * n
        monkeypatch.setattr(vm, "_physical_memory", lambda: need - 1)

        def refused():
            with pytest.raises(ReplicateMemoryError, match="k=1200 blocks need about 66 MiB"):
                run()

        assert traced_peak(refused) < 8 * n * n
        monkeypatch.setattr(vm, "_physical_memory", lambda: need)
        run()


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

    @pytest.mark.parametrize("grid, weights, cdf, message", [
        (np.zeros((2, 2)), np.ones((2, 2)), None, "grid must be a nonempty 1-D array"),
        (np.empty(0), np.empty(0), None, "grid must be a nonempty 1-D array"),
        ([0.0, 0.5, 0.5, 1.0], np.ones(4), None, "grid must be strictly increasing"),
        ([0.0, 0.5, np.inf], np.ones(3), None, "grid must be finite"),
        ([-np.inf, 0.0, 0.5], np.ones(3), None, "grid must be finite"),
        ([0.0, np.nan, 1.0], np.ones(3), None, "grid must be strictly increasing"),
        ([0.0, 0.5, 1.0], np.ones(2), None, "weights must match the grid"),
        ([0.0, 0.5, 1.0], [1.0, -1.0, 1.0], None, "weights must be finite and nonnegative"),
        ([0.0, 0.5, 1.0], [1.0, np.inf, 1.0], None, "weights must be finite and nonnegative"),
        ([0.0, 0.5, 1.0], [1.0, np.nan, 1.0], None, "weights must be finite and nonnegative"),
        ([0.0, 0.5, 1.0], np.ones(3), lambda t: np.zeros(t.size + 1),
         "cdf must return one value per grid point"),
        ([0.0, 0.5, 1.0], np.ones(3), lambda t: 0.5, "cdf must return one value per grid point"),
    ], ids=["2-d", "empty", "repeated-point", "inf-point", "minus-inf-point", "nan-point",
            "weights-shape", "negative-weight", "infinite-weight", "nan-weight", "cdf-one-more",
            "cdf-scalar"])
    def test_invalid_spec_is_refused(self, grid, weights, cdf, message):
        cdf = cdf or (lambda t: np.clip(t, 0.0, 1.0))
        with pytest.raises(CvmSpecError) as info:
            CvmSpec(cdf=cdf, grid=np.asarray(grid), weights=np.asarray(weights))
        assert str(info.value) == message

    @pytest.mark.parametrize("support", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)])
    def test_non_finite_support_is_refused_without_warnings(self, support):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CvmSpecError) as info:
                make_cvm_spec(lambda t: np.clip(t, 0.0, 1.0), support)
        assert str(info.value) == f"support must be finite, got {support}"

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
        plan = BlockPlan(n=4, p=2)
        evaluator = cvm_bootstrap_evaluator(s, plan, self._uniform_spec(s))
        assert evaluator(np.ones((1, plan.k), dtype=np.int64))[0] == 0.0

    def test_equals_norm_of_indicator_mean_difference(self):
        rng = derive_stream(61)
        data = rng.uniform(0, 1, 12)
        s = scalar_sample(data)
        plan = BlockPlan(n=12, p=3)
        spec = self._uniform_spec(s)
        idx, counts = draws_and_counts(rng, plan, 1)
        value = cvm_bootstrap_evaluator(s, plan, spec)(counts)[0]

        def indicator_rows(sample):
            return (spec.grid[None, :] >= sample[:, None]).astype(np.float64)

        diff = (indicator_rows(assemble(data, plan.p, idx[0])).mean(axis=0)
                - indicator_rows(data).mean(axis=0))
        target = plan.kp * float(np.sum(diff * diff * spec.weights))
        assert value == pytest.approx(target, rel=1e-12, abs=1e-15)

    def test_exact_conditional_law_matches_monte_carlo(self):
        data = np.array([0.1, 0.4, 0.6, 0.9])
        s = scalar_sample(data)
        plan = BlockPlan(n=4, p=2)
        spec = self._uniform_spec(s)
        exact = [bootstrap_cvm_statistic(data, assemble(data, plan.p, pick), spec.grid,
                                         spec.weights)
                 for pick in all_block_selections(plan.k)]
        support, probs = discrete_law(exact, tol=1e-12)
        _, counts = draws_and_counts(derive_stream(62), plan, 20000)
        draws = cvm_bootstrap_evaluator(s, plan, spec)(counts)
        assert ks_sample_vs_discrete(draws, support, probs) < 0.02

    def test_evaluator_matches_direct_statistic(self):
        rng = derive_stream(63)
        data = rng.uniform(0, 1, 20)
        s = scalar_sample(data)
        plan = BlockPlan(n=20, p=4)
        spec = self._uniform_spec(s)
        evaluator = cvm_bootstrap_evaluator(s, plan, spec)
        idx, counts = draws_and_counts(rng, plan, 10)
        for row, value in zip(idx, evaluator(counts)):
            slow = bootstrap_cvm_statistic(data, assemble(data, plan.p, row), spec.grid,
                                           spec.weights)
            assert value == pytest.approx(slow, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("n", [100, 50])
    def test_sample_of_another_length_is_refused(self, n):
        s = scalar_sample(derive_stream(64).uniform(0, 1, n))
        with pytest.raises(PlanMismatchError, match=f"plan is for n=60, sample has n={n}"):
            cvm_bootstrap_evaluator(s, BlockPlan(n=60, p=4), self._uniform_spec(s))

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

    def test_overflowing_kernel_is_an_error(self):
        # inf - inf over finite data near the float range
        s = scalar_sample([1e308, -1e308, 1e308, -1e308])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteStatisticError, match="degeneracy diagnostic is nan"):
            degeneracy_diagnostic(s, product_kernel(), np.array([1e308, -1e308]))


class TestSingleShotTests:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_narrow_gaussian_kernel_runs_without_warnings(self):
        # z * z overflows to inf off the diagonal, where exp(-inf) = 0 is the exact value
        s = scalar_sample(derive_stream(67).standard_normal(40))
        result = vstat_test(s, gaussian_kernel(1e-300), BlockPlan(n=40, p=4), B=50, seed=5,
                            level=0.05)
        assert result["statistic"] == pytest.approx(1.0)
        assert np.all(np.isfinite(result["replicates"]))

    # Kernel scales up to where the observed total overflows.  At 1.5 * 2^1017
    # the Gram entries (~16 * scale) are within 2^s of the float range, s = 3
    # for k = 2 blocks, while the total (~64 * scale) and v T stay finite.
    @pytest.mark.parametrize("scale", [2.0**1000, 1.5 * 2.0**1017, 2.0**1019, 2.0**1023])
    def test_gram_near_the_float_range_gives_finite_values_or_an_error(self, scale):
        # Close points make the Gram nearly constant, so sum(v) = 0 keeps the
        # exact products v T and the replicates small.
        kern = Kernel("huge", eval=lambda x, y: scale * np.exp(-((x - y) ** 2)))
        s = scalar_sample(1e-3 * derive_stream(68).standard_normal(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = vstat_test(s, kern, BlockPlan(n=8, p=4), B=50, seed=5, level=0.05)
            except NonFiniteStatisticError:
                assert scale > 2.0**1018
                return
        assert np.all(np.isfinite(result["replicates"]))

    def test_max_profile_total_past_the_float_range_is_an_error(self):
        # The exact products overflow, which math.fsum raises on.
        kern = Kernel("abs-huge", eval=lambda x, y: 1e307 * (0.25 - np.abs(x - y) / 2),
                      max_profile=lambda x: (1e307 * (0.25 - x), 1e307 * x / 2))
        s = scalar_sample(derive_stream(74).uniform(0.5, 1.0, 100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStatisticError, match="observed statistic is"):
                vstat_test(s, kern, BlockPlan(n=100, p=5), B=20, seed=1, level=0.05)

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
