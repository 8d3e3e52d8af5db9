import math

import numpy as np
import pytest

from blockboot import ProcessConfig, generate_functional, generate_real
from blockboot.exceptions import ConfigError
from blockboot.generators import _doubling_orbit, _noise_basis
from blockboot.rng import derive_stream
from oracles import ar1_long_run_variance


GRID = np.linspace(0.0, 1.0, 16)


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ProcessConfig(kind="garch")

    def test_explosive_ar_rejected(self):
        with pytest.raises(ConfigError):
            ProcessConfig(kind="ar1-real", phi=1.0)

    def test_student_t_needs_heavy_df(self):
        with pytest.raises(ConfigError):
            ProcessConfig(kind="iid", innovation="student-t", t_df=4.0)

    def test_kind_and_generator_must_agree(self):
        with pytest.raises(ConfigError):
            generate_real(ProcessConfig(kind="ar1-functional"), 10)
        with pytest.raises(ConfigError):
            generate_functional(ProcessConfig(kind="iid"), 10, GRID)

    def test_dependence_notes_exist_for_every_kind(self):
        for kind in ("iid", "ar1-real", "linear-real", "ar1-functional",
                     "doubling-map-functional"):
            cfg = ProcessConfig(kind=kind)
            assert len(cfg.dependence_notes) > 20


class TestRealGenerators:
    def test_determinism(self):
        cfg = ProcessConfig(kind="ar1-real", phi=0.3, seed=100)
        a = generate_real(cfg, 500)
        b = generate_real(cfg, 500)
        assert a.values.tobytes() == b.values.tobytes()

    def test_degenerate_ar_equals_its_innovation_stream(self):
        cfg = ProcessConfig(kind="ar1-real", phi=0.0, seed=101, burn_in=50)
        sample = generate_real(cfg, 200).scalars()
        replay = derive_stream(101)
        replay.standard_normal()  # the initial-state draw
        innovations = replay.standard_normal(50 + 200)
        assert np.array_equal(sample, innovations[50:])

    def test_identity_filter_equals_iid_kind(self):
        linear = ProcessConfig(kind="linear-real", coefficients=(1.0,), seed=102)
        iid = ProcessConfig(kind="iid", seed=102)
        assert np.array_equal(generate_real(linear, 300).values,
                              generate_real(iid, 300).values)

    def test_ar1_lag_one_autocorrelation(self):
        # oracle: the stationary AR(1) autocorrelation at lag 1 equals phi
        cfg = ProcessConfig(kind="ar1-real", phi=0.5, seed=103)
        x = generate_real(cfg, 100000).scalars()
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert rho == pytest.approx(0.5, abs=0.02)

    def test_linear_filter_matches_direct_convolution(self):
        coeffs = (1.0, 0.5, 0.25)
        cfg = ProcessConfig(kind="linear-real", coefficients=coeffs, seed=104)
        x = generate_real(cfg, 50).scalars()
        replay = derive_stream(104).standard_normal(52)
        expected = np.array([
            coeffs[0] * replay[i + 2] + coeffs[1] * replay[i + 1] + coeffs[2] * replay[i]
            for i in range(50)
        ])
        assert x == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("innovation", ["gaussian", "uniform", "student-t"])
    def test_innovations_are_standardized(self, innovation):
        cfg = ProcessConfig(kind="iid", innovation=innovation, seed=105)
        x = generate_real(cfg, 200000).scalars()
        assert x.mean() == pytest.approx(0.0, abs=0.02)
        assert x.var() == pytest.approx(1.0, abs=0.03)

    def test_stationarity_of_halves(self):
        # mean and variance of the two halves agree within 5 theoretical SEs
        phi = 0.5
        cfg = ProcessConfig(kind="ar1-real", phi=phi, seed=106)
        x = generate_real(cfg, 100000).scalars()
        half = x.size // 2
        first, second = x[:half], x[half:]
        lrv = ar1_long_run_variance(phi)
        se_mean_diff = math.sqrt(2.0 * lrv / half)
        assert abs(first.mean() - second.mean()) < 5.0 * se_mean_diff
        gamma0 = 1.0 / (1.0 - phi**2)
        sum_sq_corr = (1.0 + phi * phi) / (1.0 - phi * phi)
        se_var_diff = math.sqrt(2.0 * 2.0 * gamma0**2 * sum_sq_corr / half)
        assert abs(first.var() - second.var()) < 5.0 * se_var_diff

    def test_neighbouring_seeds_are_uncorrelated(self):
        n = 100000
        a = generate_real(ProcessConfig(kind="iid", seed=107), n).scalars()
        b = generate_real(ProcessConfig(kind="iid", seed=108), n).scalars()
        assert abs(np.corrcoef(a, b)[0, 1]) < 3.0 / math.sqrt(n)


class TestFunctionalGenerators:
    def test_determinism(self):
        cfg = ProcessConfig(kind="ar1-functional", phi=0.4, seed=110)
        a = generate_functional(cfg, 100, GRID)
        b = generate_functional(cfg, 100, GRID)
        assert a.values.tobytes() == b.values.tobytes()

    def test_degenerate_ar_draws_are_uncorrelated_in_time(self):
        cfg = ProcessConfig(kind="ar1-functional", phi=0.0, seed=111)
        s = generate_functional(cfg, 20000, GRID)
        col = s.values[:, 3]
        rho = np.corrcoef(col[:-1], col[1:])[0, 1]
        assert abs(rho) < 3.0 / math.sqrt(col.size - 1)

    def test_pointwise_mean_within_clt_band(self):
        cfg = ProcessConfig(kind="ar1-functional", phi=0.0, seed=112)
        n = 100000
        s = generate_functional(cfg, n, GRID)
        mean = s.values.mean(axis=0)
        std = s.values.std(axis=0)
        assert np.all(np.abs(mean) <= 3.0 * std / math.sqrt(n))

    def test_dependent_pointwise_mean_with_inflated_band(self):
        phi = 0.5
        cfg = ProcessConfig(kind="ar1-functional", phi=phi, seed=113)
        n = 100000
        s = generate_functional(cfg, n, GRID)
        mean = s.values.mean(axis=0)
        std = s.values.std(axis=0)
        inflation = math.sqrt((1.0 + phi) / (1.0 - phi))
        assert np.all(np.abs(mean) <= 3.0 * inflation * std / math.sqrt(n))

    def test_weights_come_from_trapezoid_rule(self):
        from blockboot import trapezoid_weights

        w = np.linspace(1.0, 2.0, GRID.size)
        cfg = ProcessConfig(kind="doubling-map-functional", seed=114)
        s = generate_functional(cfg, 10, GRID, w)
        assert np.array_equal(s.weights, trapezoid_weights(GRID, w))


def loop_noise_basis(basis_size, grid):
    """The noise basis built row by row: 1, then cos and sin of frequency 1, 2, ..."""
    u = (grid - grid[0]) / (grid[-1] - grid[0]) if grid.size > 1 else np.zeros(1)
    rows = [np.ones_like(u)]
    j = 1
    while len(rows) < basis_size:
        rows.append(math.sqrt(2.0) * np.cos(2.0 * math.pi * j * u))
        if len(rows) < basis_size:
            rows.append(math.sqrt(2.0) * np.sin(2.0 * math.pi * j * u))
        j += 1
    return np.stack(rows) * (0.5 ** np.arange(basis_size, dtype=np.float64))[:, None]


class TestNoiseBasis:
    @pytest.mark.parametrize("points", [1, 2, 5, 32, 101, 257])
    def test_equals_the_row_by_row_basis_bitwise(self, points):
        grid = np.linspace(-1.0, 2.5, points)
        for basis_size in range(1, 40):
            cfg = ProcessConfig(kind="ar1-functional", basis_size=basis_size)
            assert _noise_basis(cfg, grid).tobytes() == loop_noise_basis(basis_size, grid).tobytes()


class TestDoublingMap:
    def test_orbit_satisfies_the_doubling_recursion(self):
        u = _doubling_orbit(derive_stream(115), 5000, skip=0)
        doubled = (2.0 * u[:-1]) % 1.0
        assert np.max(np.abs(doubled - u[1:])) <= 2.0**-52

    def test_orbit_marginal_is_uniform(self):
        u = _doubling_orbit(derive_stream(116), 100000, skip=0)
        from blockboot.harness import ks_sample_vs_cdf

        assert ks_sample_vs_cdf(u, lambda t: np.clip(t, 0.0, 1.0)) < 0.01

    def test_pointwise_mean_within_clt_band(self):
        # the cosine link has exactly vanishing autocovariances along the
        # orbit, so the independent-case band applies
        cfg = ProcessConfig(kind="doubling-map-functional", seed=117)
        n = 100000
        s = generate_functional(cfg, n, GRID)
        mean = s.values.mean(axis=0)
        std = s.values.std(axis=0)
        assert np.all(np.abs(mean) <= 3.0 * std / math.sqrt(n))

    def test_values_are_a_smooth_link_of_the_orbit(self):
        cfg = ProcessConfig(kind="doubling-map-functional", seed=118, burn_in=7)
        s = generate_functional(cfg, 50, GRID)
        u = _doubling_orbit(derive_stream(118), 50, skip=7)
        scaled = (GRID - GRID[0]) / (GRID[-1] - GRID[0])
        expected = np.cos(2.0 * math.pi * u[:, None] + math.pi * scaled[None, :])
        assert np.array_equal(s.values, expected)
