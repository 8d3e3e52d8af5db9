import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockboot import (
    GridFunction,
    HilbertSample,
    inner_product,
    norm,
    read_sample,
    sample_mean,
    trapezoid_weights,
    write_sample,
)
from blockboot.exceptions import DomainMismatchError, EmptyInputError
from blockboot.rng import derive_stream


def uniform_space(d, lo=0.0, hi=1.0):
    grid = np.linspace(lo, hi, d)
    return grid, trapezoid_weights(grid)


def random_function(rng, grid, weights):
    return GridFunction(grid, rng.standard_normal(grid.size), weights)


class TestTrapezoidWeights:
    def test_uniform_grid_total_mass(self):
        grid, w = uniform_space(101)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)

    def test_single_point_uses_unit_cell(self):
        assert trapezoid_weights([3.0], [2.5]) == pytest.approx([2.5])

    def test_nonuniform_grid_matches_numpy_trapezoid(self):
        rng = derive_stream(5)
        grid = np.sort(rng.uniform(0, 1, 40))
        f = rng.standard_normal(40)
        w = trapezoid_weights(grid)
        assert np.sum(f * w) == pytest.approx(np.trapezoid(f, grid), rel=1e-12)


class TestInnerProduct:
    def test_constant_function_integral(self):
        grid, w = uniform_space(101)
        one = GridFunction(grid, np.ones(101), w)
        assert inner_product(one, one) == pytest.approx(1.0, abs=1e-12)

    def test_odd_function_integrates_to_zero(self):
        grid, w = uniform_space(1001)
        f = GridFunction(grid, grid - 0.5, w)
        one = GridFunction(grid, np.ones(1001), w)
        assert inner_product(f, one) == pytest.approx(0.0, abs=1e-12)

    def test_cubic_moment_converges_to_analytic_integral(self):
        # oracle: integral of t**3 over [0, 1] is exactly 1/4
        errors = []
        for d in (11, 101, 1001, 10001):
            grid, w = uniform_space(d)
            f = GridFunction(grid, grid, w)
            g = GridFunction(grid, grid**2, w)
            errors.append(abs(inner_product(f, g) - 0.25))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-7

    def test_symmetry_is_exact(self):
        rng = derive_stream(17)
        grid, w = uniform_space(257)
        for _ in range(50):
            f = random_function(rng, grid, w)
            g = random_function(rng, grid, w)
            assert inner_product(f, g) == inner_product(g, f)

    def test_bilinearity(self):
        rng = derive_stream(18)
        grid, w = uniform_space(129)
        for _ in range(25):
            f = random_function(rng, grid, w)
            g = random_function(rng, grid, w)
            h = random_function(rng, grid, w)
            a, b = rng.uniform(-3, 3, 2)
            combo = GridFunction(grid, a * f.values + b * g.values, w)
            lhs = inner_product(combo, h)
            rhs = a * inner_product(f, h) + b * inner_product(g, h)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_mismatched_grids_raise(self):
        g1, w1 = uniform_space(10)
        g2, w2 = uniform_space(10, 0.0, 2.0)
        f = GridFunction(g1, np.ones(10), w1)
        g = GridFunction(g2, np.ones(10), w2)
        with pytest.raises(DomainMismatchError):
            inner_product(f, g)


class TestNorm:
    def test_zero_function(self):
        grid, w = uniform_space(33)
        assert norm(GridFunction(grid, np.zeros(33), w)) == 0.0

    def test_unit_constant(self):
        grid, w = uniform_space(201)
        assert norm(GridFunction(grid, np.ones(201), w)) == pytest.approx(1.0, abs=1e-12)

    def test_identity_function_matches_analytic_value(self):
        grid, w = uniform_space(10001)
        f = GridFunction(grid, grid, w)
        assert norm(f) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-6)

    def test_zero_norm_iff_zero_on_positive_weights(self):
        grid = np.arange(4.0)
        weights = np.array([1.0, 0.0, 1.0, 0.0])
        hidden = GridFunction(grid, np.array([0.0, 5.0, 0.0, -2.0]), weights)
        assert norm(hidden) == 0.0
        visible = GridFunction(grid, np.array([0.0, 0.0, 1e-8, 0.0]), weights)
        assert norm(visible) > 0.0


class TestSampleMean:
    def test_identical_elements_average_to_themselves(self):
        grid, w = uniform_space(17)
        rng = derive_stream(19)
        f = random_function(rng, grid, w)
        s = HilbertSample(grid, w, np.tile(f.values, (4, 1)))
        assert np.array_equal(sample_mean(s).values, f.values)

    def test_opposite_elements_cancel(self):
        grid, w = uniform_space(17)
        f = np.sin(grid * 3.0)
        s = HilbertSample(grid, w, np.stack([f, -f]))
        assert np.all(sample_mean(s).values == 0.0)

    def test_scalar_arithmetic_mean(self):
        s = HilbertSample.from_scalars([1.0, 2.0, 3.0])
        assert sample_mean(s).values[0] == 2.0

    def test_concatenation_averages_the_means(self):
        rng = derive_stream(20)
        grid, w = uniform_space(9)
        a = rng.standard_normal((6, 9))
        b = rng.standard_normal((6, 9))
        mean_a = sample_mean(HilbertSample(grid, w, a)).values
        mean_b = sample_mean(HilbertSample(grid, w, b)).values
        joint = sample_mean(HilbertSample(grid, w, np.vstack([a, b]))).values
        assert joint == pytest.approx((mean_a + mean_b) / 2.0, abs=1e-14)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptyInputError):
            HilbertSample.from_scalars([])


class TestValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            GridFunction([0.0, 0.0], [1.0, 1.0], [0.5, 0.5])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            GridFunction([0.0, 1.0], [1.0, 1.0], [0.5, -0.5])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            GridFunction([0.0, 1.0], [1.0, 1.0], [0.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GridFunction([0.0, 1.0], [1.0], [0.5, 0.5])

    def test_sample_elements_must_share_space(self):
        # Every row of a sample is an element on the sample's own grid.
        with pytest.raises(ValueError, match="value rows must match the grid length"):
            HilbertSample([0.0, 1.0], [0.5, 0.5], np.ones((3, 3)))

    def test_values_are_immutable(self):
        f = GridFunction([0.0, 1.0], [1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            f.values[0] = 7.0


class TestCsvRoundTrip:
    def test_functional_sample_round_trips_bit_exactly(self, tmp_path):
        rng = derive_stream(21)
        grid = np.sort(rng.uniform(-2, 2, 12))
        pointwise = rng.uniform(0.1, 3.0, 12)
        # values across many magnitudes, including negative zero
        values = rng.standard_normal((8, 12)) * 10.0 ** rng.integers(-40, 40, (8, 12))
        values[0, 0] = -0.0
        sample = HilbertSample(grid, trapezoid_weights(grid, pointwise), values)
        data = tmp_path / "sample.csv"
        sidecar = tmp_path / "sample.grid.csv"
        write_sample(sample, str(data), str(sidecar), pointwise_w=pointwise)
        loaded = read_sample(str(data), str(sidecar))
        assert loaded.values.tobytes() == sample.values.tobytes()
        assert loaded.grid.tobytes() == sample.grid.tobytes()
        assert loaded.weights.tobytes() == sample.weights.tobytes()

    def test_scalar_sample_needs_no_sidecar(self, tmp_path):
        sample = HilbertSample.from_scalars([0.1, -2.5, 3e-7])
        data = tmp_path / "scalar.csv"
        write_sample(sample, str(data))
        loaded = read_sample(str(data))
        assert loaded.values.tobytes() == sample.values.tobytes()
        assert loaded.d == 1 and loaded.weights[0] == 1.0

    def test_sidecar_is_discovered_by_default(self, tmp_path):
        grid = np.linspace(0, 1, 5)
        sample = HilbertSample(grid, trapezoid_weights(grid), np.ones((3, 5)))
        data = tmp_path / "f.csv"
        write_sample(sample, str(data))
        loaded = read_sample(str(data))
        assert loaded.weights.tobytes() == sample.weights.tobytes()

    def test_weights_the_sidecar_cannot_rebuild_are_refused(self, tmp_path):
        # Without pointwise_w the sidecar would record weight 1 and read back
        # other weights; nothing is written.
        grid = np.linspace(0, 1, 5)
        pointwise = [1.0, 2.0, 3.0, 4.0, 5.0]
        functional = HilbertSample(grid, trapezoid_weights(grid, pointwise), np.ones((3, 5)))
        scalar = HilbertSample([0.0], [2.0], np.ones((3, 1)))
        for name, sample, w in [("f", functional, pointwise), ("s", scalar, [2.0])]:
            root = tmp_path / name
            root.mkdir()
            with pytest.raises(ValueError, match="does not rebuild the sample's weights"):
                write_sample(sample, str(root / "data.csv"))
            assert list(root.iterdir()) == []
            write_sample(sample, str(root / "data.csv"), pointwise_w=w)
            loaded = read_sample(str(root / "data.csv"))
            assert loaded.weights.tobytes() == sample.weights.tobytes()


class TestCsvReader:
    def test_sidecar_errors_name_the_sidecar(self, tmp_path):
        data, sidecar = tmp_path / "f.csv", tmp_path / "f.csv.grid.csv"
        data.write_text("1,2\n3,4\n")
        sidecar.write_text("grid,w\n\n0.5,1\n  \n2,1\n")
        assert read_sample(str(data)).grid.tolist() == [0.5, 2.0]
        sidecar.write_text("grid,w\n0,1\n1\n")
        with pytest.raises(ValueError, match="the number of columns changed") as info:
            read_sample(str(data))
        assert str(info.value).startswith(f"{sidecar}: ")
        sidecar.write_text("grid,w\n \n")
        with pytest.raises(EmptyInputError, match="no data rows") as info:
            read_sample(str(data))
        assert str(info.value).startswith(f"{sidecar}: ")


BLANKS = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def csv_cells(draw):
    """A finite double as ``repr``, ``%.17g`` or ``%.5e`` writes it, or an
    integer; maybe with a leading ``+``, and with blanks around it."""
    if draw(st.booleans()):
        text = str(draw(st.integers(-10**25, 10**25)))
    else:
        value = draw(st.floats(allow_nan=False, allow_infinity=False))
        text = draw(st.sampled_from(["{!r}", "{:.17g}", "{:.5e}"])).format(value)
    if not text.startswith("-") and draw(st.booleans()):
        text = "+" + text
    return draw(BLANKS) + text + draw(BLANKS)


@st.composite
def csv_text(draw, rows):
    """The rows of cells as CSV lines, with blank and whitespace-only lines mixed in."""
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(BLANKS))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def cell_rows(d):
    return st.lists(st.lists(csv_cells(), min_size=d, max_size=d), min_size=1, max_size=6)


def read_csv_text(text):
    """The path of a file holding ``text``, what ``read_sample`` returned or
    raised as a ``ValueError``, and the warnings it gave."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "data.csv")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = read_sample(path)
            except ValueError as exc:
                result = exc
    return path, result, caught


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(1, 4))
def test_reader_parses_each_cell_as_float_does(data, d):
    rows = data.draw(cell_rows(d))
    path, sample, caught = read_csv_text(data.draw(csv_text(rows)))
    expected = np.array([[float(cell) for cell in row] for row in rows])
    assert isinstance(sample, HilbertSample), sample
    assert sample.values.tobytes() == expected.tobytes()
    assert caught == []


@settings(max_examples=200, deadline=None)
@given(data=st.data(), fault=st.sampled_from(["ragged", "abc", "", "1_0"]))
def test_reader_errors_start_with_the_path(data, fault):
    # An empty cell in a one-column row would make a blank line, which is skipped.
    d = data.draw(st.integers(2 if fault == "" else 1, 4))
    rows = data.draw(cell_rows(d))
    if fault == "ragged":
        width = data.draw(st.integers(1, d + 2).filter(lambda w: w != d))
        rows.insert(data.draw(st.integers(0, len(rows))), [data.draw(csv_cells())] * width)
    else:
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, d - 1))
        rows[i][j] = data.draw(BLANKS) + fault + data.draw(BLANKS)
    path, error, caught = read_csv_text(data.draw(csv_text(rows)))
    assert type(error) is ValueError and str(error).startswith(f"{path}: "), error
    assert caught == []


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(BLANKS, max_size=5), end=st.sampled_from(["", "\n"]))
def test_reader_refuses_files_without_data_rows(lines, end):
    path, error, caught = read_csv_text("\n".join(lines) + end)
    assert isinstance(error, EmptyInputError) and str(error) == f"{path}: no data rows"
    assert caught == []
