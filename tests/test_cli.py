import contextlib
import io
import json
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import blockboot.harness as harness
from blockboot.cli import main
from blockboot.hilbert import HilbertSample, trapezoid_weights
from blockboot.io import read_sample, write_sample
from child_env import child_env


PROCESS_INI = """\
[process]
schema = 1
kind = ar1-real
phi = 0.5
innovation = gaussian
seed = 42
"""

FUNCTIONAL_INI = """\
[process]
schema = 1
kind = ar1-functional
phi = 0.4
seed = 43
basis_size = 4

[grid]
points = 12
lo = 0.0
hi = 1.0
"""

EXPERIMENT_INI = """\
[experiment]
schema = 1
statistic = mean-norm
n = 120
replicates = 80
replications = 25
level = 0.10
master_seed = 777
block_length = 5

[process]
kind = iid
innovation = gaussian
"""


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def process_file(tmp_path):
    path = tmp_path / "proc.ini"
    path.write_text(PROCESS_INI)
    return str(path)


@pytest.fixture
def data_file(tmp_path, process_file):
    out = tmp_path / "data.csv"
    assert run_cli("generate", "--config", process_file, "--n", "200",
                   "--out", str(out)) == 0
    return str(out)


class TestGenerate:
    def test_scalar_generation_round_trips(self, tmp_path, process_file, data_file):
        sample = read_sample(data_file)
        assert sample.n == 200 and sample.d == 1
        again = tmp_path / "again.csv"
        assert run_cli("generate", "--config", process_file, "--n", "200",
                       "--out", str(again)) == 0
        assert (tmp_path / "data.csv").read_bytes() == again.read_bytes()

    def test_functional_generation_writes_sidecar(self, tmp_path):
        config = tmp_path / "fun.ini"
        config.write_text(FUNCTIONAL_INI)
        out = tmp_path / "fun.csv"
        assert run_cli("generate", "--config", config.as_posix(), "--n", "30",
                       "--out", str(out)) == 0
        sample = read_sample(str(out))
        assert sample.n == 30 and sample.d == 12

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[process]\nschema = 1\nkind = nosuch\n")
        code = run_cli("generate", "--config", str(config), "--n", "5",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        config = tmp_path / "typo.ini"
        config.write_text("[process]\nschema = 1\nkind = iid\nphii = 0.5\n")
        assert run_cli("generate", "--config", str(config), "--n", "5",
                       "--out", str(tmp_path / "x.csv")) == 2


class TestBootstrapCommand:
    def test_report_structure_and_determinism(self, tmp_path, data_file):
        out1 = tmp_path / "b1.json"
        out2 = tmp_path / "b2.json"
        args = ["bootstrap", "--data", data_file, "--block-length", "5",
                "--replicates", "200", "--seed", "7"]
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["plan"] == {"n": 200, "p": 5, "k": 40, "kp": 200,
                                   "dyadic_freeze": False}
        assert payload["replicates"]["count"] == 200
        assert set(payload["replicates"]["quantiles"]) == {"0.5", "0.9", "0.95", "0.99"}

    def test_discard_warning(self, tmp_path, data_file, capsys):
        out = tmp_path / "b.json"
        assert run_cli("bootstrap", "--data", data_file, "--block-length", "7",
                       "--replicates", "10", "--out", str(out)) == 0
        assert "discarding the trailing 4" in capsys.readouterr().err

    def test_lrv_statistic_and_raw_output(self, tmp_path, data_file):
        out = tmp_path / "lrv.json"
        raw = tmp_path / "raw.csv"
        assert run_cli("bootstrap", "--data", data_file, "--statistic", "lrv",
                       "--block-length", "5", "--replicates", "50",
                       "--out", str(out), "--raw-out", str(raw)) == 0
        payload = json.loads(out.read_text())
        assert payload["sample_estimate"] > 0.0
        lines = raw.read_text().strip().splitlines()
        assert lines[0] == "replicate,value" and len(lines) == 51

    def test_auto_schedule_default(self, tmp_path, data_file):
        out = tmp_path / "auto.json"
        assert run_cli("bootstrap", "--data", data_file, "--replicates", "10",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["plan"]["p"] == 5  # floor(200**(1/3))


class TestTestCommands:
    def test_cvm_test_report(self, tmp_path, data_file):
        out = tmp_path / "cvm.json"
        code = run_cli("cvm-test", "--data", data_file, "--dist", "normal:0,1.1547",
                       "--block-length", "5", "--replicates", "150",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["decision"] in ("reject", "fail-to-reject")
        assert 0.0 < payload["p_value"] <= 1.0
        assert payload["null"] == "normal:0.0,1.1547"

    def test_vstat_test_report(self, tmp_path, data_file):
        out = tmp_path / "vs.json"
        code = run_cli("vstat-test", "--data", data_file, "--kernel", "gaussian:1.0",
                       "--block-length", "5", "--replicates", "150",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kernel"] == "gaussian:1.0"
        assert payload["degeneracy_diagnostic"] >= 0.0

    def test_two_sample_command(self, tmp_path, process_file, data_file):
        other = tmp_path / "other.csv"
        config2 = tmp_path / "proc2.ini"
        config2.write_text(PROCESS_INI.replace("seed = 42", "seed = 52"))
        assert run_cli("generate", "--config", str(config2), "--n", "200",
                       "--out", str(other)) == 0
        out = tmp_path / "two.json"
        code = run_cli("two-sample", "--data-x", data_file, "--data-y", str(other),
                       "--block-length", "5", "--replicates", "150",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "two-sample"

    def test_unequal_lengths_exit_2(self, tmp_path, process_file, data_file):
        short = tmp_path / "short.csv"
        assert run_cli("generate", "--config", process_file, "--n", "100",
                       "--out", str(short)) == 0
        assert run_cli("two-sample", "--data-x", data_file, "--data-y", str(short),
                       "--out", str(tmp_path / "t.json")) == 2


class TestUnallocatableReplicates:
    @pytest.mark.parametrize("command", ["bootstrap", "cvm-test", "vstat-test", "two-sample"])
    def test_exits_2_with_one_error_line(self, tmp_path, data_file, command, capsys):
        data = ["--data-x", data_file, "--data-y", data_file] if command == "two-sample" \
            else ["--data", data_file]
        out = tmp_path / "out.json"
        code = run_cli(command, *data, "--block-length", "5",
                       "--replicates", "1000000000000", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "1000000000000" in err[0]
        assert not out.exists()


class TestNonFiniteParameters:
    @pytest.mark.parametrize("command, flag, token, name", [
        ("vstat-test", "--kernel", "gaussian:inf", "bandwidth"),
        ("vstat-test", "--kernel", "gaussian:1e-320", "bandwidth"),
        ("vstat-test", "--kernel", "cvm:normal:0,inf", "normal scale"),
        ("vstat-test", "--kernel", "cvm:uniform:0,inf", "uniform endpoints"),
        ("cvm-test", "--dist", "normal:0,inf", "normal scale"),
        ("cvm-test", "--dist", "normal:inf,1", "normal location"),
        ("cvm-test", "--dist", "t:5,inf", "student-t scale"),
        ("cvm-test", "--dist", "uniform:0,inf", "uniform endpoints"),
        ("cvm-test", "--dist", "uniform:-1e308,1e308", "uniform endpoints"),
    ])
    def test_exits_2_with_one_error_line(self, tmp_path, data_file, command, flag, token,
                                         name, capsys):
        out = tmp_path / "out.json"
        code = run_cli(command, "--data", data_file, flag, token, "--replicates", "20",
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and name in err[0]
        assert not out.exists()

    def test_student_t_normal_limit_is_accepted(self, tmp_path, data_file):
        out = tmp_path / "out.json"
        assert run_cli("cvm-test", "--data", data_file, "--dist", "t:inf",
                       "--replicates", "20", "--out", str(out)) == 0

    @pytest.mark.parametrize("statistic, extra", [
        ("vstat:cvm:normal:0,inf", ""),
        ("cvm", "null = normal:0,inf\n"),
    ])
    def test_montecarlo_exits_2_before_any_replication(self, tmp_path, monkeypatch, capsys,
                                                        statistic, extra):
        def replicate(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "_safe_replicate", replicate)
        config = tmp_path / "exp.ini"
        config.write_text(EXPERIMENT_INI.replace("mean-norm", statistic)
                          .replace("[process]", extra + "\n[process]"))
        out = tmp_path / "mc"
        assert run_cli("montecarlo", "--config", str(config), "--out", str(out)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "normal scale" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("line", ["phi = nan", "t_df = inf", "coefficients = 1, nan"])
    def test_montecarlo_non_finite_process_value_exits_2_at_load(self, tmp_path, monkeypatch,
                                                                 capsys, line):
        def replicate(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "_safe_replicate", replicate)
        config = tmp_path / "exp.ini"
        config.write_text(EXPERIMENT_INI + line + "\n")
        out = tmp_path / "mc"
        assert run_cli("montecarlo", "--config", str(config), "--out", str(out)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: phi, t_df and coefficients must be finite")
        assert not out.exists()


class TestMonteCarloCommand:
    def test_outputs_and_determinism(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(EXPERIMENT_INI)
        out1 = tmp_path / "mc1"
        out2 = tmp_path / "mc2"
        assert run_cli("montecarlo", "--config", str(config), "--out", str(out1)) == 0
        assert run_cli("montecarlo", "--config", str(config), "--out", str(out2)) == 0
        for name in ("report.json", "records.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        report = json.loads((out1 / "report.json").read_text())
        assert report["schema"] == 1
        assert report["plan"]["p"] == 5
        assert report["config"]["master_seed"] == 777

    def test_missing_schema_exits_2(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[experiment]\nstatistic = mean-norm\n")
        assert run_cli("montecarlo", "--config", str(config),
                       "--out", str(tmp_path / "mc")) == 2

    def test_failure_policy_breach_exits_3(self, tmp_path, monkeypatch):
        original = harness._mean_replication

        def flaky(cfg, plan, r):
            if r % 10 == 0:
                raise RuntimeError("synthetic fault")
            return original(cfg, plan, r)

        monkeypatch.setattr(harness, "_mean_replication", flaky)
        config = tmp_path / "exp.ini"
        config.write_text(EXPERIMENT_INI)
        code = run_cli("montecarlo", "--config", str(config),
                       "--out", str(tmp_path / "mc"))
        assert code == 3

    def test_broken_worker_pool_exits_4(self, tmp_path, monkeypatch, capsys):
        import blockboot.cli as cli

        def broken(cfg, workers=1):
            raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(cli, "run_experiment", broken)
        config = tmp_path / "exp.ini"
        config.write_text(EXPERIMENT_INI)
        code = run_cli("montecarlo", "--config", str(config),
                       "--out", str(tmp_path / "mc"), "--workers", "2")
        assert code == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_non_finite_mean_shift_exits_2_before_any_work(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text(EXPERIMENT_INI.replace("mean-norm", "two-sample-mean")
                          .replace("[process]", "mean_shift = inf\n\n[process]"))
        out = tmp_path / "mc"
        assert run_cli("montecarlo", "--config", str(config), "--out", str(out)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    def test_records_csv_matches_report_counts(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(EXPERIMENT_INI)
        out = tmp_path / "mc"
        assert run_cli("montecarlo", "--config", str(config), "--out", str(out)) == 0
        records = (out / "records.csv").read_text().strip().splitlines()
        report = json.loads((out / "report.json").read_text())
        assert len(records) - 1 == report["replications"] == 25


class TestInstalledEntryPoint:
    def test_module_invocation_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "blockboot.cli", "--version"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert "blockboot" in proc.stdout

    # Every count evaluator: lrv, the block-mean deviations (mean-norm and
    # two-sample), the CvM Gram, the feature map (product), the kernel mesh
    # (gaussian) and the max profile (cvm:normal).
    @pytest.mark.parametrize("argv", [
        ["bootstrap", "--statistic", "lrv", "--raw-out", "raw.csv"],
        ["bootstrap", "--statistic", "mean-norm"],
        ["cvm-test", "--dist", "normal:0,1.1547"],
        ["two-sample"],
        ["vstat-test", "--kernel", "product"],
        ["vstat-test", "--kernel", "gaussian:1.0"],
        ["vstat-test", "--kernel", "cvm:normal"],
    ], ids=["lrv", "mean-norm", "cvm-test", "two-sample", "product", "gaussian", "cvm"])
    def test_output_is_independent_of_thread_count(self, tmp_path, data_file, argv):
        def generate(name, ini):
            (tmp_path / f"{name}.ini").write_text(ini)
            assert run_cli("generate", "--config", str(tmp_path / f"{name}.ini"), "--n", "200",
                           "--out", str(tmp_path / f"{name}.csv")) == 0
            return str(tmp_path / f"{name}.csv")

        inputs = [[data_file]]
        if argv[0] in ("bootstrap", "two-sample"):
            inputs.append([generate("fun", FUNCTIONAL_INI)])
        if argv[0] == "two-sample":
            inputs[0].append(generate("other", PROCESS_INI.replace("seed = 42", "seed = 44")))
            inputs[1].append(generate("fun-other",
                                      FUNCTIONAL_INI.replace("seed = 43", "seed = 45")))
        for data in inputs:
            flags = (["--data", *data] if len(data) == 1
                     else ["--data-x", data[0], "--data-y", data[1]])
            outputs = {}
            for threads in ("1", "4"):
                out_dir = tmp_path / f"threads-{threads}"
                out_dir.mkdir(exist_ok=True)
                proc = subprocess.run(
                    [sys.executable, "-m", "blockboot.cli", *argv, *flags,
                     "--block-length", "5", "--replicates", "300", "--seed", "9",
                     "--out", "out.json"],
                    capture_output=True, text=True, cwd=out_dir,
                    env=child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads))
                assert proc.returncode == 0, proc.stderr
                outputs[threads] = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
            assert outputs["1"] == outputs["4"]


    # scipy.special is loaded by the law that needs it (Student t) when it is
    # built, never by an import of the package; the normal law and the
    # chi-square reference of montecarlo's vstat:product are written out.
    @pytest.mark.parametrize("argv, loaded", [
        (["bootstrap"], False),
        (["cvm-test", "--dist", "uniform:-4,4"], False),
        (["vstat-test", "--kernel", "product"], False),
        (["cvm-test", "--dist", "normal"], False),
        (["vstat-test", "--kernel", "cvm:normal"], False),
        (["cvm-test", "--dist", "t:5"], True),
    ], ids=["bootstrap", "cvm-uniform", "vstat-product", "cvm-normal", "vstat-cvm-normal",
            "cvm-t"])
    def test_only_the_laws_that_need_it_load_scipy_special(self, tmp_path, data_file, argv,
                                                           loaded):
        code = ("import sys\nfrom blockboot.cli import main\n"
                "code = main(sys.argv[1:])\nprint(code, 'scipy.special' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, *argv, "--data", data_file,
                               "--replicates", "50", "--out", str(tmp_path / "out.json")],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", str(loaded)]

    @pytest.mark.parametrize("statistic, extra, loaded", [
        ("vstat:product", "", False),
        ("cvm", "null = t:5\n", True),
    ], ids=["vstat-product", "cvm-t"])
    def test_montecarlo_loads_scipy_special_only_for_a_student_t_law(self, tmp_path, statistic,
                                                                     extra, loaded):
        config = tmp_path / "exp.ini"
        config.write_text(EXPERIMENT_INI.replace("mean-norm", statistic)
                          .replace("[process]", extra + "\n[process]"))
        code = ("import sys\nfrom blockboot.cli import main\n"
                "code = main(sys.argv[1:])\nprint(code, 'scipy.special' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, "montecarlo", "--config", str(config),
                               "--out", str(tmp_path / "mc")],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", str(loaded)]
        aggregates = json.loads((tmp_path / "mc" / "report.json").read_text())["aggregates"]
        assert aggregates.get("reference") == ("chi2:1" if statistic == "vstat:product" else None)

# Flag values of each flag's own type, including non-finite, negative, zero,
# tiny, huge and out-of-range ones.
FUZZ_N = 40
FUZZ_FLOATS = ["nan", "inf", "-inf", "0", "1", "-0.5", "1e-300", "1e308", "0.05"]
FUZZ_FLAGS = {
    "--level": FUZZ_FLOATS,
    "--exponent": FUZZ_FLOATS,
    "--replicates": ["-1", "0", "1", "20"],
    "--seed": ["-1", "0", str(2**64 - 1), str(2**64)],
    "--block-length": ["auto", "0", "-3", "1", str(FUZZ_N), str(FUZZ_N + 1)],
    "--kernel": ["product", "gaussian:1.0", "gaussian:inf", "gaussian:1e-320", "cvm:normal",
                 "cvm:normal:0,inf", "cvm:uniform:0,inf"],
    "--dist": ["normal", "uniform:0,1", "t:5", "t:inf", "normal:0,inf", "normal:inf,1",
               "t:5,inf", "uniform:0,inf"],
    "--statistic": ["mean-norm", "lrv"],
}
FUZZ_COMMANDS = {
    "bootstrap": ("--exponent", "--replicates", "--seed", "--block-length", "--statistic"),
    "cvm-test": ("--level", "--exponent", "--replicates", "--seed", "--block-length", "--dist"),
    "vstat-test": ("--level", "--exponent", "--replicates", "--seed", "--block-length",
                   "--kernel"),
    "two-sample": ("--level", "--exponent", "--replicates", "--seed", "--block-length"),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A 40-row scalar series and a 40 x 3 functional series, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    values = np.random.default_rng(8).standard_normal((FUZZ_N, 3))
    paths = []
    grid = np.linspace(0, 1, 3)
    for name, sample in (("scalar.csv", HilbertSample.from_scalars(values[:, 0])),
                         ("functional.csv", HilbertSample(grid, trapezoid_weights(grid),
                                                          values))):
        write_sample(sample, str(root / name))
        paths.append(str(root / name))
    return root, paths


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzzed_flags_exit_0_or_2_with_one_error_line(fuzz_files, command, data):
    root, paths = fuzz_files
    argv = [command]
    for flag in ("--data-x", "--data-y") if command == "two-sample" else ("--data",):
        argv += [flag, data.draw(st.sampled_from(paths), label=flag)]
    for flag in FUZZ_COMMANDS[command]:
        value = data.draw(st.none() | st.sampled_from(FUZZ_FLAGS[flag]), label=flag)
        if value is not None:
            argv.append(f"{flag}={value}")
    if data.draw(st.booleans(), label="--freeze-dyadic"):
        argv.append("--freeze-dyadic")
    out = root / "out.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
    assert out.exists() == (code == 0)


# Generated CSV inputs: n <= 64 rows of one or two finite values each, then up
# to three faults: a cell replaced by an awkward token, a cell added or
# dropped (a ragged row), or a blank line inserted.  The block length divides
# the rows read, so a successful run has no trailing observations to warn about.
CSV_TOKENS = ["nan", "inf", "-inf", "1e308", "-1e308", "abc", ""]
CSV_FLAGS = {
    "bootstrap": ["--statistic=mean-norm", "--statistic=lrv"],
    "cvm-test": ["--dist=normal", "--dist=uniform:-3,3"],
    "vstat-test": ["--kernel=product", "--kernel=gaussian:1.0", "--kernel=cvm:normal"],
    "two-sample": ["--level=0.1"],
}


def draw_csv(data, n, width, label) -> list[list[str]]:
    rows = [[repr(v) for v in data.draw(st.lists(st.floats(-1e3, 1e3), min_size=width,
                                                 max_size=width), label=f"{label} row")]
            for _ in range(n)]
    fault = st.tuples(st.integers(0, n - 1),
                      st.sampled_from(["add", "drop", "blank"]) | st.sampled_from(CSV_TOKENS))
    for row, kind in data.draw(st.lists(fault, max_size=3), label=f"{label} faults"):
        if kind == "add":
            rows[row].append("1.0")
        elif kind == "drop":
            rows[row] = rows[row][:-1]
        elif kind == "blank":
            rows.insert(row, [])
        else:
            rows[row][:1] = [kind]
    return rows


@pytest.mark.parametrize("command", sorted(CSV_FLAGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_csv_inputs_exit_0_2_3_or_4_with_one_error_line(tmp_path_factory, command,
                                                                  data):
    root = tmp_path_factory.mktemp("csv")
    n = data.draw(st.integers(1, 64), label="n")
    width = data.draw(st.sampled_from([1, 1, 2]), label="width")
    argv = [command]
    for flag in ("--data-x", "--data-y") if command == "two-sample" else ("--data",):
        rows = draw_csv(data, n, width, flag)
        path = root / f"{flag[2:]}.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        argv.append(f"{flag}={path}")
    read = max(1, sum(map(any, rows)))  # the rows a parse would read
    p = data.draw(st.sampled_from([d for d in range(1, read + 1) if read % d == 0]), label="p")
    B = data.draw(st.integers(1, 20), label="B")
    argv += [f"--block-length={p}", f"--replicates={B}",
             data.draw(st.sampled_from(CSV_FLAGS[command]), label="flag")]
    out = root / "out.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(out)])
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    assert not caught
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        assert err.getvalue() == ""
        strict_json(out.read_text())
    assert out.exists() == (code == 0)


def strict_json(text: str):
    """``json.loads`` that rejects the ``NaN`` and ``Infinity`` extensions."""
    def reject(constant):
        raise ValueError(f"non-finite JSON value {constant}")

    return json.loads(text, parse_constant=reject)


# Finite data whose block means overflow ("blocks"), whose products with the
# degeneracy probes do ("alternating"), or whose finite replicates overflow
# the report's mean ("mean"); each command's expected exit.
WIDE_CSV = {
    "blocks": "1e308\n1e308\n-1e308\n-1e308\n1\n2\n",
    "alternating": "1e308\n-1e308\n1e308\n-1e308\n1\n2\n",
    "mean": "0.45e154\n0.45e154\n-0.45e154\n-0.45e154\n",
}


@pytest.mark.parametrize("data, command, flag, expected", [
    ("blocks", "bootstrap", "--statistic=mean-norm", 2),
    ("blocks", "bootstrap", "--statistic=lrv", 2),
    ("blocks", "two-sample", "--level=0.05", 2),
    ("blocks", "vstat-test", "--kernel=product", 2),
    ("blocks", "vstat-test", "--kernel=gaussian:1", 0),
    ("blocks", "cvm-test", "--dist=normal", 0),
    ("alternating", "bootstrap", "--statistic=mean-norm", 0),
    ("alternating", "bootstrap", "--statistic=lrv", 0),
    ("alternating", "two-sample", "--level=0.05", 0),
    ("alternating", "vstat-test", "--kernel=product", 2),
    ("alternating", "vstat-test", "--kernel=cvm:normal", 0),
    ("mean", "bootstrap", "--statistic=lrv", 2),
])
def test_data_near_the_float_range_exit_without_warnings(tmp_path, capsys, data, command, flag,
                                                          expected):
    path = tmp_path / "wide.csv"
    path.write_text(WIDE_CSV[data])
    out = tmp_path / "out.json"
    inputs = ["--data-x", str(path), "--data-y", str(path)] if command == "two-sample" \
        else ["--data", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(command, *inputs, flag, "--block-length", "2", "--replicates", "20",
                       "--out", str(out))
    err = capsys.readouterr().err.splitlines()
    assert code == expected
    if code:
        assert len(err) == 1 and err[0].startswith("error:") and not out.exists()
    else:
        assert err == [] and strict_json(out.read_text())["command"] == command


class TestLiteralValues:
    """INI values are read literally: a ``%`` is an ordinary character."""

    @pytest.mark.parametrize("command, text, message", [
        ("montecarlo", EXPERIMENT_INI.replace("level = 0.10", "level = 10%"),
         "bad value for 'level': '10%'"),
        ("generate", PROCESS_INI.replace("innovation = gaussian", "innovation = %(x)s"),
         "unknown innovation '%(x)s'"),
    ])
    def test_percent_values_exit_2_with_one_error_line(self, tmp_path, capsys, command, text,
                                                        message):
        config = tmp_path / "percent.ini"
        config.write_text(text)
        out = tmp_path / "out"
        extra = ["--n", "20"] if command == "generate" else []
        assert run_cli(command, "--config", str(config), *extra, "--out", str(out)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {message}"]
        assert not out.exists()


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=30))
def test_degeneracy_probes_stay_in_range_without_warnings(values):
    from blockboot.cli import _degeneracy_probes

    x = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probes = _degeneracy_probes(x)
    assert np.all((probes >= x.min()) & (probes <= x.max()))
    with np.errstate(over="ignore"):
        finite_range = np.isfinite(x.max() - x.min())
    if finite_range:  # the expression the probes had before overflow was handled
        assert np.array_equal(probes, np.unique(np.quantile(x, np.linspace(0.05, 0.95, 19))))


def test_vstat_test_on_data_spanning_the_float_range_writes_no_warning(tmp_path, capsys):
    data = tmp_path / "wide.csv"
    data.write_text("1e308\n-1e308\n")
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("vstat-test", "--data", str(data), "--kernel", "cvm:normal",
                       "--block-length", "1", "--replicates", "20", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["degeneracy_diagnostic"] >= 0


@pytest.mark.parametrize("command, text", [("generate", PROCESS_INI),
                                           ("montecarlo", EXPERIMENT_INI)],
                         ids=["generate", "montecarlo"])
def test_default_section_exits_2_with_one_error_line(tmp_path, capsys, command, text):
    # configparser would merge [DEFAULT] into every section, so phi = 0.9
    # would silently reach [process].
    config = tmp_path / "default.ini"
    config.write_text("[DEFAULT]\nphi = 0.9\n\n" + text)
    out = tmp_path / "out"
    extra = ["--n", "20"] if command == "generate" else []
    assert run_cli(command, "--config", str(config), *extra, "--out", str(out)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "DEFAULT" in err[0]
    assert not out.exists()


# A setting of [process] that its kind does not read, one per key.
IGNORED_SETTINGS = [("iid", "phi = 0.5"), ("ar1-real", "coefficients = 1, 0.5"),
                    ("ar1-real", "basis_size = 4"), ("iid", "burn_in = 10"),
                    ("linear-real", "burn_in = 10"), ("doubling-map-functional", "innovation = gaussian")]


@pytest.mark.parametrize("command, text, message", [
    ("generate", PROCESS_INI.replace("kind = ar1-real\n", ""), "[process] needs a 'kind'"),
    ("montecarlo", EXPERIMENT_INI.replace("kind = iid\n", ""), "[process] needs a 'kind'"),
    ("montecarlo", EXPERIMENT_INI.replace("statistic = mean-norm", "statistic = two-sample-mean")
     + "\n[process_y]\ninnovation = uniform\n", "[process_y] needs a 'kind'"),
    ("generate", FUNCTIONAL_INI.replace("points = 12\n", ""), "[grid] needs 'points'"),
    *[("montecarlo", "".join(line for line in EXPERIMENT_INI.splitlines(keepends=True)
                             if not line.startswith(key + " ")), f"[experiment] needs {key!r}")
      for key in ("statistic", "n", "replicates", "replications", "level", "master_seed")],
    ("generate", None, "cannot read config file"),
    ("montecarlo", None, "cannot read config file"),
    *[("generate", f"[process]\nschema = 1\nkind = {kind}\n{setting}\n"
       + ("[grid]\npoints = 4\n" if kind.endswith("functional") else ""),
       f"[process] '{setting.split()[0]}' has no effect for kind '{kind}'")
      for kind, setting in IGNORED_SETTINGS],
    ("generate", PROCESS_INI + "t_df = 5\n",
     "[process] 't_df' has no effect without innovation = student-t"),
    ("montecarlo", EXPERIMENT_INI.replace("statistic = mean-norm", "statistic = two-sample-mean")
     + "\n[process_y]\nkind = iid\nburn_in = 10\n", "[process_y] 'burn_in' has no effect for kind 'iid'"),
    ("generate", "kind = iid\n", "malformed config file"),
    ("generate", PROCESS_INI + "burn_in\n", "malformed config file"),
    ("montecarlo", EXPERIMENT_INI + "[process]\n", "malformed config file"),
], ids=["generate-kind", "montecarlo-kind", "montecarlo-process_y-kind", "generate-points",
        "statistic", "n", "replicates", "replications", "level", "master_seed",
        *[f"{kind}-{setting.split()[0]}" for kind, setting in IGNORED_SETTINGS],
        "ar1-real-t_df", "montecarlo-process_y-iid-burn_in",
        "generate-unreadable", "montecarlo-unreadable", "generate-no-section-header",
        "generate-line-without-value", "montecarlo-duplicate-section"])
def test_config_file_errors_exit_2_with_one_error_line(tmp_path, capsys, command, text,
                                                       message):
    config = tmp_path / "config.ini"
    if text is not None:
        config.write_text(text)
    out = tmp_path / "out"
    extra = ["--n", "20"] if command == "generate" else []
    assert run_cli(command, "--config", str(config), *extra, "--out", str(out)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()


def test_unallocatable_input_exits_2_with_one_error_line(tmp_path, monkeypatch, process_file,
                                                         capsys):
    import blockboot.cli as cli

    def unallocatable(cfg, n):
        raise MemoryError(f"Unable to allocate an array for {n} observations")

    monkeypatch.setattr(cli, "generate_real", unallocatable)
    out = tmp_path / "huge.csv"
    assert run_cli("generate", "--config", process_file, "--n", "1000000000000",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "1000000000000" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("argv", [["vstat-test", "--kernel", "gaussian:1.0"],
                                  ["vstat-test", "--kernel", "cvm:normal"],
                                  ["cvm-test", "--dist", "normal"]],
                         ids=["mesh", "max-profile", "cvm-test"])
def test_block_pair_sums_beyond_physical_memory_exit_2_with_one_error_line(
        tmp_path, monkeypatch, data_file, capsys, argv):
    import blockboot.vmstat as vmstat

    # 200 observations in blocks of one: k = 200.
    need = vmstat.GRAM_ARRAYS * 8 * 200**2
    out = tmp_path / "out.json"
    argv = [*argv, "--data", data_file, "--block-length", "1", "--replicates", "20",
            "--out", str(out)]
    monkeypatch.setattr(vmstat, "_physical_memory", lambda: need - 1)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "k=200 blocks" in err[0]
    assert not out.exists()
    monkeypatch.setattr(vmstat, "_physical_memory", lambda: need)
    assert run_cli(*argv) == 0 and out.exists()

# Generated INI files: a file of each key's own tokens (some out of range),
# then up to three faults: a key dropped or set to a token of any type, a
# section dropped or an unknown one added.  Size keys take only small values
# of their own; no token below parses as a large integer.
INI_TOKENS = ["nan", "inf", "-inf", "-1", "0", "1e308", "", "abc", "%", "10%", " 7 ", "%(x)s",
              "2"]
TWO_SAMPLE_INI = (EXPERIMENT_INI.replace("mean-norm", "two-sample-mean")
                  + "\n[process_y]\nkind = iid\n")
INI_SIZES = {"n": 64, "replicates": 20, "replications": 3, "points": 16, "basis_size": 8,
             "burn_in": 50}
INI_VALUES = {
    "schema": ["1"],
    "kind": ["iid", "ar1-real", "linear-real", "ar1-functional", "doubling-map-functional"],
    "phi": ["0.5", "-0.3"],
    "coefficients": ["1.0, 0.5", "1"],
    "innovation": ["gaussian", "uniform", "student-t"],
    "t_df": ["6", "4"],
    "seed": ["3", str(2**64 - 1)],
    "lo": ["0.0", "-1"],
    "hi": ["1.0", "2"],
    "weight": ["1.0", "2"],
    "statistic": ["mean-norm", "two-sample-mean", "cvm", "vstat:product", "vstat:gaussian:1.0",
                  "vstat:cvm:normal", "mean"],
    "level": ["0.1", "0.05"],
    "master_seed": ["5", str(2**64 - 1)],
    "block_length": ["3", "8"],
    "exponent": ["0.33", "0.5"],
    "dyadic_freeze": ["true", "no", "maybe"],
    "mean_shift": ["0.5", "-2"],
    "null": ["auto", "normal", "uniform:0,1", "t:5", "nosuch"],
}
INI_KEYS = {
    "process": ["schema", "kind", "phi", "coefficients", "basis_size", "innovation", "t_df",
                "seed", "burn_in"],
    "grid": ["points", "lo", "hi", "weight"],
    "experiment": ["schema", "statistic", "n", "replicates", "replications", "level",
                   "master_seed", "block_length", "exponent", "dyadic_freeze", "mean_shift",
                   "null"],
}
INI_KEYS["process_y"] = INI_KEYS["process"]
INI_REQUIRED = {"schema", "kind", "points", "statistic", "n", "replicates", "replications",
                "level", "master_seed"}
INI_FILES = {
    "generate": ("process", "grid"),
    "montecarlo": ("experiment", "process", "process_y", "grid"),
}


def draw_ini(data, command) -> str:
    sections = {}
    for name in INI_FILES[command]:
        if name == "process_y" and not data.draw(st.booleans(), label=f"[{name}]"):
            continue
        sections[name] = {}
        for key in INI_KEYS[name]:
            if (command == "montecarlo" and name.startswith("process") and key in ("schema", "seed")
                    or key in ("exponent", "dyadic_freeze") and "block_length" in sections[name]):
                continue  # settings without effect; the faults below may still add them
            if key in INI_REQUIRED or data.draw(st.booleans(), label=f"{name}.{key}?"):
                value = (st.integers(1, INI_SIZES[key]).map(str) if key in INI_SIZES
                         else st.sampled_from(INI_VALUES[key]))
                sections[name][key] = data.draw(value, label=f"{name}.{key}")
    names = [*INI_FILES[command], "extra"]
    keys = sorted({key for section in INI_KEYS.values() for key in section} | {"phii"})
    fault = st.tuples(st.sampled_from(names), st.none() | st.sampled_from(keys),
                      st.none() | st.sampled_from(INI_TOKENS))
    for name, key, value in data.draw(st.lists(fault, max_size=3), label="faults"):
        if key is None:
            sections.pop(name, None)
        elif value is None:
            sections.get(name, {}).pop(key, None)
        else:
            sections.setdefault(name, {})[key] = value
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in lines.items())
                   for name, lines in sections.items())


@pytest.mark.parametrize("command", sorted(INI_FILES))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzzed_config_files_exit_0_2_or_3_with_one_error_line(tmp_path_factory, command, data):
    root = tmp_path_factory.mktemp("ini")
    config = root / "config.ini"
    config.write_text(draw_ini(data, command))
    out = root / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "generate":
        n = st.integers(1, INI_SIZES["n"]).map(str) | st.sampled_from(["-1", "0", "x"])
        argv.append(f"--n={data.draw(n, label='--n')}")
    elif data.draw(st.booleans(), label="--workers?"):
        argv.append(f"--workers={data.draw(st.sampled_from([-1, 0, 1]), label='--workers')}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
    assert out.exists() == (code in (0, 3))
    if code in (0, 3) and command == "montecarlo":
        strict_json((out / "report.json").read_text())


@pytest.mark.parametrize("command, text, message", [
    ("generate", PROCESS_INI + "\n[grid]\npoints = 5\n", "[grid] only applies"),
    ("montecarlo", EXPERIMENT_INI.replace("[process]", "null = t:3\n\n[process]"),
     "null only applies to cvm"),
    ("montecarlo", EXPERIMENT_INI + "schema = 1\n",
     "[process] 'schema' has no effect in an experiment file"),
    ("montecarlo", EXPERIMENT_INI + "seed = 99\n",
     "[process] 'seed' has no effect in an experiment file"),
    ("montecarlo", TWO_SAMPLE_INI + "schema = 1\n",
     "[process_y] 'schema' has no effect in an experiment file"),
    ("montecarlo", TWO_SAMPLE_INI + "seed = 99\n",
     "[process_y] 'seed' has no effect in an experiment file"),
    ("montecarlo", EXPERIMENT_INI.replace("[process]", "exponent = 0.9\n\n[process]"),
     "[experiment] 'exponent' has no effect with 'block_length'"),
    ("montecarlo", EXPERIMENT_INI.replace("[process]", "dyadic_freeze = false\n\n[process]"),
     "[experiment] 'dyadic_freeze' has no effect with 'block_length'"),
], ids=["generate-scalar-grid", "montecarlo-mean-norm-null", "process-schema", "process-seed",
        "process-y-schema", "process-y-seed", "exponent-with-block-length",
        "dyadic-freeze-with-block-length"])
def test_settings_without_effect_exit_2_with_one_error_line(tmp_path, capsys, command, text,
                                                            message):
    config = tmp_path / "ignored.ini"
    config.write_text(text)
    out = tmp_path / "out"
    extra = ["--n", "20"] if command == "generate" else []
    assert run_cli(command, "--config", str(config), *extra, "--out", str(out)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()
