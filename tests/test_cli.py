import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import blockboot.harness as harness
from blockboot.cli import main
from blockboot.io import read_sample


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

    def test_lrv_output_is_independent_of_thread_count(self, tmp_path, data_file):
        config = tmp_path / "fun.ini"
        config.write_text(FUNCTIONAL_INI)
        functional = tmp_path / "fun.csv"
        assert run_cli("generate", "--config", str(config), "--n", "200",
                       "--out", str(functional)) == 0
        outputs = {}
        for data in (data_file, str(functional)):
            for threads in ("1", "4"):
                env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
                out = tmp_path / f"lrv-{threads}.json"
                raw = tmp_path / f"lrv-{threads}.csv"
                proc = subprocess.run(
                    [sys.executable, "-m", "blockboot.cli", "bootstrap", "--data", data,
                     "--statistic", "lrv", "--block-length", "5", "--replicates", "300",
                     "--seed", "9", "--out", str(out), "--raw-out", str(raw)],
                    capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
                outputs[threads] = (out.read_bytes(), raw.read_bytes())
            assert outputs["1"] == outputs["4"]

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
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "blockboot" in proc.stdout
