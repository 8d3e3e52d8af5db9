"""The benchmark's stored reference outputs, checked by the benchmark's own checks.

perfbench compares every default-seed run with ``perfbench/reference/*.json``
and marks a run incorrect on a failed replication or a value off by more than
``worker.REL_TOL``.  These tests run the same checks on every stored study
and on one CLI rotation, so a change that would fail them fails here first.
"""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import worker  # noqa: E402


@pytest.mark.parametrize("name", ["mc-vstat", "mc-cvm", "mc-mean"])
def test_monte_carlo_studies_match_the_stored_references(name):
    workload = worker.MonteCarlo(name, worker.DEFAULT_SEEDS[name])
    workload.ref = json.loads(worker.reference_path(name).read_text())["studies"]
    checks = worker.Checks()
    for index in range(len(workload.ref)):
        _, report = workload.run_study(index)
        workload.check_study(index, report, checks)
    assert checks.attempted == worker.REFERENCE_STUDIES * workload.M
    assert checks.failed == 0, checks.reasons


def test_cli_rotation_matches_the_stored_reference(tmp_path):
    workload = worker.CliSingle("cli-single", worker.CLI_DEFAULT_SEED, tmp_path)
    workload.warm_up()
    assert workload.ref is not None
    checks = worker.Checks()
    workload.check_rotation(workload.baseline, checks)
    assert checks.attempted == len(worker.CLI_COMMANDS)
    assert checks.failed == 0, checks.reasons
