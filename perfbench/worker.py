"""One benchmark process: set up a workload, measure it, check its outputs.

``run.py`` splits each untraced run over several of these processes (slots)
and a traced run over one.  It passes the wall-clock time at which it
started the process (``--t0``), so that the process's set-up time runs from
process start to the end of the untimed warm-up.  The raw samples and check
counts go to ``--result`` as JSON; ``run.py`` pools them.

Workloads are closed loops with one caller.  The Monte Carlo workloads call
``run_experiment`` on a criterion config with ``M`` replications per call (a
*study*).  Study ``i`` uses master seed ``study_seed(seed, i)``, so study 0
on the default seed is the criterion's own first ``M`` replications; slot
``j`` of ``K`` runs studies ``j, j+K, j+2K, ...``.  The CLI workload calls
``blockboot.cli.main`` in-process on files written during set-up, in a fixed
rotation of four commands.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402

#: ``calibrate()`` takes this long on the reference machine: 2 vCPUs of an
#: Intel Xeon, when no other tenant slows them.  A second at the current
#: speed is worth ``CALIBRATION_REF_S / calibrate()`` reference seconds.
CALIBRATION_REF_S = 0.020
#: Every timed loop runs at least this many operations.
MIN_OPS = 3
#: Relative tolerance of the reference comparison.
REL_TOL = 1e-9
#: Size or coverage must lie this many binomial standard errors from the band.
SE_MULTIPLE = 4.0
#: Share of ``--seconds`` that mc-mean spends at workers=1; the rest is workers=2.
W1_SHARE = 0.75
#: Studies 0 .. REFERENCE_STUDIES-1 on the default seed have stored reference outputs.
REFERENCE_STUDIES = 4

# Criterion configs (tests/test_acceptance.py, criteria 7-9).  ``band`` is the
# criterion's acceptance band for size (coverage for mean-norm); criterion 8
# has none, so its band is the nominal level itself.
MC_WORKLOADS = {
    "mc-cvm": dict(
        statistic="cvm", process=dict(kind="iid", innovation="uniform"), n=2000,
        replicates=1000, level=0.05, master_seed=20260809, block_length=12,
        M=8, band=(0.03, 0.07), workers2=False,
    ),
    "mc-vstat": dict(
        statistic="vstat:product", process=dict(kind="iid"), n=2000,
        replicates=2000, level=0.05, master_seed=20260808, block_length=12,
        M=10, band=(0.05, 0.05), workers2=False,
    ),
    "mc-mean": dict(
        statistic="mean-norm", process=dict(kind="ar1-real", phi=0.5), n=1000,
        replicates=1000, level=0.10, master_seed=20260807, block_length=10,
        M=300, band=(0.85, 0.94), workers2=True,
    ),
}
CLI_DEFAULT_SEED = 20260810  # criterion 10
CLI_REPLICATES = 1000
CLI_COMMANDS = ("bootstrap", "two_sample", "cvm", "vstat")
WORKLOADS = (*MC_WORKLOADS, "cli-single")
DEFAULT_SEEDS = {name: spec["master_seed"] for name, spec in MC_WORKLOADS.items()}
DEFAULT_SEEDS["cli-single"] = CLI_DEFAULT_SEED

_GOLDEN = 0x9E3779B97F4A7C15


def study_seed(seed: int, i: int) -> int:
    """Master seed of study ``i``; study 0 uses ``seed`` itself."""
    return (seed + i * _GOLDEN) % 2**64


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def close(a, b) -> bool:
    if a == b:
        return True
    if a is None or b is None:
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def timed_loop(seconds: float, op, calibration: list | None = None) -> list:
    """Call ``op(i)`` for i = 0, 1, ... until ``seconds`` have passed.

    With a ``calibration`` list, one ``calibrate()`` sample is appended
    before each call, outside the time the call measures.
    """
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < MIN_OPS or time.perf_counter() - start < seconds:
        if calibration is not None:
            calibration.append(calibrate())
        outcomes.append(op(len(outcomes)))
    return outcomes


@functools.cache
def _calibration_operands():
    import numpy

    rng = numpy.random.default_rng(0)
    return rng.random((2000, 166)), rng.random((166, 166))


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop plus a fixed numpy product.

    The work never changes, so its time follows only the machine's current
    speed.  It runs no package code.
    """
    a, b = _calibration_operands()
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(4):
        a @ b
    return time.perf_counter() - start


class Checks:
    """Operations attempted and failed, with a reason per failure kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def fail(self, reason: str, amount: int = 1) -> None:
        if amount:
            self.failed += amount
            self.reasons[reason] = self.reasons.get(reason, 0) + amount

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_frac": self.failed / max(1, self.attempted),
                "failures": self.reasons}


def line_mismatches(a: str, b: str) -> int:
    la, lb = a.splitlines(), b.splitlines()
    return sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))


# ---------------------------------------------------------------------------
# Monte Carlo workloads


def rate_check(workload: str, successes: int, trials: int) -> dict:
    """Size (coverage for mean-norm) pooled over a run, against the criterion band.

    ``successes`` counts rejections (covering intervals for mean-norm) among
    ``trials`` replications that did not fail.
    """
    spec = MC_WORKLOADS[workload]
    coverage = spec["statistic"] == "mean-norm"
    nominal = 1.0 - spec["level"] if coverage else spec["level"]
    rate = successes / max(1, trials)
    se = math.sqrt(nominal * (1.0 - nominal) / max(1, trials))
    lo, hi = spec["band"]
    ok = lo - SE_MULTIPLE * se <= rate <= hi + SE_MULTIPLE * se
    return {"metric": "coverage" if coverage else "size", "value": rate,
            "replications": trials, "se_at_nominal": se, "band": [lo, hi], "ok": ok}


class MonteCarlo:
    """Studies ``slot``, ``slot + slots``, ``slot + 2 slots``, ... of a run."""

    def __init__(self, name: str, seed: int, slot: int = 0, slots: int = 1):
        from blockboot.generators import ProcessConfig
        from blockboot.harness import ExperimentConfig, run_experiment

        spec = MC_WORKLOADS[name]
        self.name, self.seed, self.spec = name, seed, spec
        self.slot, self.slots = slot, slots
        self.M = spec["M"]
        self.run_experiment = run_experiment
        self.cfg = ExperimentConfig(
            statistic=spec["statistic"], process=ProcessConfig(**spec["process"]),
            n=spec["n"], replicates=spec["replicates"], replications=self.M,
            level=spec["level"], master_seed=seed, block_length=spec["block_length"],
        )
        self.ref = None

    def warm_up(self) -> None:
        if self.seed == DEFAULT_SEEDS[self.name]:
            self.ref = json.loads(reference_path(self.name).read_text())["studies"]
        # A full study on a seed no timed study uses: the first full-size
        # study after start-up runs up to 30% slower than later ones.
        self.run_study(-1)

    def index(self, i: int) -> int:
        return self.slot + i * self.slots

    def run_study(self, index: int, workers: int = 1, tracer=None):
        cfg = replace(self.cfg, master_seed=study_seed(self.seed, index))
        start = time.perf_counter()
        with tracing.root_span(tracer, "harness.run", "study"):
            report = self.run_experiment(cfg, workers=workers)
        return time.perf_counter() - start, report

    @staticmethod
    def mismatches(a, b) -> int:
        """Lines in which two reports' records.csv and report.json differ."""
        return (line_mismatches(a.records_csv(), b.records_csv())
                + line_mismatches(a.report_json(), b.report_json()))

    def check_study(self, index: int, report, checks: Checks) -> None:
        checks.attempted += len(report.records)
        checks.fail("failed replication", sum(rec.failed for rec in report.records))
        if self.ref is not None and index < len(self.ref):
            ref = self.ref[index]
            bad = 0
            for rec, (reject, observed, critical, p_value) in zip(report.records, ref):
                bad += not (rec.reject == reject and close(rec.observed, observed)
                            and close(rec.critical_value, critical)
                            and close(rec.p_value, p_value))
            checks.fail("reference mismatch", bad + abs(len(ref) - len(report.records)))

    def successes(self, report) -> tuple[int, int]:
        ok = [rec for rec in report.records if not rec.failed]
        if self.spec["statistic"] == "mean-norm":
            return sum(not rec.reject for rec in ok), len(ok)
        return sum(rec.reject for rec in ok), len(ok)

    def measure(self, seconds: float) -> dict:
        checks = Checks()
        w1_seconds = seconds * W1_SHARE if self.spec["workers2"] else seconds
        calibration: list[float] = []
        runs = timed_loop(w1_seconds, lambda i: self.run_study(self.index(i)), calibration)
        for i, (_, report) in enumerate(runs):
            self.check_study(self.index(i), report, checks)
        counts = [self.successes(report) for _, report in runs]
        result = {
            "studies": len(runs),
            "op_rates": [self.M / wall for wall, _ in runs],
            "ops": self.M * len(runs),
            "op_seconds": sum(wall for wall, _ in runs),
            "calibration_s": calibration,
            "rate_successes": sum(s for s, _ in counts),
            "rate_trials": sum(n for _, n in counts),
        }
        if self.spec["workers2"]:
            # The same studies at workers=2: records and report must not change.
            runs2 = timed_loop(seconds - w1_seconds, lambda i: self.run_study(
                self.index(i % len(runs)), workers=2))
            for i, (_, report) in enumerate(runs2):
                checks.attempted += len(report.records)
                checks.fail("workers=2 output differs",
                            self.mismatches(runs[i % len(runs)][1], report))
            result["op_rates_w2"] = [self.M / wall for wall, _ in runs2]
        result["checks"] = checks.to_dict()
        return result

    def measure_traced(self, seconds: float) -> dict:
        """Alternate untraced and traced studies on the same seeds."""
        checks = Checks()
        tracer = tracing.Tracer()

        def pair(i):
            plain = self.run_study(self.index(i))
            with tracing.installed(tracer):
                traced = self.run_study(self.index(i), tracer=tracer)
            return plain, traced

        pairs = timed_loop(seconds, pair)
        for i, ((_, plain), (_, traced)) in enumerate(pairs):
            self.check_study(self.index(i), traced, checks)
            checks.fail("traced output differs", self.mismatches(plain, traced))
        untraced = sum(p[0][0] for p in pairs)
        traced = sum(p[1][0] for p in pairs)
        layers = summarize_trace(tracer, untraced, traced,
                                 ops=self.M * len(pairs), studies=len(pairs))
        check_self_times(layers, checks)
        return {"studies": len(pairs), "checks": checks.to_dict(), **layers}

    def reference(self) -> dict:
        studies = []
        for index in range(REFERENCE_STUDIES):
            _, report = self.run_study(index)
            studies.append([[rec.reject, rec.observed, rec.critical_value, rec.p_value]
                            for rec in report.records])
        return {"workload": self.name, "seed": self.seed, "M": self.M,
                "fields": ["reject", "observed", "critical_value", "p_value"],
                "studies": studies}


# ---------------------------------------------------------------------------
# CLI workload


class CliSingle:
    def __init__(self, name: str, seed: int, workdir: Path):
        from blockboot import cli
        from blockboot.generators import ProcessConfig, generate_functional, generate_real
        from blockboot.io import write_sample
        from blockboot.rng import derive_stream

        self.name, self.seed, self.workdir = name, seed, workdir
        self.cli = cli
        data = workdir / "data"
        data.mkdir(parents=True, exist_ok=True)
        grid = [i / 100.0 for i in range(101)]
        functional = ProcessConfig(kind="ar1-functional", phi=0.5)

        def functional_file(tag: str, stream: int) -> str:
            sample = generate_functional(functional, 1000, grid,
                                         rng=derive_stream(seed, stream))
            path = str(data / f"{tag}.csv")
            write_sample(sample, path, pointwise_w=[1.0] * len(grid))
            return path

        def scalar_file(tag: str, cfg, n: int, stream: int) -> str:
            path = str(data / f"{tag}.csv")
            write_sample(generate_real(cfg, n, rng=derive_stream(seed, stream)), path)
            return path

        boot = functional_file("boot", 0)
        x, y = functional_file("x", 1), functional_file("y", 2)
        cvm = scalar_file("cvm", ProcessConfig(kind="ar1-real", phi=0.5), 2000, 3)
        vstat = scalar_file("vstat", ProcessConfig(kind="iid"), 4000, 4)
        common = ["--replicates", str(CLI_REPLICATES), "--seed", str(seed)]
        self.argv = {
            "bootstrap": ["bootstrap", "--data", boot, "--statistic", "mean-norm", *common],
            "two_sample": ["two-sample", "--data-x", x, "--data-y", y, "--level", "0.05",
                           *common],
            "cvm": ["cvm-test", "--data", cvm, "--dist", "normal:0,1.1547",
                    "--level", "0.05", *common],
            "vstat": ["vstat-test", "--data", vstat, "--kernel", "gaussian:1.0",
                      "--level", "0.05", *common],
        }
        self.ref = None

    def out_path(self, tag: str, command: str) -> Path:
        return self.workdir / f"out-{tag}" / f"{command}.json"

    def rotation(self, tag: str, tracer=None):
        """Run the four commands once; returns ``{command: (wall, rc, bytes)}``."""
        outcome = {}
        for command in CLI_COMMANDS:
            out = self.out_path(tag, command)
            out.parent.mkdir(exist_ok=True)
            argv = [*self.argv[command], "--out", str(out)]
            start = time.perf_counter()
            with tracing.root_span(tracer, "cli.main", command):
                rc = self.cli.main(argv)
            wall = time.perf_counter() - start
            outcome[command] = (wall, rc, out.read_bytes() if rc == 0 else b"")
        return outcome

    def warm_up(self) -> None:
        if self.seed == CLI_DEFAULT_SEED:
            self.ref = json.loads(reference_path(self.name).read_text())["commands"]
        self.baseline = self.rotation("warm")

    def check_rotation(self, outcome, checks: Checks) -> None:
        for command, (_, rc, data) in outcome.items():
            checks.attempted += 1
            if rc != 0:
                checks.fail("nonzero exit code")
                continue
            if data != self.baseline[command][2]:
                checks.fail("output differs between rotations")
            if self.ref is not None and not self.matches(command, json.loads(data),
                                                         self.ref[command]):
                checks.fail("reference mismatch")

    @staticmethod
    def fields(command: str, payload: dict) -> dict:
        if command == "bootstrap":
            reps = payload["replicates"]
            return {"mean": reps["mean"], **{f"q{q}": v for q, v in reps["quantiles"].items()}}
        return {key: payload[key] for key in ("statistic", "critical_value", "p_value", "reject")}

    def matches(self, command: str, payload: dict, ref: dict) -> bool:
        got = self.fields(command, payload)
        if set(got) != set(ref):
            return False
        return all(got[k] == ref[k] if isinstance(ref[k], bool) else close(got[k], ref[k])
                   for k in ref)

    def measure(self, seconds: float) -> dict:
        checks = Checks()
        calibration: list[float] = []
        rotations = timed_loop(seconds, lambda i: self.rotation("timed"), calibration)
        for outcome in rotations:
            self.check_rotation(outcome, checks)
        return {
            "rotations": len(rotations),
            "op_rates": [len(CLI_COMMANDS) / sum(o[c][0] for c in CLI_COMMANDS)
                         for o in rotations],
            "ops": len(CLI_COMMANDS) * len(rotations),
            "op_seconds": sum(o[c][0] for o in rotations for c in CLI_COMMANDS),
            "calibration_s": calibration,
            "command_walls_ms": {c: [1000.0 * o[c][0] for o in rotations]
                                 for c in CLI_COMMANDS},
            "checks": checks.to_dict(),
        }

    def measure_traced(self, seconds: float) -> dict:
        checks = Checks()
        tracer = tracing.Tracer()

        def pair(i):
            plain = self.rotation("plain")
            with tracing.installed(tracer):
                traced = self.rotation("traced", tracer=tracer)
            return plain, traced

        pairs = timed_loop(seconds, pair)
        for plain, traced in pairs:
            self.check_rotation(traced, checks)
            for command in CLI_COMMANDS:
                if plain[command][2] != traced[command][2]:
                    checks.fail("traced output differs")
        untraced = sum(o[c][0] for o, _ in pairs for c in CLI_COMMANDS)
        traced = sum(o[c][0] for _, o in pairs for c in CLI_COMMANDS)
        layers = summarize_trace(tracer, untraced, traced,
                                 ops=len(CLI_COMMANDS) * len(pairs), per_op_label=True)
        check_self_times(layers, checks)
        return {"rotations": len(pairs), "checks": checks.to_dict(), **layers}

    def reference(self) -> dict:
        outcome = self.rotation("reference")
        return {"workload": self.name, "seed": self.seed,
                "commands": {c: self.fields(c, json.loads(outcome[c][2]))
                             for c in CLI_COMMANDS}}


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, and its rank."""
    n = len(samples)
    if n < 11:
        return None, None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Trace summaries

#: Layer span name -> per-layer metric name (self time).
LAYER_METRICS = {
    "vmstat.prepare": "vmstat.prepare_ms",
    "vmstat.evaluate": "vmstat.evaluate_ms",
    "vmstat.observed": "vmstat.observed_ms",
    "vmstat.spec": "vmstat.spec_ms",
    "vmstat.diagnostic": "vmstat.diagnostic_ms",
    "vmstat.test": "vmstat.test_self_ms",
    "bootstrap.counts": "bootstrap.counts_ms",
    "bootstrap.decide": "bootstrap.decide_ms",
    "bootstrap.distribution": "bootstrap.distribution_ms",
    "bootstrap.two_sample": "bootstrap.two_sample_self_ms",
    "rng.derive_stream": "rng.derive_stream_ms",
    "generators.generate": "generators.generate_ms",
    "harness.run": "harness.self_ms",
    "harness.aggregate": "harness.aggregate_s",
    "io.read": "io.read_ms",
    "cli.main": "cli.self_ms",
}
#: Computed counter -> per-layer metric name.
COUNT_METRICS = {
    "prepare_cells": "vmstat.prepare_cells",
    "evaluate_flops": "vmstat.evaluate_flops",
    "observed_pairs": "vmstat.observed_pairs",
    "spec_grid_points": "vmstat.spec_grid_points",
    "count_cells": "bootstrap.count_cells",
    "derive_stream_calls": "rng.derive_stream_calls",
    "pooled_values": "harness.pooled_values",
    "read_bytes": "io.read_bytes",
}
#: Metrics reported per study rather than per replication.
PER_STUDY = {"harness.aggregate_s", "harness.pooled_values"}


def summarize_trace(tracer, untraced_s: float, traced_s: float, ops: int,
                    studies: int = 0, per_op_label: bool = False) -> dict:
    """Per-layer self times and counts per operation, plus overhead figures.

    Per operation means per replication for Monte Carlo workloads (except
    the once-per-study aggregate figures) and per command for the CLI.
    """
    totals = tracing.layer_totals(tracer.spans)
    by_layer: dict[str, float] = {}
    for (_, layer), seconds in totals.items():
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    by_counter: dict[str, int] = {}
    for (_, counter), amount in tracer.counts.items():
        by_counter[counter] = by_counter.get(counter, 0) + amount

    def per_op(metric: str, value: float) -> float:
        return value / (studies if metric in PER_STUDY and studies else ops)

    layers = {}
    for layer, metric in LAYER_METRICS.items():
        scale = 1.0 if metric.endswith("_s") else 1000.0
        layers[metric] = per_op(metric, scale * by_layer.get(layer, 0.0))
    for counter, metric in COUNT_METRICS.items():
        layers[metric] = per_op(metric, by_counter.get(counter, 0))
    unknown = set(by_layer) - set(LAYER_METRICS)
    if unknown:
        raise RuntimeError(f"spans of unmapped layers: {sorted(unknown)}")

    roots = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans
                if s[tracing.PARENT] < 0)
    self_sum = sum(by_layer.values())
    summary = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_frac": (traced_s - untraced_s) / untraced_s,
        "accounted_frac": self_sum / untraced_s,
        "self_sum_matches_roots": abs(self_sum - roots) <= 1e-6 * roots,
        "spans": len(tracer.spans),
        "layers": layers,
    }
    if per_op_label:
        per_command = {}
        for (op, layer), seconds in totals.items():
            per_command.setdefault(op, {})[LAYER_METRICS[layer]] = seconds
        n_per_op = ops // len(CLI_COMMANDS)
        summary["layers_by_command_ms"] = {
            op: {m: 1000.0 * v / n_per_op for m, v in sorted(d.items())}
            for op, d in sorted(per_command.items())
        }
    return summary


def check_self_times(summary: dict, checks: Checks) -> None:
    """The self times of all layers must add up to the root spans."""
    checks.attempted += 1
    checks.fail("self times do not add up", 0 if summary["self_sum_matches_roots"] else 1)


# ---------------------------------------------------------------------------


def make_workload(name: str, seed: int, workdir: Path, slot: int, slots: int):
    if name in MC_WORKLOADS:
        return MonteCarlo(name, seed, slot, slots)
    return CliSingle(name, seed, workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() at which the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--slot", type=int, default=0,
                        help="this process's index among the run's processes")
    parser.add_argument("--slots", type=int, default=1,
                        help="number of processes the run is split over")
    parser.add_argument("--mode", choices=("measure", "reference"), default="measure",
                        help="'reference' writes reference/<workload>.json instead")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    workload = make_workload(args.workload, args.seed, Path(args.workdir),
                             args.slot, args.slots)
    if args.mode == "reference":
        payload = workload.reference()
        reference_path(args.workload).write_text(json.dumps(payload) + "\n")
        return 0
    workload.warm_up()
    result = {"setup_s": time.time() - args.t0}
    if args.trace:
        result.update(workload.measure_traced(args.seconds))
    else:
        result.update(workload.measure(args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    Path(args.result).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
