"""blockboot benchmark: Monte Carlo throughput and single-shot CLI latency.

Usage, from the repository root::

    python3 perfbench/run.py --workload mc-cvm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

One workload per call prints a human summary on stderr and, as the last line
of stdout, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics that BENCHMARK.json lists with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  ``--workload all`` runs every workload untraced and
traced, prints the table of all named end-to-end and per-layer metrics, and
ends with the same kind of JSON line keyed ``<workload>.<metric>``.

An untraced run is split over ``SLOTS`` worker processes (``worker.py``), run
one after another, each measuring ``seconds / SLOTS``.  Before each timed
operation a process times ``worker.calibrate()``, a fixed loop that runs no
package code, and its ``speed`` is the reference calibration time over its
mean calibration time.  ``setup_s`` and ``ops_per_s`` count reference
seconds, each process's seconds times its speed, so that they do not follow
the speed of a shared machine: ``setup_s`` is the median over processes, and
``ops_per_s`` is all operations over all timed reference seconds.  The raw
figures are in the result file.  A traced run uses one process, which
alternates untraced and traced operations.  BLAS threads are pinned to 1 in
every worker.

Each run writes a result file with full detail and provenance to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "blockboot"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import worker  # noqa: E402

SLOTS = 3
#: Every run of one workload ends within this many seconds.
RUN_DEADLINE_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: The named end-to-end metrics of ``--workload all``: name -> unit.
NAMED_END_TO_END = {
    "setup_s": "s", "reps_per_s": "1/s", "reps_per_s_w2": "1/s",
    "peak_rss_mb": "MB", "failed_frac": "frac",
    **{f"cli_{c}_{kind}_ms": "ms" for c in worker.CLI_COMMANDS for kind in ("p50", "tail")},
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, seconds: float, trace: int, slot: int, slots: int,
          workdir: Path, log, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    result = workdir / f"result-{slot}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
            "--slot", str(slot), "--slots", str(slots),
            "--workdir", str(workdir), "--result", str(result)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"{workload}: no time left for process {slot}")
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    t0 = time.time()
    try:
        proc = subprocess.run([*argv, "--t0", repr(t0)], env=env, cwd=ROOT,
                              stdout=log, stderr=log, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: run exceeded {RUN_DEADLINE_S:.0f}s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchmarkError(f"{workload}: worker exited with code {proc.returncode}; "
                             f"see {log.name}")
    return json.loads(result.read_text())


def merge_checks(parts: list[dict]) -> dict:
    failures: dict[str, int] = {}
    for part in parts:
        for reason, count in part["failures"].items():
            failures[reason] = failures.get(reason, 0) + count
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    return {"attempted": attempted, "failed": failed,
            "failed_frac": failed / max(1, attempted), "failures": failures}


def speed(part: dict) -> float:
    """Machine speed during one process's timed loop, relative to the reference."""
    return worker.CALIBRATION_REF_S / statistics.fmean(part["calibration_s"])


def pool(workload: str, parts: list[dict]) -> dict:
    """End-to-end metrics from the samples of all of a run's processes.

    ``setup_s`` and ``ops_per_s`` are in reference seconds: each process's
    seconds times its ``speed``.
    """
    setups = [part["setup_s"] for part in parts]
    speeds = [speed(part) for part in parts]
    rates = [rate for part in parts for rate in part["op_rates"]]
    ops = sum(part["ops"] for part in parts)
    checks = [part["checks"] for part in parts]
    out = {
        "processes": len(parts),
        "setup_s": statistics.median(s * v for s, v in zip(setups, speeds)),
        "ops_per_s": ops / sum(p["op_seconds"] * v for p, v in zip(parts, speeds)),
        "raw_setup_s": statistics.median(setups),
        "raw_ops_per_s": ops / sum(part["op_seconds"] for part in parts),
        "speeds": speeds,
        "setup_samples_s": setups,
        "op_rates": rates,
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "versions": parts[0]["versions"],
    }
    if workload in worker.MC_WORKLOADS:
        out["reps_per_s"] = statistics.median(rates)
        rates_w2 = [rate for part in parts for rate in part.get("op_rates_w2", ())]
        if rates_w2:
            out["reps_per_s_w2"] = statistics.median(rates_w2)
            out["op_rates_w2"] = rates_w2
        rate = worker.rate_check(workload, sum(p["rate_successes"] for p in parts),
                                 sum(p["rate_trials"] for p in parts))
        out["rate_check"] = rate
        checks.append({"attempted": 1, "failed": 0 if rate["ok"] else 1,
                       "failures": {} if rate["ok"] else {"rate outside band": 1}})
    else:
        for command in worker.CLI_COMMANDS:
            walls = [w for part in parts for w in part["command_walls_ms"][command]]
            tail_ms, percentile = worker.tail(walls)
            out[f"cli_{command}_p50_ms"] = statistics.median(walls)
            out[f"cli_{command}_tail_ms"] = tail_ms
            out[f"cli_{command}_tail"] = {"percentile": percentile, "samples": len(walls)}
            out[f"cli_{command}_walls_ms"] = walls
    out["checks"] = merge_checks(checks)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload in worker processes and return its result record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    slots = 1 if trace else SLOTS
    workdir = OUT / f"work-{workload}-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    log_path = OUT / "logs" / f"{workload}-seed{seed}-trace{trace}.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            parts = [spawn(workload, seed, seconds / slots, trace, slot, slots,
                           workdir, log, deadline) for slot in range(slots)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return parts[0] if trace else pool(workload, parts)


def listed_metrics(measured: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json lists: end-to-end untraced, per-layer traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        values = dict(measured["layers"], **{"trace.overhead_frac": measured["overhead_frac"]})
        listed = spec["per_layer"]
    else:
        values, listed = measured, spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


# ---------------------------------------------------------------------------
# Provenance


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def source_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance() -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top.strip()).resolve() == ROOT
    sha = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "source_sha256": source_digest(PACKAGE),
        "benchmark_sha256": source_digest(HERE),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": THREAD_ENV,
    }


def write_result(name: str, payload: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def run_config(workload: str, seed: int, trace: int) -> dict:
    config = {"seed": seed, "processes": 1 if trace else SLOTS}
    if workload in worker.MC_WORKLOADS:
        spec = worker.MC_WORKLOADS[workload]
        return dict(config, M=spec["M"], B=spec["replicates"], n=spec["n"])
    return dict(config, commands=list(worker.CLI_COMMANDS), B=worker.CLI_REPLICATES)


# ---------------------------------------------------------------------------


def one(args) -> int:
    seed = worker.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    measured = run_workload(args.workload, seed, args.seconds, args.trace)
    checks = measured["checks"]
    line = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": listed_metrics(measured, args.trace),
    }
    path = write_result(f"{args.workload}-seed{seed}-trace{args.trace}", {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "config": run_config(args.workload, seed, args.trace),
        "provenance": provenance(), "summary": line, "measured": measured,
    })
    for name, metric in line["metrics"].items():
        print(f"{args.workload:10s} {name:28s} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    if not args.trace:
        print(f"{args.workload:10s} at machine speed {statistics.median(measured['speeds']):.3f}:"
              f" raw setup_s {measured['raw_setup_s']:.6g} s,"
              f" raw ops_per_s {measured['raw_ops_per_s']:.6g} 1/s", file=sys.stderr)
    if checks["failures"]:
        print(f"failures: {checks['failures']}", file=sys.stderr)
    print(f"result file: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def all_workloads(args) -> int:
    """Every workload untraced and traced; the full named-metric table."""
    rows, layers, metrics, details = [], [], {}, {}
    attempted = failed = 0
    for workload in worker.WORKLOADS:
        seed = worker.DEFAULT_SEEDS[workload] if args.seed is None else args.seed
        plain = run_workload(workload, seed, args.seconds, 0)
        traced = run_workload(workload, seed, args.seconds, 1)
        details[workload] = {"config": run_config(workload, seed, 0),
                             "untraced": plain, "traced": traced}
        for run in (plain, traced):
            attempted += run["checks"]["attempted"]
            failed += run["checks"]["failed"]
        values = dict(plain, failed_frac=plain["checks"]["failed_frac"])
        for name, unit in NAMED_END_TO_END.items():
            if name in values:
                rows.append((workload, name, values[name], unit))
            if values.get(name) is not None:
                metrics[f"{workload}.{name}"] = {"value": values[name], "unit": unit}
        for name, value in traced["layers"].items():
            layers.append((workload, name, value))
        layers.append((workload, "trace.overhead_frac", traced["overhead_frac"]))
        layers.append((workload, "trace.accounted_frac", traced["accounted_frac"]))

    print("end-to-end (untraced)")
    for workload, name, value, unit in rows:
        if name.endswith("_tail_ms"):
            tail = details[workload]["untraced"][name[: -len("_ms")]]
            if value is None:
                print(f"  {workload:10s} {name:26s} {'n/a':>14s}  "
                      f"(needs 11 samples, got {tail['samples']})")
                continue
            unit += f"  (p{tail['percentile']:.1f} of {tail['samples']} samples)"
        print(f"  {workload:10s} {name:26s} {value:>14.6g} {unit}")
    print("per layer (traced; per replication for mc-*, per command for cli-single)")
    for workload, name, value in layers:
        print(f"  {workload:10s} {name:32s} {value:>14.6g}")
    path = write_result("all", {"seconds": args.seconds, "provenance": provenance(),
                                "workloads": details})
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*worker.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; default: the workload's criterion seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        return all_workloads(args) if args.workload == "all" else one(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
