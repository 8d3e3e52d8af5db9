"""Batch command-line interface.

Subcommands: ``generate``, ``bootstrap``, ``cvm-test``, ``vstat-test``,
``two-sample``, ``montecarlo``.  Reports are JSON with a fixed key order and
no timestamps, so a fixed seed yields byte-identical output across runs and
thread counts.  Exit codes: 0 success, 2 configuration error (or a
non-finite statistic or report value, or an input too large to allocate,
such as more ``--replicates`` than fit in memory or a ``--block-length`` so
short that the block-pair sums exceed physical memory), 3 failure-policy breach in
a Monte Carlo run, 4 the ``--workers`` process pool failed.  A report never
holds ``NaN`` or ``Infinity``, and overflow in finite data near the float
range ends in exit 2, or in a finite report, without numpy warnings.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor

import numpy as np

from . import __version__
from .bootstrap import (
    BlockPlan,
    block_length_schedule,
    bootstrap_distribution,
    empirical_quantile,
    long_run_variance_estimate,
    two_sample_test,
)
from .config import load_experiment_config, load_process_config
from .dists import distribution_from_token
from .exceptions import BlockbootError, ConfigError
from .generators import generate_functional, generate_real
from .harness import run_experiment
from .io import json_text, read_sample, write_sample
from .vmstat import (
    cvm_test,
    degeneracy_diagnostic,
    kernel_from_token,
    make_cvm_spec,
    vstat_test,
)

_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _write_report(args, plan: BlockPlan, result: dict | None = None, **fields) -> None:
    """Write the ``--out`` report: the provenance every command shares, the
    decision of a test's ``result``, then the command's own ``fields``."""
    payload = {"schema": 1, "version": __version__, "command": args.command,
               "plan": plan.to_dict(), "seed": args.seed}
    if result is not None:
        payload.update({
            "level": args.level,
            "replicates": int(result["replicates"].size),
            "statistic": result["statistic"],
            "critical_value": result["critical_value"],
            "p_value": result["p_value"],
            "reject": result["reject"],
            "decision": "reject" if result["reject"] else "fail-to-reject",
        })
    text = json_text({**payload, **fields})  # ValueError on nan or inf, before the file opens
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(text)


def _plan_from_args(n: int, args) -> BlockPlan:
    """The block plan of the flags, warning on stderr when it discards observations."""
    if args.block_length != "auto":
        try:
            p = int(args.block_length)
        except ValueError as exc:
            raise ConfigError(
                f"--block-length must be an integer or 'auto', got {args.block_length!r}"
            ) from exc
        if not 1 <= p <= n:
            raise ConfigError(f"--block-length must be in 1..n={n}, got {p}")
        plan = BlockPlan(n=n, p=p)
    else:
        plan = block_length_schedule(n, args.exponent, args.freeze_dyadic)
    if plan.discarded > 0:
        print(
            f"warning: discarding the trailing {plan.discarded} of {plan.n} "
            f"observations (k*p = {plan.kp})",
            file=sys.stderr,
        )
    return plan


def _scalar_series(args):
    """The ``--data`` series, which must be scalar, and its block plan."""
    sample = read_sample(args.data, None)
    if sample.d != 1:
        raise ConfigError(f"{args.command} expects a scalar series")
    return sample, _plan_from_args(sample.n, args)


def _add_bootstrap_flags(parser: argparse.ArgumentParser) -> None:
    """The block plan, replicate and output flags every bootstrap command shares."""
    parser.add_argument("--block-length", default="auto",
                        help="block length p, or 'auto' for the n**exponent schedule")
    parser.add_argument("--exponent", type=float, default=1.0 / 3.0,
                        help="schedule exponent in (0, 1); default 1/3")
    parser.add_argument("--freeze-dyadic", action="store_true",
                        help="evaluate the schedule at the next power of two")
    parser.add_argument("--replicates", type=int, default=1000, help="bootstrap replicates B")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="output report JSON")


def cmd_generate(args) -> int:
    process, grid_spec = load_process_config(args.config)
    if process.is_functional:
        grid, w = grid_spec.make()
        sample = generate_functional(process, args.n, grid, w)
    else:
        sample, w = generate_real(process, args.n), None
    write_sample(sample, args.out, args.sidecar, pointwise_w=w)
    return 0


def cmd_bootstrap(args) -> int:
    sample = read_sample(args.data, args.sidecar)
    plan = _plan_from_args(sample.n, args)
    values = bootstrap_distribution(sample, plan, args.replicates, args.statistic, args.seed)
    fields = {
        "statistic": args.statistic,
        "replicates": {
            "count": int(values.size),
            "mean": float(values.mean()),
            "quantiles": {str(q): empirical_quantile(values, q) for q in _QUANTILES},
        },
    }
    if args.statistic == "lrv":
        fields["sample_estimate"] = long_run_variance_estimate(sample, plan)
    _write_report(args, plan, **fields)
    if args.raw_out:
        with open(args.raw_out, "w", encoding="ascii") as fh:
            fh.write("replicate,value\n")
            for r, v in enumerate(values):
                fh.write(f"{r},{repr(float(v))}\n")
    return 0


def cmd_cvm_test(args) -> int:
    sample, plan = _scalar_series(args)
    dist = distribution_from_token(args.dist)
    spec = make_cvm_spec(dist.cdf, dist.support, dist.weight_fn, sample=sample)
    result = cvm_test(sample, spec, plan, args.replicates, args.seed, args.level)
    _write_report(args, plan, result, null=dist.name)
    return 0


def _degeneracy_probes(x: np.ndarray) -> np.ndarray:
    """The distinct 5%, 10%, ..., 95% quantiles of ``x``, all within ``[min, max]``.

    Where ``max - min`` overflows, the quantiles of ``x / 2`` are doubled, so
    the interpolation never forms an infinite difference.
    """
    levels = np.linspace(0.05, 0.95, 19)
    with np.errstate(over="ignore"):
        if np.isfinite(np.max(x) - np.min(x)):
            return np.unique(np.quantile(x, levels))
    return np.unique(np.clip(2.0 * np.quantile(0.5 * x, levels), np.min(x), np.max(x)))


def cmd_vstat_test(args) -> int:
    sample, plan = _scalar_series(args)
    kernel = kernel_from_token(args.kernel)
    result = vstat_test(sample, kernel, plan, args.replicates, args.seed, args.level)
    diagnostic = degeneracy_diagnostic(sample, kernel, _degeneracy_probes(sample.scalars()))
    _write_report(args, plan, result, kernel=kernel.name, degeneracy_diagnostic=diagnostic)
    return 0


def cmd_two_sample(args) -> int:
    x = read_sample(args.data_x, args.sidecar_x)
    y = read_sample(args.data_y, args.sidecar_y)
    if x.n != y.n:
        raise ConfigError(f"samples must have equal length, got {x.n} and {y.n}")
    plan = _plan_from_args(x.n, args)
    result = two_sample_test(x, y, plan, plan, args.replicates, args.seed, args.level)
    _write_report(args, plan, result)
    return 0


def cmd_montecarlo(args) -> int:
    cfg = load_experiment_config(args.config)
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    report = run_experiment(cfg, workers=args.workers)
    report.write(args.out)
    if report.flags["failure_policy_breach"]:
        print(
            f"error: {report.aggregates['failed']} of {report.aggregates['replications']} "
            "replications failed (limit 1%)",
            file=sys.stderr,
        )
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockboot",
        description="Nonoverlapping block bootstrap for dependent (functional) time series",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a process and write it as CSV")
    p.add_argument("--config", required=True, help="process config file (INI, schema=1)")
    p.add_argument("--n", type=int, required=True, help="number of observations")
    p.add_argument("--out", required=True, help="output data CSV")
    p.add_argument("--sidecar", default=None, help="output grid/weight sidecar CSV")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bootstrap", help="bootstrap distribution of a statistic")
    p.add_argument("--data", required=True)
    p.add_argument("--sidecar", default=None)
    _add_bootstrap_flags(p)
    p.add_argument("--statistic", default="mean-norm", choices=("mean-norm", "lrv"))
    p.add_argument("--raw-out", default=None, help="optional CSV of raw replicates")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("cvm-test", help="goodness-of-fit test for a scalar series")
    p.add_argument("--data", required=True)
    _add_bootstrap_flags(p)
    p.add_argument("--dist", default="normal",
                   help="null distribution token, e.g. normal, uniform:0,1, t:6")
    p.add_argument("--level", type=float, default=0.05)
    p.set_defaults(func=cmd_cvm_test)

    p = sub.add_parser("vstat-test", help="degenerate V-statistic bootstrap test")
    p.add_argument("--data", required=True)
    _add_bootstrap_flags(p)
    p.add_argument("--kernel", default="product",
                   help="kernel token: product, gaussian:<bw>, cvm:<dist>")
    p.add_argument("--level", type=float, default=0.05)
    p.set_defaults(func=cmd_vstat_test)

    p = sub.add_parser("two-sample", help="bootstrap test for equal means")
    p.add_argument("--data-x", required=True)
    p.add_argument("--data-y", required=True)
    p.add_argument("--sidecar-x", default=None)
    p.add_argument("--sidecar-y", default=None)
    _add_bootstrap_flags(p)
    p.add_argument("--level", type=float, default=0.05)
    p.set_defaults(func=cmd_two_sample)

    p = sub.add_parser("montecarlo", help="run a Monte Carlo experiment from a config file")
    p.add_argument("--config", required=True, help="experiment config file (INI, schema=1)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size for replications, capped at the replications "
                        "and CPUs; output is identical for any value")
    p.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow reaches the non-finite checks (exit 2), not numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (BlockbootError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenExecutor as exc:  # e.g. a --workers process was killed
        print(f"error: worker pool failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
