"""Span tracing of blockboot's layers from outside the package.

The package's modules look up the functions they call in their own module
namespace at call time (``harness._generate`` reads ``harness.generate_real``,
``cli.cmd_cvm_test`` reads ``cli.cvm_test``, and so on).  :func:`installed`
replaces those names with wrappers that record a span per call and restores
the originals on exit, so no file of the package changes and an untraced run
executes exactly the package's own code.

A span is ``(layer, start, end, parent, op)``.  A layer's *self time* is the
span's duration minus the part of that interval covered by its child spans;
the self times of all spans of one operation add up to the duration of the
operation's root span.

Operation counts (``*_cells``, ``*_flops``, ``*_pairs``, ``*_calls``,
``*_bytes``) are computed from the arguments and results of each wrapped
call, not measured, and repeat exactly for identical inputs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict

# Span fields.
LAYER, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans and computed counts in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.op = ""
        self._stack: list[int] = []

    def begin(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def count(self, counter: str, amount: int) -> None:
        self.counts[(self.op, counter)] += int(amount)

    def wrap(self, layer: str, fn, counter=None, wrap_result=None):
        """``fn`` recording a ``layer`` span per call.

        ``counter(args, kwargs, result)`` returns ``{name: amount}`` to add;
        ``wrap_result(result)`` replaces the returned value (used to trace the
        evaluator closures that the evaluator factories return).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if counter is not None:
                for name, amount in counter(args, kwargs, result).items():
                    tracer.count(name, amount)
            return wrap_result(result) if wrap_result is not None else result

        return traced


@contextlib.contextmanager
def root_span(tracer: Tracer | None, layer: str, op: str):
    """A top-level span labelled ``op``; does nothing without a tracer."""
    if tracer is None:
        yield
        return
    tracer.op = op
    index = tracer.begin(layer)
    try:
        yield
    finally:
        tracer.end(index)


def union_length(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - union_length(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def layer_totals(spans) -> dict[tuple[str, str], float]:
    """Summed self seconds keyed by ``(op, layer)``."""
    totals: dict[tuple[str, str], float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[(span[OP], span[LAYER])] += own
    return dict(totals)


# ---------------------------------------------------------------------------
# What is wrapped, where, and what each call counts.


def _counts_cells(args, kwargs, result):
    return {"count_cells": result.shape[0] * result.shape[1]}


def _observed_pairs(args, kwargs, result):
    n = args[0].n
    return {"observed_pairs": n * n}


def _spec_points(args, kwargs, result):
    return {"spec_grid_points": int(result.grid.size)}


def _cvm_prepare_cells(args, kwargs, result):
    # Cells of the k x k x |grid| block-ECDF Gram product.
    plan, spec = args[1], args[2]
    return {"prepare_cells": plan.k * plan.k * int(spec.grid.size)}


def _vstat_prepare_cells(args, kwargs, result):
    # Cells of the kp x kp block-pair kernel mesh.
    plan = args[1]
    return {"prepare_cells": plan.kp * plan.kp}


def _evaluate_flops(args, kwargs, result):
    B, k = args[0].shape
    return {"evaluate_flops": 2 * B * k * k}


def _one_call(args, kwargs, result):
    return {"derive_stream_calls": 1}


def _pooled_values(args, kwargs, result):
    pooled = args[2] if len(args) > 2 else kwargs.get("pooled_boot")
    return {"pooled_values": 0 if pooled is None else int(pooled.size)}


def _read_bytes(args, kwargs, result):
    data = args[0]
    sidecar = args[1] if len(args) > 1 else kwargs.get("sidecar_path")
    if sidecar is None and os.path.exists(data + ".grid.csv"):
        sidecar = data + ".grid.csv"
    size = os.path.getsize(data) + (os.path.getsize(sidecar) if sidecar else 0)
    return {"read_bytes": size}


def _wrap_table(tracer: Tracer):
    """``{(module, name): wrapper factory}`` for every traced public name."""

    def plain(layer, counter=None):
        return lambda fn: tracer.wrap(layer, fn, counter)

    def evaluator_factory(counter):
        def factory(fn):
            def wrap_evaluator(evaluator):
                return tracer.wrap("vmstat.evaluate", evaluator, _evaluate_flops)

            return tracer.wrap("vmstat.prepare", fn, counter, wrap_evaluator)

        return factory

    derive = plain("rng.derive_stream", _one_call)
    counts = plain("bootstrap.counts", _counts_cells)
    decide = plain("bootstrap.decide")
    v_stat = plain("vmstat.observed", _observed_pairs)
    cvm_stat = plain("vmstat.observed")
    spec = plain("vmstat.spec", _spec_points)
    cvm_eval = evaluator_factory(_cvm_prepare_cells)
    vstat_eval = evaluator_factory(_vstat_prepare_cells)
    return {
        ("harness", "generate_real"): plain("generators.generate"),
        ("harness", "generate_functional"): plain("generators.generate"),
        ("harness", "derive_stream"): derive,
        ("harness", "counts_from_indices"): counts,
        ("harness", "make_cvm_spec"): spec,
        ("harness", "v_statistic"): v_stat,
        ("harness", "cvm_statistic"): cvm_stat,
        ("harness", "cvm_bootstrap_evaluator"): cvm_eval,
        ("harness", "vstat_bootstrap_evaluator"): vstat_eval,
        ("harness", "empirical_quantile"): decide,
        ("harness", "aggregates_from_records"): plain("harness.aggregate", _pooled_values),
        ("cli", "read_sample"): plain("io.read", _read_bytes),
        ("cli", "bootstrap_distribution"): plain("bootstrap.distribution"),
        ("cli", "two_sample_test"): plain("bootstrap.two_sample"),
        ("cli", "cvm_test"): plain("vmstat.test"),
        ("cli", "vstat_test"): plain("vmstat.test"),
        ("cli", "make_cvm_spec"): spec,
        ("cli", "degeneracy_diagnostic"): plain("vmstat.diagnostic"),
        ("vmstat", "derive_stream"): derive,
        ("vmstat", "block_counts_per_replicate"): plain("bootstrap.counts"),
        ("vmstat", "v_statistic"): v_stat,
        ("vmstat", "cvm_statistic"): cvm_stat,
        ("vmstat", "vstat_bootstrap_evaluator"): vstat_eval,
        ("vmstat", "cvm_bootstrap_evaluator"): cvm_eval,
        ("vmstat", "empirical_quantile"): decide,
        ("bootstrap", "derive_stream"): derive,
        ("bootstrap", "counts_from_indices"): counts,
        ("bootstrap", "empirical_quantile"): decide,
    }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the package's call-time lookups through ``tracer``'s wrappers."""
    saved = []
    try:
        for (module_name, name), factory in _wrap_table(tracer).items():
            module = importlib.import_module(f"blockboot.{module_name}")
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, factory(original))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def traced_names() -> list[tuple[str, str]]:
    """The ``(module, name)`` pairs :func:`installed` replaces."""
    return list(_wrap_table(Tracer()))
