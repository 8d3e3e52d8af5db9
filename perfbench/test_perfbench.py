"""Tests of the benchmark's own arithmetic and of its wrapper install/restore."""

import importlib

import numpy as np
import pytest

import tracing
import worker


def _span(layer, start, end, parent, op="op"):
    return [layer, start, end, parent, op]


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert tracing.union_length([(0.0, 5.0), (1.0, 2.0)]) == 5.0


def test_self_time_is_duration_minus_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 6.0, 7.0, 0),
        _span("c", 6.25, 6.5, 2),
    ]
    assert tracing.self_times(spans) == [7.0, 2.0, 0.75, 0.25]
    # Without overlap, the self times of one tree add up to its root.
    assert sum(tracing.self_times(spans)) == 10.0


def test_layer_totals_group_by_op_and_layer():
    spans = [
        _span("root", 0.0, 4.0, -1, "x"),
        _span("leaf", 1.0, 2.0, 0, "x"),
        _span("root", 4.0, 6.0, -1, "y"),
        _span("leaf", 4.5, 5.0, 2, "y"),
        _span("leaf", 5.0, 5.5, 2, "y"),
    ]
    assert tracing.layer_totals(spans) == {
        ("x", "root"): 3.0, ("x", "leaf"): 1.0,
        ("y", "root"): 1.0, ("y", "leaf"): 1.0,
    }


def test_tracer_nests_spans_and_rejects_crossed_ends():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    assert tracer.spans[inner][tracing.PARENT] == outer
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_install_replaces_every_name_and_restores_it():
    names = tracing.traced_names()
    originals = {key: getattr(importlib.import_module(f"blockboot.{key[0]}"), key[1])
                 for key in names}
    with pytest.raises(KeyError):
        with tracing.installed(tracing.Tracer()):
            for (module, name), original in originals.items():
                current = getattr(importlib.import_module(f"blockboot.{module}"), name)
                assert current is not original
                assert current.__wrapped__ is original
            raise KeyError("leave the block with an error")
    for (module, name), original in originals.items():
        assert getattr(importlib.import_module(f"blockboot.{module}"), name) is original


def test_traced_call_is_transparent_and_counted():
    from blockboot import vmstat
    from blockboot.bootstrap import BlockPlan
    from blockboot.hilbert import HilbertSample

    sample = HilbertSample.from_scalars(np.random.default_rng(3).standard_normal(60))
    plan = BlockPlan(n=60, p=5)
    kernel = vmstat.product_kernel()
    plain = vmstat.vstat_test(sample, kernel, plan, 20, 7, 0.1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        root = tracer.begin("root")
        traced = vmstat.vstat_test(sample, kernel, plan, 20, 7, 0.1)
        tracer.end(root)
    assert traced["statistic"] == plain["statistic"]
    assert np.array_equal(traced["replicates"], plain["replicates"])
    layers = {layer for (_, layer) in tracing.layer_totals(tracer.spans)}
    assert {"vmstat.observed", "vmstat.prepare", "vmstat.evaluate",
            "bootstrap.counts", "bootstrap.decide"} <= layers
    counts = {name: amount for (_, name), amount in tracer.counts.items()}
    assert counts["evaluate_flops"] == 2 * 20 * 12 * 12
    assert counts["prepare_cells"] == 60 * 60
    assert counts["observed_pairs"] == 60 * 60
    assert counts["count_cells"] == 20 * 12


def test_tail_is_the_value_with_ten_samples_beyond_it():
    assert worker.tail(list(range(10))) == (None, None)
    value, percentile = worker.tail([float(v) for v in range(40)])
    assert value == 29.0
    assert percentile == 75.0


def test_study_zero_uses_the_seed_itself():
    assert worker.study_seed(20260809, 0) == 20260809
    assert len({worker.study_seed(1, i) for i in range(100)}) == 100


def test_pool_counts_seconds_at_the_reference_speed():
    import run

    ref = worker.CALIBRATION_REF_S
    common = {"checks": {"attempted": 8, "failed": 0, "failures": {}}, "peak_rss_mb": 1.0,
              "versions": {}, "rate_successes": 1, "rate_trials": 8}
    parts = [
        # At the reference speed, then at half of it.
        dict(common, setup_s=2.0, calibration_s=[ref, ref], ops=8, op_seconds=1.0,
             op_rates=[8.0]),
        dict(common, setup_s=4.0, calibration_s=[2 * ref], ops=8, op_seconds=2.0,
             op_rates=[4.0]),
    ]
    out = run.pool("mc-cvm", parts)
    assert out["speeds"] == [1.0, 0.5]
    assert out["ops_per_s"] == 16 / (1.0 + 2.0 * 0.5)
    assert out["setup_s"] == 2.0
    assert out["raw_ops_per_s"] == 16 / 3.0
    assert out["raw_setup_s"] == 3.0
    assert out["checks"]["failed"] == 0
