"""Self-tests of the benchmark harness (not of the program).

Run explicitly — ``testpaths`` keeps this file out of tier-1::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import compare  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402


def test_percentile_is_nearest_rank_with_sample_count():
    data = list(range(1, 101))
    assert timing.percentile(data, 50) == (50, 100)
    assert timing.percentile(data, 95) == (95, 100)
    assert timing.percentile(data, 100) == (100, 100)
    assert timing.percentile([7.0], 99) == (7.0, 1)
    assert timing.percentile([3, 1, 2], 50) == (2, 3)
    # Nearest rank never interpolates: the value is one of the samples.
    assert timing.percentile([1, 10], 51) == (10, 2)
    with pytest.raises(ValueError):
        timing.percentile([], 50)
    with pytest.raises(ValueError):
        timing.percentile([1], 0)


def test_calibrate_divides_each_op_by_the_host_speed_around_it():
    quiet = timing.KERNEL_QUIET_NS
    # 40 ops; a kernel sample after every 2nd op; the host runs at quiet
    # speed for the first half and 1.5x slower for the second.
    samples = [100.0] * 20 + [150.0] * 20
    marks = list(range(2, 41, 2))
    kernel = [quiet] * 10 + [1.5 * quiet] * 10
    assert timing.calibrate(samples, marks, kernel, group=5) == pytest.approx([100.0] * 40)
    # A slowdown of the program itself is not divided out.
    slower = [1.1 * s for s in samples]
    assert timing.calibrate(slower, marks, kernel, group=5) == pytest.approx([110.0] * 40)
    # The last group takes the kernel samples and the ops that remain.
    assert len(timing.calibrate(samples, marks[:7], kernel[:7], group=5)) == 40
    with pytest.raises(ValueError):
        timing.calibrate(samples, [], [])


def test_calibration_kernel_is_deterministic_work():
    assert timing.calibration_kernel() == timing.calibration_kernel()
    assert timing.kernel_ns(3) > 0


def test_span_self_time_is_duration_minus_children():
    spans = [
        timing.Span("op", 0, 100, -1, 0),
        timing.Span("dhs.count", 10, 40, 0, 0),
        timing.Span("dhs.count", 50, 90, 0, 0),
        timing.Span("setup", 200, 300, -1, -1),
    ]
    assert timing.self_times(spans) == [30, 30, 40, 100]


def test_clock_charges_an_op_with_its_call_spans_only():
    clock = timing.Clock()
    clock.keep = True
    with clock.span("setup.call"):
        pass
    clock.begin_op(3)
    with clock.span("a"):
        pass
    with clock.span("b"):
        pass
    busy = clock.end_op()
    names = [span.name for span in clock.spans]
    assert names == ["setup.call", "op", "a", "b"]
    op, a, b = clock.spans[1:]
    assert (a.parent, b.parent, a.op, b.op) == (1, 1, 3, 3)
    assert clock.spans[0].op == -1 and op.parent == -1
    assert busy == (a.end - a.start) + (b.end - b.start)
    assert busy <= op.end - op.start
    # The set-up call is totalled by name but charged to no op.
    assert clock.calls == {"setup.call": 1, "a": 1, "b": 1, "op": 1}


def test_untraced_clock_times_but_keeps_nothing():
    clock = timing.Clock()
    clock.begin_op(0)
    with clock.span("a"):
        pass
    assert clock.end_op() == clock.busy_ns["a"] > 0
    assert clock.spans == []
    setup_ns, setup_calls = clock.take_totals()
    assert setup_calls == {"a": 1} and clock.busy_ns == {} and clock.calls == {}


def test_gc_shield_disables_and_restores_the_collector():
    assert gc.isenabled()
    with timing.gc_shield():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_ladder_scales_iterations_to_the_minimum_time():
    calls = []
    ns = timing.ladder_ns(lambda: calls.append(1), min_seconds=0.002, repeats=3)
    assert len(calls) > 100  # a ~50 ns call must be repeated to fill 2 ms
    assert 0 < ns < 1e5


METRIC = {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1}


def test_compare_change_is_signed_towards_better():
    assert compare.change(100.0, 90.0, "lower") == pytest.approx(0.1)
    assert compare.change(100.0, 110.0, "lower") == pytest.approx(-0.1)
    assert compare.change(100.0, 110.0, "higher") == pytest.approx(0.1)


@pytest.mark.parametrize(
    "a, b, better, exact, expected",
    [
        (100.0, 109.0, "lower", False, "ok"),
        (100.0, 111.0, "lower", False, "worse"),
        (100.0, 50.0, "lower", False, "ok"),
        (100.0, 91.0, "higher", False, "ok"),
        (100.0, 89.0, "higher", False, "worse"),
        (100.0, 100.0, "lower", True, "ok"),
        (100.0, 100.5, "lower", True, "exact-mismatch"),
        (100.0, 99.5, "lower", True, "exact-mismatch"),
        (100.0, 120.0, "lower", True, "worse"),
    ],
)
def test_compare_verdict_applies_the_bound(a, b, better, exact, expected):
    assert compare.verdict(a, b, better, 0.1, exact) == expected


def _result(seed, p50, hops, failed=0.0, digest="d"):
    metrics = {"op_p50_us": {"value": p50, "unit": "us"}, "hops_per_op": {"value": hops, "unit": "hops"}}
    return {
        "manifest": {"seed": seed},
        "workloads": {"w": {"end_to_end": metrics, "failed_op_share": failed, "sim_digest": digest}},
    }


SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [METRIC, {"name": "hops_per_op", "unit": "hops", "better": "lower", "bound": 0.05}],
}


def test_compare_rows_hold_simulated_metrics_exact_only_for_one_seed():
    same = compare.compare(_result(1, 10.0, 40.0), _result(1, 10.5, 40.1, digest="e"), SPEC)
    assert [row[5] for row in same] == ["ok", "exact-mismatch", "ok", "exact-mismatch"]
    other = compare.compare(_result(1, 10.0, 40.0), _result(2, 10.5, 40.1, digest="e"), SPEC)
    assert [row[5] for row in other] == ["ok", "ok", "ok"]
    failing = compare.compare(_result(1, 10.0, 40.0), _result(1, 10.0, 40.0, failed=0.001), SPEC)
    assert [row[1] for row in failing if row[5] == "worse"] == ["failed_op_share"]


def test_benchmark_json_names_the_workloads_the_harness_runs():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _generated_inputs(seed):
    """What the generator feeds the program over a few insert-churn ops."""
    workload = workloads.InsertChurn(seed)
    workload.n_nodes, workload.populated, workload.next_item = 64, 2000, 2000
    workload.churn_every, workload.checked_ops = 5, 10**9
    clock = timing.Clock()
    workload.setup(clock)
    trace = [tuple(workload.dht.node_ids())]
    for index in range(20):
        workload.between_ops(clock, index)
        result = workload.op(clock, index)
        trace.append((workload.next_item, result.hops, result.bytes))
    trace.append(tuple(workload.dht.node_ids()))
    return trace


def test_one_seed_gives_identical_generated_inputs():
    assert _generated_inputs(11) == _generated_inputs(11)
    assert _generated_inputs(11) != _generated_inputs(12)
