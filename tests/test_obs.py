"""Observability subsystem tests.

Covers the span core (nesting, parent links, ring-buffer loss accounting),
the per-run tracers every flow run records into (thread binding,
forwarding to the process tracer, separate totals for concurrent runs),
the Chrome-trace exporter and its validator, the cross-process shipping
protocol (batch jobs in worker processes re-parented under their dispatch
spans), failure cleanup (a traced stage raising must
not leak /dev/shm segments or a stuck global tracer), bitwise invariance
of placement under tracing, and the CLI ``--trace`` / ``trace`` wiring.
"""

from __future__ import annotations

import ast
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.benchgen.suite import load_benchmark
from repro.flow.batch import BatchJob, run_batch
from repro.flow.cli import main as cli_main
from repro.flow.presets import build_flow
from repro.flow.runner import FIG4_COMPONENTS, FlowRunner
from repro.obs import (
    Tracer,
    active_tracer,
    adopt_spans,
    chrome_trace,
    clock,
    run_tracer,
    serialize_trace,
    span,
    start_tracing,
    stop_tracing,
    tracing_enabled,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracer import _NOOP_SPAN


def _shm_entries():
    """Names currently present under /dev/shm (empty set if unsupported)."""
    root = Path("/dev/shm")
    if not root.exists():  # pragma: no cover - non-Linux
        return set()
    return {entry.name for entry in root.iterdir()}


@pytest.fixture(autouse=True)
def _no_global_tracer_leak():
    """Every test starts and ends with tracing disabled."""
    stop_tracing()
    yield
    stop_tracing()


def _by_name(tracer):
    out = {}
    for record in tracer.records():
        out.setdefault(record.name, []).append(record)
    return out


# ----------------------------------------------------------------------
# Span core
# ----------------------------------------------------------------------
class TestTracerCore:
    def test_nesting_parent_links_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", stage="gp") as outer:
            with tracer.span("inner", i=3) as inner:
                pass
        records = tracer.records()
        assert [r.name for r in records] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.attrs == {"i": 3}
        assert outer.attrs == {"stage": "gp"}
        assert inner.dur >= 0.0 and outer.dur >= inner.dur

    def test_explicit_parent_and_record_complete(self):
        tracer = Tracer()
        root = tracer.begin("dispatch")
        t0 = clock()
        record = tracer.record_complete(
            "kernel.sum", t0, 0.25, parent=root, track="batch-job-1"
        )
        tracer.end(root)
        assert record.parent_id == root.span_id
        assert record.track == "batch-job-1"
        assert record.dur == 0.25

    def test_out_of_order_end_finalizes_both(self):
        tracer = Tracer()
        a = tracer.begin("a")
        b = tracer.begin("b")
        tracer.end(a)  # b is still open: a and everything above leave the stack
        tracer.end(b)
        names = sorted(r.name for r in tracer.records())
        assert names == ["a", "b"]
        assert all(r.dur >= 0.0 for r in tracer.records())

    def test_ring_buffer_drops_newest_but_keeps_aggregates(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.record_complete("tick", float(i), 1.0, parent=None)
        assert len(tracer.records()) == 2
        assert tracer.dropped == 3
        metrics = tracer.metrics()
        assert metrics["spans"]["tick"]["count"] == 5
        assert metrics["spans"]["tick"]["seconds"] == pytest.approx(5.0)
        assert metrics["events"] == 2
        assert metrics["dropped"] == 3

    def test_self_seconds_subtract_direct_children(self):
        """Every way a record arrives (stack span, record_complete on the
        stack or with an explicit parent, adoption) counts toward its
        parent's children, so the self seconds partition the root span."""
        tracer = Tracer()
        root = tracer.begin("root")
        tracer.record_complete("term", root.start, 0.25)
        with tracer.span("step"):
            tracer.record_complete("term", root.start, 0.5)
        worker = Tracer()
        worker.record_complete("job", worker.epoch, 0.125)
        adopt_spans(
            tracer, serialize_trace(worker), parent_id=root.span_id, base=root.start, track="lane"
        )
        tracer.record_complete("term", root.start, 1.0, parent=root)
        tracer.end(root)
        spans = tracer.metrics()["spans"]
        assert spans["term"]["self_seconds"] == spans["term"]["seconds"] == 1.75
        assert spans["job"]["self_seconds"] == 0.125
        step = spans["step"]["seconds"]
        assert spans["step"]["self_seconds"] == pytest.approx(step - 0.5)
        assert spans["root"]["self_seconds"] == pytest.approx(
            root.dur - (0.25 + step + 0.125 + 1.0)
        )
        total = sum(entry["self_seconds"] for entry in spans.values())
        assert total == pytest.approx(root.dur)

    def test_counters_gauges_and_merge(self):
        tracer = Tracer()
        tracer.counter("dispatches")
        tracer.counter("dispatches", 2.0)
        tracer.gauge("gp.overflow", 0.5)
        tracer.gauge("gp.overflow", 0.25)  # gauges keep the last value
        tracer.merge_metrics(
            counters={"dispatches": 1.0}, gauges={"remote": 9.0}, dropped=4
        )
        metrics = tracer.metrics()
        assert metrics["counters"] == {"dispatches": 4.0}
        assert metrics["gauges"] == {"gp.overflow": 0.25, "remote": 9.0}
        assert metrics["dropped"] == 4

    def test_listener_streams_completed_spans(self):
        tracer = Tracer()
        seen = []
        tracer.add_listener(lambda record: seen.append(record.name))
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert seen == ["b", "a"]  # completion order, inner first
        tracer.remove_listener(tracer._listeners[0])
        with tracer.span("c"):
            pass
        assert seen == ["b", "a"]

    def test_module_level_lifecycle(self):
        assert not tracing_enabled()
        # Disabled means free: the same shared no-op CM, no allocation.
        assert span("placement.nesterov", i=1) is _NOOP_SPAN
        tracer = start_tracing()
        assert active_tracer() is tracer
        with pytest.raises(RuntimeError):
            start_tracing()
        with span("work"):
            pass
        stopped = stop_tracing()
        assert stopped is tracer
        assert [r.name for r in stopped.records()] == ["work"]
        assert not tracing_enabled()
        assert stop_tracing() is None


# ----------------------------------------------------------------------
# Run tracers: one per FlowRunner.run, forwarding to the process tracer
# ----------------------------------------------------------------------
class _BarrierStage:
    """Holds each run until every concurrent run has started."""

    name = "barrier"

    def __init__(self, barrier: threading.Barrier) -> None:
        self.barrier = barrier

    def run(self, ctx):
        self.barrier.wait(timeout=60)


class TestRunTracer:
    def test_binding_wins_and_is_restored(self):
        assert active_tracer() is None
        with run_tracer() as tracer:
            # An empty tracer is falsy; the binding is still there.
            assert active_tracer() is tracer and len(tracer) == 0
            with span("work"):
                pass
        assert active_tracer() is None
        assert span("work") is _NOOP_SPAN
        assert tracer.metrics()["spans"]["work"]["count"] == 1

    def test_forwards_spans_ids_and_gauges_to_process_tracer(self):
        process = start_tracing()
        try:
            with span("outer") as outer:
                with run_tracer() as run:
                    with span("inner"):
                        active_tracer().gauge("g", 2.0)
        finally:
            stop_tracing()
        inner = _by_name(process)["inner"][0]
        assert inner.parent_id == outer.span_id
        assert run.records() == [inner]
        assert process.metrics()["gauges"]["g"] == 2.0
        assert "outer" not in run.metrics()["spans"]

    def test_concurrent_run_tracers_forward_without_losing_spans(self):
        process = start_tracing()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def work(_):
            with run_tracer() as run:
                for _ in range(2000):
                    with span("tick"):
                        pass
            return run.metrics()["spans"]["tick"]["count"]

        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                counts = list(pool.map(work, range(8)))
        finally:
            sys.setswitchinterval(interval)
            stop_tracing()
        assert counts == [2000] * 8
        assert process.metrics()["spans"]["tick"]["count"] == 16000
        ids = [record.span_id for record in process.records()]
        assert len(set(ids)) == len(ids)

    def test_concurrent_runs_keep_separate_totals(self):
        barrier = threading.Barrier(2)

        def run(iterations):
            flow = build_flow("dreamplace", max_iterations=iterations)
            runner = FlowRunner([_BarrierStage(barrier), *flow.stages])
            return runner.run(load_benchmark("sb_mini_18", scale=0.15), seed=0)

        with ThreadPoolExecutor(max_workers=2) as pool:
            short, long = pool.map(run, (10, 20))
        for result, iterations in ((short, 10), (long, 20)):
            spans = result.evaluation.trace_metrics["spans"]
            assert spans["placement.nesterov"]["count"] == iterations
            assert spans["flow"]["count"] == 1


# ----------------------------------------------------------------------
# Layer spans: each layer's entry point records one span per call
# ----------------------------------------------------------------------
def _layer_entry_points():
    """Span name -> the entry points whose every call it records."""
    from repro.benchgen import suite, xl
    from repro.core.path_extraction import CriticalPathExtractor
    from repro.core.pin_attraction import PinAttractionObjective, PinPairSet
    from repro.evaluation import Evaluator
    from repro.feedback.composer import WeightComposer
    from repro.feedback.scheduler import FeedbackScheduler
    from repro.placement import AbacusLegalizer, GlobalPlacer
    from repro.placement.density import ElectrostaticDensity
    from repro.placement.legalization.greedy import GreedyLegalizer
    from repro.placement.nesterov import NesterovOptimizer
    from repro.placement.objective import PlacementObjective
    from repro.placement.wirelength import WeightedAverageWirelength
    from repro.route import CongestionEstimator
    from repro.timing import STAEngine
    from repro.timing.mcmm import MultiCornerSTA

    return {
        # load_benchmark calls the classic generator through suite's import.
        "benchgen.generate": ((suite, "generate_circuit"), (xl, "generate_xl_circuit")),
        "flow": ((FlowRunner, "run"),),
        "placement.gp": ((GlobalPlacer, "run"),),
        "placement.nesterov": ((NesterovOptimizer, "step_once"),),
        "placement.wirelength": ((WeightedAverageWirelength, "evaluate"),),
        "placement.density": ((ElectrostaticDensity, "evaluate"),),
        "placement.extra": ((PlacementObjective, "evaluate_extra"),),
        "core.attraction": ((PinAttractionObjective, "evaluate"),),
        "core.extract": ((CriticalPathExtractor, "extract"),),
        "core.pair_update": ((PinPairSet, "update_from_paths"),),
        "timing.sta_init": ((STAEngine, "__init__"), (MultiCornerSTA, "__init__")),
        "timing.sta": ((STAEngine, "update_timing"), (MultiCornerSTA, "update_timing")),
        "feedback.dispatch": ((FeedbackScheduler, "dispatch"),),
        "feedback.compose": ((WeightComposer, "compose"),),
        "route.congestion": ((CongestionEstimator, "estimate"),),
        "legalize.abacus": ((AbacusLegalizer, "legalize"),),
        "legalize.greedy": ((GreedyLegalizer, "legalize"),),
        "evaluation.evaluate": ((Evaluator, "evaluate"),),
    }


class TestLayerSpans:
    @pytest.mark.parametrize(
        "preset, design_name, scale, overrides",
        [
            (
                "efficient_tdp",
                "sb_mini_18",
                0.25,
                dict(
                    max_iterations=60,
                    timing_start_iteration=20,
                    min_timing_iterations=20,
                    timing_update_interval=10,
                    corners="fast,slow",
                ),
            ),
            (
                "routability-gp",
                "sb_cong_1",
                0.3,
                dict(
                    max_iterations=60,
                    refine_iterations=20,
                    congestion_start=10,
                    congestion_interval=10,
                    timing_start=20,
                    timing_interval=20,
                ),
            ),
        ],
        ids=["efficient_tdp-mcmm", "routability-gp"],
    )
    def test_span_count_is_entry_point_calls(
        self, monkeypatch, preset, design_name, scale, overrides
    ):
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        entry_points = _layer_entry_points()
        for name, targets in entry_points.items():
            for owner, attribute in targets:
                monkeypatch.setattr(owner, attribute, counting(name, getattr(owner, attribute)))
        tracer = start_tracing()
        try:
            build_flow(preset, **overrides).run(load_benchmark(design_name, scale=scale))
        finally:
            stop_tracing()
        spans = tracer.metrics()["spans"]
        counts = {name: spans[name]["count"] for name in entry_points if name in spans}
        assert counts == calls
        # Every layer the paper's flow and the routability flow reach ran.
        assert calls["placement.nesterov"] > 0 and calls["timing.sta"] > 0
        if preset == "efficient_tdp":
            assert calls["core.extract"] == 2 * calls["core.pair_update"]  # two corners
        else:
            assert calls["route.congestion"] > 0 and calls["feedback.compose"] > 0


    def test_fig4_keys_name_recorded_spans(self):
        # A key no span records (say, of a deleted layer) would silently
        # count nothing; a key ending in "." needs one name under it.
        exact, prefixes = _recorded_span_names()
        names = exact | prefixes
        stale = [
            key
            for key in FIG4_COMPONENTS
            if not (
                any(name.startswith(key) for name in names)
                if key.endswith(".")
                else key in exact
            )
        ]
        assert stale == []


def _recorded_span_names():
    """Span names recorded in ``src/repro``: the literal first argument of
    every ``span(`` / ``traced(`` / ``record_complete(`` call, and the
    literal prefix of an f-string one (``stage.``, ``feedback.``)."""
    exact, prefixes = set(), set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if callee not in ("span", "traced", "record_complete"):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                exact.add(first.value)
            elif (
                isinstance(first, ast.JoinedStr)
                and first.values
                and isinstance(first.values[0], ast.Constant)
            ):
                prefixes.add(first.values[0].value)
    return exact, prefixes


# ----------------------------------------------------------------------
# Chrome trace export + validation
# ----------------------------------------------------------------------
class TestChromeExport:
    def _traced(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", i=1):
                pass
        root = tracer.begin("dispatch")
        tracer.record_complete(
            "kernel.sum", root.start, 0.001, parent=root, track="batch-job-0"
        )
        tracer.end(root)
        return tracer

    def test_export_is_valid_and_nested(self, tmp_path):
        tracer = self._traced()
        payload = chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"
        events = {
            e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"
        }
        outer, inner = events["outer"], events["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
        assert inner["args"]["i"] == 1
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        # Adopted lane gets its own tid with a thread_name metadata event.
        lanes = {
            e["args"]["name"]: e["tid"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lanes["main"] == 0
        assert "batch-job-0" in lanes
        assert events["kernel.sum"]["tid"] == lanes["batch-job-0"]
        # Aggregate metrics travel in otherData.
        assert payload["otherData"]["spans"]["outer"]["count"] == 1
        out = tmp_path / "trace.json"
        write_chrome_trace(out, tracer)
        assert validate_chrome_trace(json.loads(out.read_text())) == []

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": []}) != []
        bad_event = {"traceEvents": [{"name": 7, "ph": "X", "pid": 1, "tid": 0}]}
        assert validate_chrome_trace(bad_event) != []
        negative = {
            "traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": -1, "dur": 1}
            ]
        }
        assert validate_chrome_trace(negative) != []


# ----------------------------------------------------------------------
# Cross-process shipping protocol
# ----------------------------------------------------------------------
class TestSpanAdoption:
    def test_collector_payload_reparents_under_dispatch(self):
        child = Tracer()
        with child.span("kernel.outer", task=0):
            with child.span("kernel.step"):
                pass
        child.counter("worker.tasks")
        payload = serialize_trace(child)

        parent = Tracer()
        dispatch = parent.begin("kernel.dispatch")
        adopted = adopt_spans(
            parent,
            payload,
            parent_id=dispatch.span_id,
            base=dispatch.start,
            track="batch-job-3",
        )
        parent.end(dispatch)
        assert adopted == 2
        spans = _by_name(parent)
        outer = spans["kernel.outer"][0]
        step = spans["kernel.step"][0]
        # Root re-parented under the dispatch span; internal links remapped.
        assert outer.parent_id == dispatch.span_id
        assert step.parent_id == outer.span_id
        assert outer.track == "batch-job-3"
        assert outer.start >= dispatch.start
        # Fresh ids: no collision with the parent's own id space.
        ids = [r.span_id for r in parent.records()]
        assert len(ids) == len(set(ids))
        assert parent.metrics()["counters"] == {"worker.tasks": 1.0}

    def test_empty_payload_is_noop(self):
        parent = Tracer()
        assert adopt_spans(parent, None, parent_id=1, base=0.0, track="x") == 0
        assert parent.records() == []


# ----------------------------------------------------------------------
# Batch: worker processes ship their spans back for re-parenting
# ----------------------------------------------------------------------
def _tiny_jobs():
    return [
        BatchJob(
            design="sb_mini_18",
            preset="dreamplace",
            scale=0.2,
            overrides={"max_iterations": 5},
            label=f"job{i}",
        )
        for i in range(2)
    ]


class TestBatchTracing:
    def test_process_executor_ships_and_adopts_onto_job_lanes(self):
        tracer = start_tracing()
        try:
            result = run_batch(_tiny_jobs(), max_workers=2)
        finally:
            stop_tracing()
        spans = _by_name(tracer)
        batch_run = spans["batch.run"][0]
        jobs = spans["batch.job"]
        assert len(jobs) == 2
        assert all(r.parent_id == batch_run.span_id for r in jobs)
        assert {r.track for r in jobs} == {"batch-job-0", "batch-job-1"}
        # The whole child flow shipped back: flow + GP spans on the lanes,
        # with the child's internal nesting intact after id remapping.
        flow_runs = spans["flow"]
        assert {r.track for r in flow_runs} == {"batch-job-0", "batch-job-1"}
        job_ids = {r.span_id for r in jobs}
        assert all(r.parent_id in job_ids for r in flow_runs)
        stage_ids = {r.span_id for r in spans["stage.global_place"]}
        assert all(r.parent_id in stage_ids for r in spans["placement.gp"])
        gp_ids = {r.span_id for r in spans["placement.gp"]}
        assert all(r.parent_id in gp_ids for r in spans["placement.nesterov"])
        for item in result.items:
            assert item.trace is None
            assert "trace" not in item.as_dict()
        assert all(item.error is None for item in result.items)


# ----------------------------------------------------------------------
# Failure path: a traced stage raising leaks neither shm nor the tracer
# ----------------------------------------------------------------------
class _BoomStage:
    name = "boom"

    def run(self, ctx):
        raise RuntimeError("boom")


class TestTracedFailureCleanup:
    def test_stage_exception_finalizes_spans_and_keeps_shm_clean(self):
        design = load_benchmark("sb_mini_18", scale=0.2)
        flow = build_flow("dreamplace", max_iterations=5, kernel_workers=2)
        runner = FlowRunner(list(flow.stages[:1]) + [_BoomStage()], name="boom-flow")
        before = _shm_entries()
        tracer = start_tracing()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                runner.run(design, seed=0)
        finally:
            stop_tracing()
        assert _shm_entries() == before
        spans = _by_name(tracer)
        # The span CMs unwound with the exception: everything is finalized.
        assert all(r.dur >= 0.0 for r in tracer.records())
        assert "stage.boom" in spans
        assert "flow" in spans


# ----------------------------------------------------------------------
# Bitwise invariance: tracing must not perturb placement
# ----------------------------------------------------------------------
class TestBitwiseInvariance:
    def test_traced_flow_positions_bitwise_equal_untraced(self):
        design_a = load_benchmark("sb_mini_18", scale=0.3)
        plain = build_flow("dreamplace", max_iterations=15).run(design_a, seed=0)
        design_b = load_benchmark("sb_mini_18", scale=0.3)
        start_tracing()
        try:
            traced = build_flow("dreamplace", max_iterations=15).run(
                design_b, seed=0
            )
        finally:
            stop_tracing()
        assert np.array_equal(plain.x, traced.x)
        assert np.array_equal(plain.y, traced.y)
        assert plain.evaluation.hpwl == traced.evaluation.hpwl
        # Both runs carry their own run tracer's aggregate snapshot.
        assert plain.evaluation.trace_metrics["spans"]["placement.nesterov"]["count"] == 15
        snapshot = traced.evaluation.trace_metrics
        assert snapshot is not None
        assert "placement.nesterov" in snapshot["spans"]
        assert snapshot["spans"]["placement.nesterov"]["count"] == 15
        assert "gp.hpwl" in snapshot["gauges"]
        assert "trace_metrics" in traced.context.metadata
        assert "trace_metrics" in traced.evaluation.as_dict()


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCliTracing:
    _COMMON = [
        "sb_mini_18",
        "--preset",
        "dreamplace",
        "--scale",
        "0.15",
        "--set",
        "max_iterations=5",
    ]

    def test_run_trace_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        code = cli_main(["run", *self._COMMON, "--trace", str(out)])
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"flow", "stage.global_place", "placement.nesterov"} <= names
        # The CLI tore its tracer down again.
        assert not tracing_enabled()

    def test_trace_subcommand_defaults_and_output(self, tmp_path, capsys):
        out = tmp_path / "sub.trace.json"
        code = cli_main(["trace", *self._COMMON, "-o", str(out)])
        assert code == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        assert not tracing_enabled()

    def test_batch_trace_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "batch.trace.json"
        code = cli_main(
            [
                "batch",
                "sb_mini_18",
                "sb_mini_4",
                "--preset",
                "dreamplace",
                "--scale",
                "0.15",
                "--set",
                "max_iterations=5",
                "--jobs",
                "2",
                "--trace",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"batch.run", "batch.job", "flow"} <= names
        assert not tracing_enabled()
