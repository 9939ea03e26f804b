"""Per-layer spans for the traced benchmark run, recorded from outside.

:func:`install` wraps each layer's public entry points (the table below)
so every call opens a span on a benchmark-owned :class:`repro.obs.Tracer`.
The process-wide tracer stays off, so the program's own spans do not
record.  :func:`layer_metrics` turns the spans into self seconds (a span's
duration minus the wrapped calls inside it) and call counts.  Self times
partition the traced wall: the layers inside ``FlowRunner.run`` plus
``flow.self_s`` sum to the traced flow seconds.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from repro.benchgen import synthetic, xl
from repro.core.path_extraction import CriticalPathExtractor
from repro.core.pin_attraction import PinAttractionObjective, PinPairSet
from repro.evaluation import Evaluator
from repro.feedback.composer import WeightComposer
from repro.feedback.scheduler import FeedbackScheduler
from repro.flow import FlowRunner
from repro.netlist import Design
from repro.obs import Tracer
from repro.parallel import KernelPool
from repro.placement import AbacusLegalizer, GlobalPlacer
from repro.placement.density import ElectrostaticDensity
from repro.placement.legalization.greedy import GreedyLegalizer
from repro.placement.nesterov import NesterovOptimizer
from repro.placement.objective import PlacementObjective
from repro.placement.wirelength import WeightedAverageWirelength
from repro.route import CongestionEstimator
from repro.timing import STAEngine
from repro.timing.mcmm import MultiCornerSTA

#: Span name of ``FlowRunner.run``; its spans bound the traced flow wall.
FLOW_SPAN = "flow"
#: Spans of design set-up, which runs outside every flow span.
SETUP_SPANS = ("benchgen.generate", "netlist.finalize")


class Layer(NamedTuple):
    span: str
    seconds_metric: str
    calls_metric: str
    targets: Tuple[Tuple[Any, str], ...]


def _extract_attrs(args: tuple, kwargs: dict, returned: Any) -> Dict[str, int]:
    """Paths, endpoints covered and failing endpoints of one extraction."""
    extractor = args[0]
    result = args[1] if len(args) > 1 else kwargs.get("result")
    if result is None:
        result = extractor.engine.last_result
    paths, stats = returned
    return {
        "paths": len(paths),
        "covered": stats.num_endpoints,
        "failing": result.num_failing_endpoints,
    }


LAYERS: Tuple[Layer, ...] = (
    Layer("benchgen.generate", "benchgen.generate_s", "benchgen.generate_calls",
          ((synthetic, "generate_circuit"), (xl, "generate_xl_circuit"))),
    Layer("netlist.finalize", "netlist.finalize_s", "netlist.finalize_calls",
          ((Design, "finalize"),)),
    Layer(FLOW_SPAN, "flow.self_s", "flow.runs", ((FlowRunner, "run"),)),
    Layer("placement.gp", "placement.gp_self_s", "placement.gp_calls",
          ((GlobalPlacer, "run"),)),
    Layer("placement.nesterov", "placement.nesterov_self_s", "placement.gp_iters",
          ((NesterovOptimizer, "step_once"),)),
    Layer("placement.wirelength", "placement.wirelength_s", "placement.wirelength_calls",
          ((WeightedAverageWirelength, "evaluate"),)),
    Layer("placement.density", "placement.density_s", "placement.density_calls",
          ((ElectrostaticDensity, "evaluate"),)),
    Layer("placement.extra", "placement.extra_self_s", "placement.extra_calls",
          ((PlacementObjective, "evaluate_extra"),)),
    Layer("core.attraction", "core.attraction_s", "core.attraction_calls",
          ((PinAttractionObjective, "evaluate"),)),
    Layer("core.extract", "core.extract_s", "core.extract_calls",
          ((CriticalPathExtractor, "extract"),)),
    Layer("core.pair_update", "core.pair_update_s", "core.pair_update_calls",
          ((PinPairSet, "update_from_paths"),)),
    Layer("timing.sta_init", "timing.sta_init_s", "timing.sta_init_calls",
          ((STAEngine, "__init__"), (MultiCornerSTA, "__init__"))),
    Layer("timing.sta", "timing.sta_s", "timing.sta_calls",
          ((STAEngine, "update_timing"), (MultiCornerSTA, "update_timing"))),
    Layer("feedback.dispatch", "feedback.dispatch_self_s", "feedback.dispatch_calls",
          ((FeedbackScheduler, "dispatch"),)),
    Layer("feedback.compose", "feedback.compose_s", "feedback.compose_calls",
          ((WeightComposer, "compose"),)),
    Layer("route.congestion", "route.congestion_s", "route.congestion_calls",
          ((CongestionEstimator, "estimate"),)),
    Layer("legalize.abacus", "legalize.abacus_s", "legalize.abacus_calls",
          ((AbacusLegalizer, "legalize"),)),
    Layer("legalize.greedy", "legalize.greedy_s", "legalize.greedy_calls",
          ((GreedyLegalizer, "legalize"),)),
    Layer("evaluation.evaluate", "evaluation.evaluate_self_s", "evaluation.evaluate_calls",
          ((Evaluator, "evaluate"),)),
    Layer("parallel.dispatch", "parallel.dispatch_s", "parallel.dispatches",
          ((KernelPool, "run"),)),
)


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    attrs = _extract_attrs if name == "core.extract" else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        handle = tracer.begin(name)
        try:
            returned = fn(*args, **kwargs)
            if attrs is not None:
                handle.attrs = attrs(args, kwargs, returned)
            return returned
        finally:
            tracer.end(handle)

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the function that unwraps."""
    originals: List[Tuple[Any, str, Callable]] = []
    try:
        for layer in LAYERS:
            for owner, attribute in layer.targets:
                original = owner.__dict__[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, _wrap(tracer, layer.span, original))
    except BaseException:
        _restore(originals)
        raise
    return functools.partial(_restore, originals)


def _restore(originals: List[Tuple[Any, str, Callable]]) -> None:
    for owner, attribute, original in reversed(originals):
        setattr(owner, attribute, original)


def layer_metrics(tracer: Tracer) -> Tuple[Dict[str, float], float]:
    """Self seconds and call counts per layer, plus the traced flow wall.

    Extraction spans also give ``core.paths`` and ``core.endpoint_coverage``
    (endpoints covered over failing endpoints; 0 when nothing was
    extracted).  Raises if the tracer dropped spans, because the sums would
    then be short.
    """
    if tracer.dropped:
        raise RuntimeError(f"tracer dropped {tracer.dropped} spans; raise its capacity")
    records = tracer.records()
    child_seconds: Dict[int, float] = defaultdict(float)
    for record in records:
        if record.parent_id is not None:
            child_seconds[record.parent_id] += record.dur
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    extraction = defaultdict(int)
    flow_seconds = 0.0
    for record in records:
        seconds[record.name] += record.dur - child_seconds[record.span_id]
        calls[record.name] += 1
        if record.name == FLOW_SPAN:
            flow_seconds += record.dur
        elif record.name == "core.extract":
            for key, value in record.attrs.items():
                extraction[key] += value
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[layer.seconds_metric] = seconds[layer.span]
        metrics[layer.calls_metric] = calls[layer.span]
    metrics["core.paths"] = extraction["paths"]
    metrics["core.endpoint_coverage"] = _ratio(extraction["covered"], extraction["failing"])
    metrics["legalize.fallback_ratio"] = _ratio(
        calls["legalize.greedy"], calls["legalize.abacus"]
    )
    return metrics, flow_seconds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
