"""Unified tracing & metrics: hierarchical spans, counters, trace export.

Quick start::

    from repro.obs import start_tracing, stop_tracing, span, write_chrome_trace

    tracer = start_tracing()
    try:
        with span("flow.run", design="sb_mini_18"):
            ...
    finally:
        stop_tracing()
    write_chrome_trace("trace.json", tracer)   # load in ui.perfetto.dev

``span(...)`` is free when no tracer is active, so instrumentation stays
inline in hot loops.  Every ``FlowRunner.run`` records into its own
:func:`run_tracer`, which forwards to the process tracer above when one is
active; stage walls, the Fig. 4 breakdown and ``--profile`` are projections
of that run tracer's ``metrics()``.  ``clock()`` is the repo's blessed
monotonic clock (the ``raw-timing`` contract rule bans direct
``time.perf_counter`` use outside this package).
"""

from .export import chrome_trace, validate_chrome_trace, write_chrome_trace
from .remote import adopt_spans, serialize_trace
from .tracer import (
    DEFAULT_CAPACITY,
    SpanRecord,
    Tracer,
    active_tracer,
    clock,
    run_tracer,
    span,
    start_tracing,
    stop_tracing,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "adopt_spans",
    "chrome_trace",
    "clock",
    "run_tracer",
    "serialize_trace",
    "span",
    "start_tracing",
    "stop_tracing",
    "tracing_enabled",
    "validate_chrome_trace",
    "write_chrome_trace",
]
