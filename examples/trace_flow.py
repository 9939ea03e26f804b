#!/usr/bin/env python3
"""Tracing walkthrough: record a flow run as a Perfetto trace + metrics.

Enables the process-wide tracer of the unified tracing subsystem
(`repro.obs`), runs the paper's Efficient-TDP flow on a synthetic design,
and shows everything the subsystem produces:

* hierarchical spans, one per layer entry point — ``flow`` > ``stage.*`` >
  ``placement.gp`` > ``placement.nesterov`` > ``placement.wirelength``;
* user spans — wrap any region with ``span("name", key=value)``;
* a live listener — a callback invoked as each span finalizes;
* counters/gauges — aggregated exactly even when the ring buffer drops;
* a Chrome trace-event JSON file that loads in https://ui.perfetto.dev;
* the run's own metrics — every flow run records into its own run tracer
  (traced or not), so ``result.stage_seconds`` and ``result.breakdown()``
  (the Fig. 4 components: span self seconds summed per component) are
  available on any run.

Tracing performs no array arithmetic, so the placement is bitwise
identical to an untraced run (asserted at the end).

Run:  python examples/trace_flow.py [TRACE_JSON]   (default: trace.json)
      (or, with the package installed:
       repro run sb_mini_18 --preset efficient_tdp --trace trace.json)
"""

import sys

import numpy as np

from repro import build_flow, load_benchmark
from repro.obs import (
    chrome_trace,
    span,
    start_tracing,
    stop_tracing,
    validate_chrome_trace,
    write_chrome_trace,
)

SETTINGS = dict(
    max_iterations=60,
    timing_start_iteration=20,
    min_timing_iterations=20,
    timing_update_interval=10,
)


def main() -> None:
    name = "sb_mini_18"
    design = load_benchmark(name, scale=0.4)

    # Reference run with the process tracer OFF: only the run's own tracer
    # records, and its metrics travel with the result.
    untraced = build_flow("efficient_tdp", **SETTINGS).run(design, seed=0)
    components = {k: round(v, 3) for k, v in sorted(untraced.breakdown().items())}
    print(f"untraced run: {untraced.runtime_seconds:.3f}s, components {components}")

    tracer = start_tracing()

    # Optional: watch spans stream in as they finalize (a metrics bridge
    # would push these to statsd/OTLP; here we just count stage walls).
    stage_walls = {}

    def on_span(record):
        if record.name.startswith("stage."):
            stage_walls[record.name] = record.dur

    tracer.add_listener(on_span)

    try:
        # User spans nest around the library's own instrumentation.
        with span("example.traced_run", design=name):
            traced = build_flow("efficient_tdp", **SETTINGS).run(design, seed=0)
    finally:
        stop_tracing()

    out = sys.argv[1] if len(sys.argv) > 1 else "trace.json"
    write_chrome_trace(out, tracer)
    payload = chrome_trace(tracer)
    problems = validate_chrome_trace(payload)

    metrics = tracer.metrics()
    print(f"design: {name}  seed 0")
    print(f"trace:  {out}  ({len(payload['traceEvents'])} events, "
          f"{len(problems)} validation problems)  -> open in ui.perfetto.dev")
    print(f"spans recorded: {sum(s['count'] for s in metrics['spans'].values())} "
          f"(dropped: {metrics['dropped']})")
    print(f"{'span':<24}{'count':>8}{'total ms':>12}{'self ms':>10}")
    for span_name in ("flow", "stage.global_place", "placement.gp",
                      "placement.nesterov", "placement.wirelength"):
        stats = metrics["spans"].get(span_name)
        if stats:
            print(f"{span_name:<24}{stats['count']:>8}"
                  f"{stats['seconds'] * 1e3:>12.2f}{stats['self_seconds'] * 1e3:>10.2f}")
    print(f"stage walls seen by listener: "
          f"{ {k: round(v, 3) for k, v in sorted(stage_walls.items())} }")
    if metrics["gauges"]:
        final_hpwl = metrics["gauges"].get("gp.hpwl")
        if final_hpwl is not None:
            print(f"gp.hpwl gauge (final GP HPWL): {final_hpwl:.1f}")

    # The bit-exactness contract: tracing never perturbs the placement.
    assert np.array_equal(untraced.x, traced.x)
    assert np.array_equal(untraced.y, traced.y)
    print("traced placement bitwise identical to untraced run: OK")


if __name__ == "__main__":
    main()
