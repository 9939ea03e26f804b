"""Micro-benchmark of the array-first design core (perf trajectory anchor).

Measures, for a few sb_mini designs:

* design build time (synthetic generation + finalize);
* ``CompiledDesign`` snapshot: compile time and rebuild time (unpickle plus
  ``to_design``);
* STA update cost: one full pass on the generated placement;
* multi-corner (MCMM) STA wall time for 1/2/4 corners — engine construction
  plus the first full update, i.e. what a flow pays to stand the analysis
  up — and the resulting 4-corner/single-corner ratio (the graph build and
  wire geometry are shared across corners, so the target is < 2.5x);
* RUDY congestion map build time (the routability subsystem's inner-loop
  cost: one full demand/capacity/pin-density estimate) — O(nets + bins),
  gated at < 50ms on every suite design;
* congestion-weighted global-place overhead: wall time of a fixed-length
  GP run with the in-loop congestion net weighting at the
  ``routability-gp`` preset's default cadence versus the plain run — the
  feedback subsystem's per-update cost folded into real placement
  iterations, gated at <= 15% overhead;
* tracing overhead: the same fixed-length plain GP run with the unified
  tracer (``repro.obs``) active — final positions are asserted bitwise
  identical in-bench, and the traced/plain wall ratio is gated at <= 3%
  (``--max-tracing-overhead``); both numbers come from the same run, so
  the gate holds on any host;
* back-end walls: Abacus legalization (array-backed path versus the
  object-based ``_reference_legalize`` twin, bitwise-asserted in-bench)
  and delta-HPWL detailed placement versus the full-recompute
  ``_reference_refine`` twin, both run from the same seed-0 initial
  placement.  The XL tier hard-asserts the sb_xl_1 full-scale speedups
  (legalization >= 5x, detailed placement >= 20x per candidate);
* critical-path extraction and the Eq. 9 pair update, on both tiers:
  ``report_timing_endpoint(n, 1)`` over every failing endpoint (the
  vectorized k=1 chase) versus the per-endpoint heap search, and the
  array-backed ``PinPairSet.update_from_paths`` versus the dict-loop
  ``_reference_update_from_paths``, both asserted equal in-bench; each row
  also records the Table I columns (paths, endpoints, pin pairs) and the
  number of endpoints the chase handed to the heap fallback.

Writes ``benchmarks/results/BENCH_core.json`` (override with ``--out``) so
successive PRs can track the numbers.

``--check`` additionally compares the freshly measured numbers against the
recorded baseline JSON and exits non-zero when single-corner STA regresses
more than ``--check-tolerance`` (default 10%), the 4-corner ratio exceeds
``--max-mcmm-ratio`` (default 2.5), or the congestion map build exceeds
``--max-congestion-ms`` (default 50ms) — the CI perf gate.  ``--fresh-out``
writes the freshly measured rows to a separate JSON even in check mode (CI
uploads it as a workflow artifact for the perf trajectory).

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py [--designs sb_mini_18,...]
    PYTHONPATH=src python benchmarks/bench_core.py --check
"""

from __future__ import annotations

import argparse
import json
import pickle
import platform
import time
from pathlib import Path

import numpy as np

from repro.benchgen.suite import load_benchmark
from repro.feedback import CongestionNetWeighting, FeedbackCadence
from repro.netlist.compiled import compile_design
from repro.netlist.core import as_core
from repro.obs import run_tracer, start_tracing, stop_tracing
from repro.placement.global_placer import GlobalPlacer, PlacementConfig
from repro.route.rudy import CongestionEstimator
from repro.timing.mcmm import MultiCornerSTA
from repro.timing.constraints import Corner
from repro.timing.sta import STAEngine

DEFAULT_DESIGNS = ["sb_mini_18", "sb_mini_1", "sb_mini_10", "sb_cong_1"]
# XL tier: hot-path walls (congestion map, density splat, GP iteration,
# legalization) plus the full-STA wall, trend-gated like any other row (see
# bench_trend.py).
XL_DESIGNS = ["sb_xl_1", "sb_xl_2"]
# Fixed-length GP run for the XL per-iteration rows: long enough to
# amortize the first-iteration setup (scatter plans, arena warm-up), short
# enough to stay time-boxed at full scale.
GP_XL_ITERS = 10
MCMM_CORNER_COUNTS = (1, 2, 4)
# Congestion-weighted GP overhead measurement: fixed-length runs (stop
# criterion disabled so both configurations execute exactly GP_ITERATIONS
# iterations) with the routability-gp preset's default weighting cadence.
GP_ITERATIONS = 150
GP_CADENCE = dict(start=100, interval=10)
# Candidate budget for the XL detailed-placement pair: the full-recompute
# reference costs a whole-design hpwl_per_net per candidate, so an uncapped
# reference run at 100k cells would take minutes.  Both paths see the
# identical cap, so the recorded speedup is the honest per-candidate ratio
# (the delta path's uncapped wall is recorded separately).
DETAILED_XL_CANDIDATES = 2000
# Hard floors for the sb_xl_1 full-scale back-end speedups (the PR-10
# acceptance gates): array-backed legalization vs the object-based
# reference, and per-candidate delta-HPWL refine vs full recompute.
LEGALIZE_XL_MIN_SPEEDUP = 5.0
DETAILED_XL_MIN_SPEEDUP = 20.0


def _time(fn, repeat: int = 3):
    """Best-of-N wall time and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _bench_backend(
    name: str,
    design,
    cx: np.ndarray,
    cy: np.ndarray,
    *,
    max_candidates=None,
    legalize_repeat: int = 1,
    detailed_repeat: int = 1,
) -> dict:
    """Legalization + detailed-placement rows (shared by both tiers).

    Every variant is bitwise-compared in-bench: the array-backed legalizer
    against its object-based reference twin, and the delta-HPWL refine
    against the full-recompute reference.  The reference sides run once — they are the
    slow paths being retired, and best-of-N would only shrink the fast side.
    """
    from repro.placement.detailed import DetailedPlacer
    from repro.placement.legalization.abacus import AbacusLegalizer

    fields: dict = {}
    legalizer = AbacusLegalizer(design)
    legalize_seconds, legal = _time(
        lambda: legalizer.legalize(cx, cy), repeat=legalize_repeat
    )
    reference_seconds, reference = _time(
        lambda: legalizer._reference_legalize(cx, cy), repeat=1
    )
    if not (
        np.array_equal(legal.x, reference.x)
        and np.array_equal(legal.y, reference.y)
        and legal.num_failed == reference.num_failed
        and legal.num_overfull_rows == reference.num_overfull_rows
    ):
        raise AssertionError(
            f"{name}: array-backed legalization differs from reference"
        )
    fields["legalize_ms"] = round(legalize_seconds * 1e3, 3)
    fields["legalize_reference_ms"] = round(reference_seconds * 1e3, 3)
    fields["legalize_speedup"] = round(
        reference_seconds / max(legalize_seconds, 1e-9), 3
    )

    placer = DetailedPlacer(design)
    detailed_seconds, (dx, dy, accepted) = _time(
        lambda: placer.refine(legal.x, legal.y, max_candidates=max_candidates),
        repeat=detailed_repeat,
    )
    reference_seconds, (rx, ry, reference_accepted) = _time(
        lambda: placer._reference_refine(
            legal.x, legal.y, max_candidates=max_candidates
        ),
        repeat=1,
    )
    if not (
        np.array_equal(dx, rx)
        and np.array_equal(dy, ry)
        and accepted == reference_accepted
    ):
        raise AssertionError(f"{name}: delta-HPWL refine differs from reference")
    fields["detailed_ms"] = round(detailed_seconds * 1e3, 3)
    fields["detailed_reference_ms"] = round(reference_seconds * 1e3, 3)
    fields["detailed_speedup"] = round(
        reference_seconds / max(detailed_seconds, 1e-9), 3
    )
    fields["detailed_accepted_swaps"] = int(accepted)
    if max_candidates is not None:
        # The capped pair above is the honest per-candidate comparison; the
        # uncapped delta wall shows what a real full refinement pass costs
        # (the reference could not afford one at XL sizes at all).
        fields["detailed_candidates"] = int(max_candidates)
        seconds, (_fx, _fy, full_accepted) = _time(
            lambda: placer.refine(legal.x, legal.y), repeat=1
        )
        fields["detailed_full_ms"] = round(seconds * 1e3, 3)
        fields["detailed_full_accepted_swaps"] = int(full_accepted)
    return fields


def _bench_extraction(name: str, design, cx: np.ndarray, cy: np.ndarray, *, repeat: int) -> dict:
    """Critical-path extraction and Eq. 9 pair-update rows (shared by both tiers).

    ``report_timing_endpoint(n, 1)`` over every failing endpoint of the
    seed-0 initial placement (the vectorized chase) is timed against the
    per-endpoint heap search it replaces, and the array Eq. 9 update against
    the sequential dict-loop reference; both pairs are asserted equal
    in-bench (paths bit for bit; pair weights bit for bit, insertion order
    included).  The pair update runs twice on a fresh set, so both the
    insert and the accumulate branch are timed.  The Table I columns of
    the fast extraction are recorded alongside.
    """
    from repro.core.pin_attraction import PinPairSet
    from repro.timing.report import (
        _worst_endpoints,
        _worst_paths_to_endpoint,
        report_timing_endpoint,
    )

    engine = STAEngine(design)
    result = engine.update_timing(cx, cy)
    n = result.num_failing_endpoints
    extract_seconds, (batch, stats) = _time(
        lambda: report_timing_endpoint(engine, n, 1, result=result, failing_only=True),
        repeat=repeat,
    )
    endpoints = _worst_endpoints(result, n, failing_only=True)
    reference_seconds, reference_paths = _time(
        lambda: [
            path
            for endpoint in endpoints
            for path in _worst_paths_to_endpoint(engine, result, int(endpoint), 1)
        ],
        repeat=1,
    )
    fast_paths = list(batch)
    if not (
        [(p.arcs, p.startpoint, p.endpoint) for p in fast_paths]
        == [(p.arcs, p.startpoint, p.endpoint) for p in reference_paths]
        and np.array([p.arrival for p in fast_paths]).tobytes()
        == np.array([p.arrival for p in reference_paths]).tobytes()
    ):
        raise AssertionError(f"{name}: k=1 chase differs from the heap search")

    def pair_update(reference: bool):
        pairs = PinPairSet()
        update = pairs._reference_update_from_paths if reference else pairs.update_from_paths
        paths = reference_paths if reference else batch
        for _ in range(2):
            update(paths, engine.graph, result.wns)
        return pairs

    update_seconds, fast_pairs = _time(lambda: pair_update(False), repeat=repeat)
    update_reference_seconds, reference_pairs = _time(lambda: pair_update(True), repeat=1)
    fast_arrays, reference_arrays = fast_pairs.as_arrays(), reference_pairs.as_arrays()
    if not all(
        a.tobytes() == b.tobytes() for a, b in zip(fast_arrays, reference_arrays)
    ):
        raise AssertionError(f"{name}: array Eq. 9 update differs from the dict loop")
    return {
        "extract_ms": round(extract_seconds * 1e3, 3),
        "extract_reference_ms": round(reference_seconds * 1e3, 3),
        "extract_speedup": round(reference_seconds / max(extract_seconds, 1e-9), 3),
        "extract_paths": stats.num_paths,
        "extract_endpoints": stats.num_endpoints,
        "extract_pin_pairs": stats.num_pin_pairs,
        "extract_fallback_endpoints": stats.num_fallback_endpoints,
        "pair_update_ms": round(update_seconds * 1e3, 3),
        "pair_update_reference_ms": round(update_reference_seconds * 1e3, 3),
        "pair_update_speedup": round(
            update_reference_seconds / max(update_seconds, 1e-9), 3
        ),
    }


def bench_design(name: str) -> dict:
    build_seconds, design = _time(lambda: load_benchmark(name))

    compile_seconds, compiled = _time(lambda: compile_design(design))
    snapshot_blob = pickle.dumps(compiled)
    rebuild_seconds, _ = _time(lambda: pickle.loads(snapshot_blob).to_design())

    engine = STAEngine(design)
    # Sub-millisecond timings gate CI, so take the best of many repetitions
    # to keep scheduler noise out of the recorded numbers.
    full_seconds, _ = _time(engine.update_timing, repeat=25)

    # Multi-corner STA: construction + first full update, sharing one graph
    # across corners.  Single-corner wall time uses the same measurement on
    # the plain engine so the ratio isolates the corner axis.
    def single_corner_wall():
        return STAEngine(design).update_timing()

    single_wall_seconds, _ = _time(single_corner_wall, repeat=7)
    mcmm_ms = {}
    for count in MCMM_CORNER_COUNTS:
        corners = tuple(
            Corner(f"c{i}", wire_rc_scale=1.0 + 0.05 * i, cell_derate=1.0 + 0.02 * i)
            for i in range(count)
        )

        def mcmm_wall():
            return MultiCornerSTA(design, corners).update_timing()

        seconds, _ = _time(mcmm_wall, repeat=7)
        mcmm_ms[count] = round(seconds * 1e3, 3)

    # Congestion map build: estimator construction (grid + net filter, paid
    # once per design) and one full RUDY/pin-density estimate (paid every
    # inflation round / evaluation) on a spread-out placement.
    congestion_setup_seconds, estimator = _time(lambda: CongestionEstimator(design))
    from repro.placement.initial import initial_placement

    cx, cy = initial_placement(design, seed=0)
    congestion_map_seconds, _ = _time(lambda: estimator.estimate(cx, cy), repeat=15)

    # Congestion-weighted GP overhead: identical fixed-length placements
    # with and without the in-loop weighting feedback at default cadence.
    def gp_run(weighted: bool):
        config = PlacementConfig(
            max_iterations=GP_ITERATIONS, stop_overflow=0.0, seed=0
        )
        placer = GlobalPlacer(design, config)
        if weighted:
            placer.add_feedback(
                CongestionNetWeighting(), FeedbackCadence(**GP_CADENCE)
            )
        result = placer.run()
        return placer, result

    # Tracing overhead: the identical plain run with the unified tracer
    # active.  The span ring sees every gp.iteration / gradient-term /
    # profile span the run produces, so this is the real steady-state cost
    # being budgeted, and the final positions must stay bitwise identical.
    # The two walls are measured *interleaved* (plain, traced, plain, ...)
    # because back-to-back best-of-N pairs pick up machine drift between
    # the blocks that easily exceeds the 3% budget being gated.
    def gp_traced_run():
        stop_tracing()
        start_tracing()
        try:
            return gp_run(False)
        finally:
            stop_tracing()

    gp_plain_seconds = gp_traced_seconds = float("inf")
    plain_result = traced_result = None
    for _ in range(3):
        seconds, (_, plain_result) = _time(lambda: gp_run(False), repeat=1)
        gp_plain_seconds = min(gp_plain_seconds, seconds)
        seconds, (_, traced_result) = _time(gp_traced_run, repeat=1)
        gp_traced_seconds = min(gp_traced_seconds, seconds)
    if not (
        np.array_equal(plain_result.x, traced_result.x)
        and np.array_equal(plain_result.y, traced_result.y)
    ):
        raise AssertionError(f"{name}: traced GP run differs from untraced")

    # The weighted run records into a run tracer, as inside a flow; its
    # ``feedback.congestion`` span totals are the attributed update cost.
    def gp_weighted_run():
        with run_tracer() as tracer:
            gp_run(True)
        return tracer.metrics()["spans"].get("feedback.congestion", {})

    gp_weighted_seconds, congestion = _time(gp_weighted_run, repeat=2)
    gp_updates = int(congestion.get("count", 0))
    gp_update_seconds = congestion.get("seconds", 0.0)

    # Back-end walls from the same seed-0 initial placement (uncapped
    # detailed refinement: mini designs can afford the full-recompute
    # reference end to end).
    backend = _bench_backend(name, design, cx, cy, legalize_repeat=3, detailed_repeat=3)
    extraction = _bench_extraction(name, design, cx, cy, repeat=15)

    return {
        "design": name,
        "num_instances": design.num_instances,
        "num_nets": design.num_nets,
        "num_pins": design.num_pins,
        "build_ms": round(build_seconds * 1e3, 3),
        "compile_ms": round(compile_seconds * 1e3, 3),
        "snapshot_rebuild_ms": round(rebuild_seconds * 1e3, 3),
        "sta_full_ms": round(full_seconds * 1e3, 3),
        "sta_single_wall_ms": round(single_wall_seconds * 1e3, 3),
        "mcmm_wall_ms": {str(count): value for count, value in mcmm_ms.items()},
        "mcmm_4c_over_1c": round(
            mcmm_ms[4] / max(single_wall_seconds * 1e3, 1e-9), 3
        ),
        "congestion_setup_ms": round(congestion_setup_seconds * 1e3, 3),
        "congestion_map_ms": round(congestion_map_seconds * 1e3, 3),
        "gp_plain_ms": round(gp_plain_seconds * 1e3, 3),
        "gp_congestion_weighted_ms": round(gp_weighted_seconds * 1e3, 3),
        # Overhead is the *attributed* share: wall seconds the scheduler
        # spent inside congestion-weighting updates over the weighted run's
        # wall.  A whole-run wall difference would gate scheduler jitter
        # (two ~0.5s runs differ by several percent under CI load); the
        # feedback span total measures exactly the cost being budgeted.
        "gp_weighting_overhead": round(
            gp_update_seconds / max(gp_weighted_seconds, 1e-9), 4
        ),
        "gp_weighting_updates": gp_updates,
        "gp_weighting_update_ms": round(
            1e3 * gp_update_seconds / max(gp_updates, 1), 3
        ),
        "gp_traced_ms": round(gp_traced_seconds * 1e3, 3),
        # Paired same-run measurement: both walls come from this invocation,
        # so the ratio transfers across hosts (bench_trend.py enforces it on
        # fresh rows regardless of the recorded baseline's host profile).
        "gp_tracing_overhead": round(
            gp_traced_seconds / max(gp_plain_seconds, 1e-9) - 1.0, 4
        ),
        **backend,
        **extraction,
    }


def bench_xl_design(name: str, *, scale: float = 1.0) -> dict:
    """XL-tier hot-path walls: congestion map, STA, density splat, GP
    iteration (plan vs legacy, bitwise-compared), back end and extraction."""
    import os

    from repro.placement.density import ElectrostaticDensity
    from repro.placement.initial import initial_placement
    from repro.timing.constraints import TimingConstraints

    build_seconds, design = _time(lambda: load_benchmark(name, scale=scale), repeat=1)
    cx, cy = initial_placement(design, seed=0)

    row = {
        "design": name,
        "scale": scale,
        "num_instances": design.num_instances,
        "num_nets": design.num_nets,
        "num_pins": design.num_pins,
        "cpu_count": os.cpu_count(),
        "build_ms": round(build_seconds * 1e3, 3),
    }

    # Congestion map: one full RUDY/pin-density estimate.
    estimator = CongestionEstimator(design)
    seconds, _ = _time(lambda: estimator.estimate(cx, cy), repeat=3)
    row["congestion_map_ms"] = round(seconds * 1e3, 3)

    # Full STA (arrival + required sweeps dominate at XL sizes).
    sta = STAEngine(design, TimingConstraints.from_design(design))
    seconds, _ = _time(lambda: sta.update_timing(), repeat=3)
    row["sta_full_ms"] = round(seconds * 1e3, 3)

    # Density splat (the electrostatic placer's per-iteration deposition).
    density = ElectrostaticDensity(design)
    seconds, _ = _time(lambda: density._splat(cx, cy), repeat=3)
    row["density_splat_ms"] = round(seconds * 1e3, 3)

    # Global-place iteration wall: fixed-length runs through the plan-based
    # path and the allocating reference inner loop (forced via the kept
    # _reference_* helpers: the CSR-order np.add.at wirelength, the
    # four-add.at density splat, and the per-net-fallback HPWL bookkeeping
    # pass).  The reference run's final positions are bitwise-compared
    # against the plan run (the GP inner loop's bit-exactness contract).
    def gp_run(*, legacy: bool = False):
        config = PlacementConfig(
            max_iterations=GP_XL_ITERS,
            min_iterations=GP_XL_ITERS,
            stop_overflow=0.0,
            seed=0,
        )
        placer = GlobalPlacer(design, config)
        if legacy:
            placer.wirelength.evaluate = placer.wirelength._reference_evaluate
            placer.density._splat = placer.density._reference_splat
            core = as_core(design)
            core.hpwl_per_net = core._reference_hpwl_per_net
            try:
                return placer.run()
            finally:
                del core.hpwl_per_net
        return placer.run()

    row["gp_iters"] = GP_XL_ITERS
    plan_seconds, plan_result = _time(lambda: gp_run(), repeat=1)
    row["gp_iter_ms"] = round(plan_seconds / GP_XL_ITERS * 1e3, 3)
    legacy_seconds, legacy_result = _time(lambda: gp_run(legacy=True), repeat=1)
    row["gp_iter_legacy_ms"] = round(legacy_seconds / GP_XL_ITERS * 1e3, 3)
    row["gp_plan_speedup"] = round(legacy_seconds / plan_seconds, 3)
    if not (
        np.array_equal(plan_result.x, legacy_result.x)
        and np.array_equal(plan_result.y, legacy_result.y)
    ):
        raise AssertionError(f"{name}: plan-based GP differs from legacy path")

    # Back-end walls: array-backed Abacus vs the object-based reference,
    # and the capped delta-HPWL refine pair (see DETAILED_XL_CANDIDATES).  sb_xl_1 at full scale is
    # the PR-10 acceptance gate and hard-asserts its speedup floors.
    row.update(
        _bench_backend(
            name,
            design,
            cx,
            cy,
            max_candidates=DETAILED_XL_CANDIDATES,
        )
    )
    if name == "sb_xl_1" and scale >= 1.0:
        if row["legalize_speedup"] < LEGALIZE_XL_MIN_SPEEDUP:
            raise AssertionError(
                f"{name}: legalization speedup {row['legalize_speedup']:.2f}x "
                f"below the {LEGALIZE_XL_MIN_SPEEDUP:.0f}x floor"
            )
        if row["detailed_speedup"] < DETAILED_XL_MIN_SPEEDUP:
            raise AssertionError(
                f"{name}: detailed-placement speedup "
                f"{row['detailed_speedup']:.2f}x below the "
                f"{DETAILED_XL_MIN_SPEEDUP:.0f}x floor"
            )

    # Table I at XL: report_timing_endpoint(n, 1) over every failing
    # endpoint, chase vs heap, plus the Eq. 9 pair update.
    row.update(_bench_extraction(name, design, cx, cy, repeat=3))
    return row


def check_against_baseline(
    rows,
    baseline_path: Path,
    *,
    tolerance: float,
    max_mcmm_ratio: float,
    max_congestion_ms: float,
    max_gp_overhead: float,
    max_tracing_overhead: float,
) -> int:
    """Perf gate: compare fresh numbers against the recorded baseline.

    Fails (returns 1) when single-corner full STA is more than ``tolerance``
    slower than the recorded ``sta_full_ms`` for the same design, when
    the (hardware-independent) 4-corner/1-corner wall ratio exceeds
    ``max_mcmm_ratio``, when a congestion map build exceeds
    ``max_congestion_ms`` (the routability subsystem's O(nets) budget),
    when in-loop congestion weighting at default cadence costs more than
    ``max_gp_overhead`` of the plain global-place wall time, or when the
    traced GP run is more than ``max_tracing_overhead`` slower than the
    paired untraced run (plus a 5ms absolute floor for scheduler jitter).
    """
    baseline_rows = {}
    if not baseline_path.exists():
        print(f"check: no recorded baseline at {baseline_path}; skipping comparison")
    else:
        recorded = json.loads(baseline_path.read_text(encoding="utf-8"))
        recorded_host = (recorded.get("machine"), recorded.get("python"))
        current_host = (platform.machine(), platform.python_version())
        if recorded_host != current_host:
            # Absolute wall-clock numbers do not transfer across hosts; on a
            # different machine/interpreter only the hardware-independent
            # 4-corner ratio is gated.
            print(
                f"check: baseline recorded on {recorded_host}, running on "
                f"{current_host}; skipping absolute-time comparison"
            )
        else:
            baseline_rows = {row["design"]: row for row in recorded.get("designs", [])}

    failures = []
    for row in rows:
        name = row["design"]
        ratio = row["mcmm_4c_over_1c"]
        if ratio > max_mcmm_ratio:
            failures.append(
                f"{name}: 4-corner MCMM wall is {ratio:.2f}x single-corner "
                f"(limit {max_mcmm_ratio:.2f}x)"
            )
        congestion_ms = float(row.get("congestion_map_ms", 0.0))
        if congestion_ms > max_congestion_ms:
            failures.append(
                f"{name}: congestion map build {congestion_ms:.3f}ms exceeds "
                f"the {max_congestion_ms:.0f}ms budget"
            )
        gp_overhead = float(row.get("gp_weighting_overhead", 0.0))
        if gp_overhead > max_gp_overhead:
            failures.append(
                f"{name}: congestion-weighted GP overhead {gp_overhead:.1%} "
                f"exceeds the {max_gp_overhead:.0%} budget"
            )
        # Paired same-run gate: plain and traced walls come from this very
        # invocation, so the comparison needs no recorded baseline and no
        # matching host profile.  The 5ms floor keeps sub-jitter runs from
        # flaking a purely relative 3% bound.
        plain_ms = float(row.get("gp_plain_ms", 0.0))
        traced_ms = float(row.get("gp_traced_ms", 0.0))
        if (
            plain_ms
            and traced_ms
            and traced_ms > plain_ms * (1.0 + max_tracing_overhead) + 5.0
        ):
            failures.append(
                f"{name}: traced GP run {traced_ms:.3f}ms vs untraced "
                f"{plain_ms:.3f}ms (> {max_tracing_overhead:.0%} tracing "
                "overhead)"
            )
        baseline = baseline_rows.get(name)
        if baseline is None or "sta_full_ms" not in baseline:
            continue
        recorded_ms = float(baseline["sta_full_ms"])
        measured_ms = float(row["sta_full_ms"])
        # 0.5ms absolute floor: below that, scheduler jitter dominates even
        # best-of-N timings and a purely relative gate would flake.
        if measured_ms > recorded_ms * (1.0 + tolerance) + 0.5:
            failures.append(
                f"{name}: single-corner STA {measured_ms:.3f}ms vs recorded "
                f"{recorded_ms:.3f}ms (> {tolerance:.0%} regression)"
            )
        if "congestion_map_ms" in baseline:
            recorded_cong = float(baseline["congestion_map_ms"])
            if congestion_ms > recorded_cong * (1.0 + tolerance) + 0.5:
                failures.append(
                    f"{name}: congestion map build {congestion_ms:.3f}ms vs "
                    f"recorded {recorded_cong:.3f}ms (> {tolerance:.0%} "
                    "regression)"
                )
    if failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        return 1
    print(
        f"check OK: single-corner STA within {tolerance:.0%} of baseline, "
        f"4-corner MCMM under {max_mcmm_ratio:.2f}x, congestion map under "
        f"{max_congestion_ms:.0f}ms, weighted-GP overhead under "
        f"{max_gp_overhead:.0%}, tracing overhead under "
        f"{max_tracing_overhead:.0%}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--designs",
        default=",".join(DEFAULT_DESIGNS),
        help="comma-separated sb_mini names",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent / "results" / "BENCH_core.json"),
        help="output JSON path",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the recorded baseline instead of overwriting "
        "it; non-zero exit on regression (CI gate)",
    )
    parser.add_argument(
        "--check-tolerance",
        type=float,
        default=0.10,
        help="allowed single-corner STA slowdown vs the recorded baseline "
        "(default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--max-mcmm-ratio",
        type=float,
        default=2.5,
        help="maximum allowed 4-corner/1-corner wall-time ratio (default 2.5)",
    )
    parser.add_argument(
        "--max-congestion-ms",
        type=float,
        default=50.0,
        help="maximum allowed congestion map build time in ms (default 50)",
    )
    parser.add_argument(
        "--max-gp-overhead",
        type=float,
        default=0.15,
        help="maximum allowed congestion-weighted GP wall overhead at the "
        "default cadence (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--max-tracing-overhead",
        type=float,
        default=0.03,
        help="maximum allowed traced-vs-untraced GP wall overhead "
        "(default 0.03 = 3%%; paired same-run measurement)",
    )
    parser.add_argument(
        "--fresh-out",
        default=None,
        help="also write the freshly measured rows to this JSON path "
        "(useful with --check, which never touches the recorded baseline)",
    )
    parser.add_argument(
        "--xl",
        action="store_true",
        help="also measure the XL tier (hot-path walls on sb_xl_1/sb_xl_2)",
    )
    parser.add_argument(
        "--xl-only",
        action="store_true",
        help="measure only the XL tier (skips the sb_mini micro-benchmark)",
    )
    parser.add_argument(
        "--xl-designs",
        default=",".join(XL_DESIGNS),
        help="comma-separated XL design names",
    )
    parser.add_argument(
        "--xl-scale",
        type=float,
        default=1.0,
        help="cell-count multiplier for the XL designs (CI smoke uses a "
        "reduced scale to stay time-boxed)",
    )
    args = parser.parse_args(argv)

    rows = []
    if not args.xl_only:
        rows = [bench_design(name) for name in args.designs.split(",") if name]
    xl_rows = []
    if args.xl or args.xl_only:
        xl_rows = [
            bench_xl_design(name, scale=args.xl_scale)
            for name in args.xl_designs.split(",")
            if name
        ]
    out = Path(args.out)
    payload = {
        "benchmark": "design core / CompiledDesign / STA micro-benchmark",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "designs": rows,
    }
    if xl_rows:
        payload["xl_designs"] = xl_rows
    if args.check:
        status = check_against_baseline(
            rows,
            out,
            tolerance=args.check_tolerance,
            max_mcmm_ratio=args.max_mcmm_ratio,
            max_congestion_ms=args.max_congestion_ms,
            max_gp_overhead=args.max_gp_overhead,
            max_tracing_overhead=args.max_tracing_overhead,
        )
    else:
        status = 0
        # Partial runs (--xl-only, a run without --xl, or a subset of
        # --designs / --xl-designs) must not silently drop recorded rows
        # they did not re-measure from the baseline.
        if out.exists():
            try:
                prior = json.loads(out.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                prior = {}
            for key in ("designs", "xl_designs"):
                fresh_rows = {row["design"]: row for row in payload.get(key, [])}
                merged = [
                    fresh_rows.pop(row["design"], row) for row in prior.get(key, [])
                ] + list(fresh_rows.values())
                if merged:
                    payload[key] = merged
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if args.fresh_out:
        fresh = Path(args.fresh_out)
        fresh.parent.mkdir(parents=True, exist_ok=True)
        fresh.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    if xl_rows:
        xl_header = (
            f"{'xl design':<12} {'cells':>8} {'build':>8} {'rudy':>8} "
            f"{'sta':>8} {'splat':>8} {'gp it p/l':>12} "
            f"{'gp x':>6} {'lg a/r':>12} {'lg x':>6} {'dp d/r':>14} {'dp x':>6}"
        )
        print(xl_header)
        for row in xl_rows:
            gp = f"{row['gp_iter_ms']:.0f}/{row['gp_iter_legacy_ms']:.0f}"
            legalize = f"{row['legalize_ms']:.0f}/{row['legalize_reference_ms']:.0f}"
            detailed = f"{row['detailed_ms']:.0f}/{row['detailed_reference_ms']:.0f}"
            print(
                f"{row['design']:<12} {row['num_instances']:>8} "
                f"{row['build_ms']:>7.0f}m {row['congestion_map_ms']:>7.0f}m "
                f"{row['sta_full_ms']:>7.0f}m {row['density_splat_ms']:>7.0f}m "
                f"{gp:>11}m {row['gp_plan_speedup']:>5.2f}x {legalize:>11}m "
                f"{row['legalize_speedup']:>5.2f}x {detailed:>13}m "
                f"{row['detailed_speedup']:>5.1f}x"
            )
        print()

    header = (
        f"{'design':<12} {'build':>8} {'compile':>8} {'rebuild':>8} "
        f"{'sta full':>9} {'mcmm 1/2/4c':>20} {'4c/1c':>6} "
        f"{'rudy map':>9} {'gp+cong':>8} {'trace':>7} {'lg ms':>7} {'lg x':>6} "
        f"{'dp ms':>7} {'dp x':>6}"
    )
    print(header)
    for row in rows:
        mcmm = row["mcmm_wall_ms"]
        mcmm_text = "/".join(f"{mcmm[str(count)]:.1f}" for count in MCMM_CORNER_COUNTS)
        print(
            f"{row['design']:<12} {row['build_ms']:>7.1f}m {row['compile_ms']:>7.2f}m "
            f"{row['snapshot_rebuild_ms']:>7.1f}m {row['sta_full_ms']:>8.2f}m "
            f"{mcmm_text:>19}m "
            f"{row['mcmm_4c_over_1c']:>5.2f}x {row['congestion_map_ms']:>8.2f}m "
            f"{row['gp_weighting_overhead']:>7.1%} {row['gp_tracing_overhead']:>6.1%} "
            f"{row['legalize_ms']:>6.2f}m {row['legalize_speedup']:>5.1f}x "
            f"{row['detailed_ms']:>6.1f}m {row['detailed_speedup']:>5.1f}x"
        )
    if not args.check:
        print(f"wrote {out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
