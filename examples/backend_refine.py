#!/usr/bin/env python3
"""Back-end walkthrough: Abacus legalization + delta-HPWL detailed placement.

Takes one benchmark design from a seed-0 initial placement through the
array-backed back-end that PR 10 introduced:

1. **Abacus legalization** — the flat-stack cluster collapse with the
   ``searchsorted`` nearest-row candidate bands, compared against the kept
   object-based ``_reference_legalize`` twin (bitwise, and the wall-clock
   ratio is printed).
2. **Detailed placement** — the delta-HPWL adjacent-swap engine versus the
   full-recompute ``_reference_refine`` twin on a capped candidate budget
   (the reference pays a whole-design ``hpwl_per_net`` per candidate), then
   an uncapped delta-path refinement to show the real HPWL win.
3. **Flow integration** — the same back-end as ``FlowRunner`` stages
   (``legalize`` + ``detailed_place``), reading the accepted-swap count and
   the legalizer's row-overflow diagnostics from the flow metadata.

Run:  python examples/backend_refine.py [--scale 0.1]
      (defaults stay smoke-sized; --design sb_xl_1 --scale 1.0 reproduces
      the BENCH_core back-end rows)
"""

import argparse
import time

import numpy as np

from repro.benchgen.suite import load_benchmark
from repro.netlist.core import as_core
from repro.placement.detailed import DetailedPlacer
from repro.placement.initial import initial_placement
from repro.placement.legalization.abacus import AbacusLegalizer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--design", default="sb_xl_1")
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="cell-count multiplier (default 0.1 = 10k cells; 1.0 = full XL)",
    )
    parser.add_argument(
        "--max-candidates", type=int, default=2000,
        help="candidate cap for the delta-vs-reference detailed pair "
        "(the reference recomputes every net per candidate)",
    )
    args = parser.parse_args()

    design = load_benchmark(args.design, scale=args.scale)
    core = as_core(design)
    print(
        f"{args.design} @ scale {args.scale}: {design.num_instances} instances, "
        f"{design.num_nets} nets, {design.num_pins} pins"
    )
    cx, cy = initial_placement(design, seed=0)

    # 1. Abacus legalization: array path vs object-based reference, bitwise.
    legalizer = AbacusLegalizer(design)
    t0 = time.perf_counter()
    legal = legalizer.legalize(cx, cy)
    array_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    reference = legalizer._reference_legalize(cx, cy)
    reference_wall = time.perf_counter() - t0
    exact = np.array_equal(legal.x, reference.x) and np.array_equal(
        legal.y, reference.y
    )
    print(
        f"legalize: {array_wall * 1e3:.1f}ms array vs "
        f"{reference_wall * 1e3:.1f}ms reference "
        f"({reference_wall / array_wall:.1f}x); bitwise equal: {exact}"
    )
    print(
        f"  displacement total {legal.total_displacement:.1f} / max "
        f"{legal.max_displacement:.2f}; unplaced {legal.num_failed}; "
        f"overfull rows {legal.num_overfull_rows}"
    )
    if not exact:
        raise SystemExit("array-backed legalization diverged from reference")

    # 2. Detailed placement: delta-HPWL engine vs full-recompute reference
    # on the same capped budget, then the uncapped delta pass.
    placer = DetailedPlacer(design)
    t0 = time.perf_counter()
    dx, dy, accepted = placer.refine(
        legal.x, legal.y, max_candidates=args.max_candidates
    )
    delta_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    rx, ry, ref_accepted = placer._reference_refine(
        legal.x, legal.y, max_candidates=args.max_candidates
    )
    reference_wall = time.perf_counter() - t0
    exact = (
        np.array_equal(dx, rx)
        and np.array_equal(dy, ry)
        and accepted == ref_accepted
    )
    print(
        f"detailed ({args.max_candidates} candidates): "
        f"{delta_wall * 1e3:.1f}ms delta vs {reference_wall * 1e3:.1f}ms "
        f"reference ({reference_wall / delta_wall:.1f}x); "
        f"bitwise equal: {exact}"
    )
    if not exact:
        raise SystemExit("delta-HPWL refine diverged from reference")

    before_hpwl = core.total_hpwl(legal.x, legal.y)
    t0 = time.perf_counter()
    fx, fy, full_accepted = placer.refine(legal.x, legal.y)
    full_wall = time.perf_counter() - t0
    after_hpwl = core.total_hpwl(fx, fy)
    print(
        f"detailed (uncapped): {full_wall * 1e3:.1f}ms, "
        f"{full_accepted} accepted swaps; HPWL {before_hpwl:.0f} -> "
        f"{after_hpwl:.0f} ({(1.0 - after_hpwl / before_hpwl):.2%} better)"
    )

    # 3. The same back-end as flow stages, with the legalizer's overflow
    # diagnostics and the swap count surfaced through the flow metadata.
    from repro.flow.runner import FlowRunner
    from repro.flow.stages import DetailedPlaceStage, LegalizeStage

    runner = FlowRunner([LegalizeStage(), DetailedPlaceStage()])
    core.set_positions(cx, cy)
    result = runner.run(design)
    legalize_meta = result.context.metadata.get("legalization", {})
    detailed_meta = result.context.metadata.get("detailed_place", {})
    print(
        f"flow stages: legalize engine={legalize_meta.get('engine')} "
        f"overfull_rows={legalize_meta.get('num_overfull_rows')} "
        f"failed={legalize_meta.get('num_failed')}; "
        f"detailed accepted_swaps={detailed_meta.get('accepted_swaps')}"
    )


if __name__ == "__main__":
    main()
