#!/usr/bin/env python3
"""In-loop congestion + timing net weighting: the ``routability-gp`` preset.

PR 4 reacted to congestion *after* placement (the inflation loop); the
feedback architecture folds it into the placement iteration itself: every K
iterations a :class:`~repro.feedback.congestion.CongestionNetWeighting`
scores each net by the RUDY overflow under its bounding box, a
:class:`~repro.feedback.timing.TimingCriticalityWeighting` scores each net
by its share of the worst slack, and one
:class:`~repro.feedback.composer.WeightComposer` merges both proposals into
the placer's net weights with shared momentum and clamping.  The inflation
loop still runs afterwards as post-place cleanup.

This script runs the inflation-only ``routability`` preset and the in-loop
``routability-gp`` preset on ``sb_cong_1``, prints the final scores side by
side, and dumps the feedback trajectory (per-update WNS / peak overflow /
weight norm) that the evaluation report now carries.

Run:  python examples/congestion_weighting.py
      (or, with the package installed:  repro run sb_cong_1 --preset routability-gp)
"""

from repro import build_flow, load_benchmark

DESIGN = "sb_cong_1"


def main() -> None:
    # Inflation-only: congestion feedback happens after placement.
    inflation_design = load_benchmark(DESIGN)
    inflation = build_flow("routability", max_iterations=300).run(
        inflation_design, seed=0
    )

    # In-loop: congestion + timing weighting inside the placement loop,
    # inflation demoted to cleanup.
    gp_design = load_benchmark(DESIGN)
    gp = build_flow("routability-gp", max_iterations=300).run(gp_design, seed=0)

    print(f"{'':>22} {'inflation-only':>15} {'in-loop (gp)':>15}")
    rows = [
        ("HPWL", inflation.evaluation.hpwl, gp.evaluation.hpwl),
        ("peak overflow", inflation.evaluation.congestion_peak_overflow,
         gp.evaluation.congestion_peak_overflow),
        ("avg overflow", inflation.evaluation.congestion_avg_overflow,
         gp.evaluation.congestion_avg_overflow),
        ("hotspot bins", inflation.evaluation.congestion_hotspots,
         gp.evaluation.congestion_hotspots),
        ("TNS (ps)", inflation.evaluation.tns, gp.evaluation.tns),
    ]
    for label, a, b in rows:
        print(f"{label:>22} {a:>15.3f} {b:>15.3f}")

    # Every firing of a scheduled feedback is a ``feedback.<name>`` span of
    # the run (``feedback.dispatch`` and ``feedback.compose`` are the
    # scheduler's own spans, not feedbacks).
    spans = gp.context.metadata["trace_metrics"]["spans"]
    print("\nper-feedback runtime (seconds across main + refine placements):")
    for slot in gp.context.feedback.slots:
        name = slot.feedback.name
        stats = spans.get(f"feedback.{name}")
        if stats is not None:
            print(f"  {name:<12} {stats['seconds']:8.3f}s over {stats['count']:>3d} updates")

    record = gp.context.metadata["feedback"]

    print("\nfeedback trajectory (iteration: fired -> metrics):")
    for row in record["trajectory"][:12]:
        metrics = {
            key: round(value, 3)
            for key, value in row.items()
            if key not in ("iteration", "fired") and isinstance(value, float)
        }
        print(f"  iter {row['iteration']:>4d}: {'+'.join(row['fired']):<18} {metrics}")
    remaining = len(record["trajectory"]) - 12
    if remaining > 0:
        print(f"  ... {remaining} more rows (also on evaluation.feedback_trajectory)")

    drop = 1.0 - (
        gp.evaluation.congestion_peak_overflow
        / inflation.evaluation.congestion_peak_overflow
    )
    cost = gp.evaluation.hpwl / inflation.evaluation.hpwl - 1.0
    print(
        f"\nin-loop weighting vs inflation-alone: peak overflow "
        f"{100 * drop:+.0f}% at HPWL cost {100 * cost:+.1f}%"
    )


if __name__ == "__main__":
    main()
