"""Fig. 4 — runtime breakdown of DREAMPlace 4.0 vs Efficient-TDP.

Regenerates the paper's component breakdown for ``sb_mini_1``: the share of
total runtime spent in IO, gradient computation, timing analysis, weighting,
legalization, and others, for the net-weighting baseline and for the proposed
flow, both normalized by the baseline's total runtime (as the paper
normalizes by DREAMPlace 4.0's 615 s).  Every number is wall-clock, so the
results go to the untracked ``benchmarks/results/wallclock/``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_json, save_text
from repro.evaluation import format_table

COMPONENTS = ["io", "gradient", "timing_analysis", "weighting", "legalization", "others"]


def test_fig4_runtime_breakdown(suite_results, benchmark):
    design = "sb_mini_1"
    dmp4 = suite_results[design]["DREAMPlace 4.0"]
    ours = suite_results[design]["Efficient-TDP (ours)"]

    def collect():
        # Both flows' components are normalized by the baseline's wall.
        reference = dmp4.runtime_seconds
        return tuple(
            {name: seconds / reference for name, seconds in run.breakdown().items()}
            for run in (dmp4, ours)
        )

    dmp4_shares, ours_shares = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    for component in COMPONENTS:
        rows.append(
            [
                component,
                round(100 * dmp4_shares.get(component, 0.0), 1),
                round(100 * ours_shares.get(component, 0.0), 1),
            ]
        )
    rows.append(
        [
            "total",
            round(100 * sum(dmp4_shares.get(c, 0.0) for c in COMPONENTS), 1),
            round(100 * sum(ours_shares.get(c, 0.0) for c in COMPONENTS), 1),
        ]
    )
    table = format_table(
        ["Component", "DREAMPlace 4.0 (%)", "Efficient-TDP (%)"],
        rows,
        title=f"Fig. 4 — runtime breakdown for {design}, normalized by DREAMPlace 4.0 total",
    )
    print("\n" + table)
    save_text("fig4_runtime_breakdown.txt", table, wallclock=True)
    save_json(
        "fig4_runtime_breakdown.json",
        {"design": design, "dreamplace4": dmp4_shares, "ours": ours_shares},
        wallclock=True,
    )

    # Timing analysis + weighting must be a visible share of both timing-driven
    # flows, and the reference flow's shares must sum to ~100%.
    assert dmp4_shares.get("timing_analysis", 0.0) > 0.0
    assert ours_shares.get("timing_analysis", 0.0) > 0.0
    assert sum(dmp4_shares.get(c, 0.0) for c in COMPONENTS) == pytest.approx(1.0, abs=0.05)
