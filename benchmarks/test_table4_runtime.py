"""Table IV — total runtime comparison.

Reports, per design, the wall-clock runtime of DREAMPlace (wirelength only),
DREAMPlace 4.0 (net weighting), and Efficient-TDP (ours), plus the average
ratio normalized by ours.  The paper's qualitative claim is that the
wirelength-only flow is by far the fastest (no timer in the loop) and that
the proposed flow's timing machinery is competitive with the net-weighting
flow's.  Every number is wall-clock, so the results go to the untracked
``benchmarks/results/wallclock/``.
"""

from __future__ import annotations


from benchmarks.conftest import SUITE, save_json, save_text
from repro.evaluation import average_ratio, format_table

METHODS = ["DREAMPlace", "DREAMPlace 4.0", "Efficient-TDP (ours)"]


def test_table4_runtime(suite_results, benchmark):
    runtime = {m: {} for m in METHODS}

    def collect():
        for design, per_method in suite_results.items():
            for method in METHODS:
                runtime[method][design] = per_method[method].runtime_seconds
        return runtime

    benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    for design in SUITE:
        rows.append(
            [design] + [round(runtime[m][design], 2) for m in METHODS]
        )
    ratios = average_ratio(runtime, "Efficient-TDP (ours)")
    rows.append(["Average Ratio"] + [round(ratios[m], 2) for m in METHODS])

    table = format_table(
        ["Benchmark"] + METHODS,
        rows,
        title="Table IV — runtime (seconds)",
    )
    print("\n" + table)
    save_text("table4_runtime.txt", table, wallclock=True)
    save_json(
        "table4_runtime.json", {"runtime_sec": runtime, "average_ratio": ratios}, wallclock=True
    )

    # Wirelength-only DREAMPlace must be the fastest on average (no timer).
    assert ratios["DREAMPlace"] <= ratios["Efficient-TDP (ours)"]
    assert ratios["DREAMPlace"] <= ratios["DREAMPlace 4.0"]
