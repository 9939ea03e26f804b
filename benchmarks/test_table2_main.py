"""Table II — TNS / WNS / HPWL comparison across timing-driven placers.

Runs DREAMPlace (wirelength only), DREAMPlace 4.0 (momentum net weighting),
Differentiable-TDP (smoothed path-free attraction), and Efficient-TDP (ours)
on the eight sb_mini designs, then reports per-design TNS/WNS/HPWL plus the
paper's "Average Ratio" row (every method's metric normalized by ours).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import METHODS, SUITE, save_json, save_text, scores
from repro.evaluation import average_ratio, format_table

OURS = "Efficient-TDP (ours)"


def _metric_tables(suite_results):
    tns = {m: {} for m in METHODS}
    wns = {m: {} for m in METHODS}
    hpwl = {m: {} for m in METHODS}
    for design, per_method in suite_results.items():
        for method, result in per_method.items():
            ev = result.evaluation
            tns[method][design] = abs(ev.tns)
            wns[method][design] = abs(ev.wns)
            hpwl[method][design] = ev.hpwl
    return tns, wns, hpwl


def test_table2_main_comparison(suite_results, benchmark):
    tns, wns, hpwl = benchmark.pedantic(
        lambda: _metric_tables(suite_results), rounds=1, iterations=1
    )

    rows = []
    for design in SUITE:
        row = [design]
        for method in METHODS:
            ev = suite_results[design][method].evaluation
            row.extend([round(ev.tns, 1), round(ev.wns, 1), round(ev.hpwl, 0)])
        rows.append(row)
    avg_tns = average_ratio(tns, OURS)
    avg_wns = average_ratio(wns, OURS)
    avg_hpwl = average_ratio(hpwl, OURS)
    ratio_row = ["Average Ratio"]
    for method in METHODS:
        ratio_row.extend(
            [round(avg_tns[method], 2), round(avg_wns[method], 2), round(avg_hpwl[method], 3)]
        )
    rows.append(ratio_row)

    headers = ["Benchmark"]
    for method in METHODS:
        headers.extend([f"{method} TNS", "WNS", "HPWL"])
    table = format_table(headers, rows, title="Table II — TNS (ps), WNS (ps), HPWL comparison")
    print("\n" + table)
    save_text("table2_main.txt", table)
    save_json(
        "table2_main.json",
        {
            "per_design": {
                design: {
                    method: scores(suite_results[design][method])
                    for method in METHODS
                }
                for design in SUITE
            },
            "average_ratio": {"tns": avg_tns, "wns": avg_wns, "hpwl": avg_hpwl},
        },
    )

    # Shape checks (the paper's qualitative findings that do transfer):
    # 1. every timing-driven method improves average TNS over plain DREAMPlace;
    assert avg_tns["DREAMPlace"] >= avg_tns[OURS]
    # 2. ours improves TNS and WNS over the wirelength-only baseline;
    assert avg_tns["DREAMPlace"] > 1.0
    assert avg_wns["DREAMPlace"] >= 0.95
    # 3. ours preserves HPWL better than the net-weighting baseline.
    assert avg_hpwl[OURS] <= avg_hpwl["DREAMPlace 4.0"] + 1e-9
    # 4. all placements are legal.
    for design in SUITE:
        for method in METHODS:
            ev = suite_results[design][method].evaluation
            assert ev.overlap_area == pytest.approx(0.0, abs=1e-6)
            assert ev.out_of_die_cells == 0
