"""Table III — ablation study of the Efficient-TDP design choices.

Six arms, mirroring the paper:

* ``w/ HPWL Loss``            — pin-pair loss replaced by per-pair HPWL;
* ``w/ Linear Loss``          — pin-pair loss replaced by Euclidean distance;
* ``w/ rpt_timing(n*10)``     — extraction via OpenTimer-style report_timing;
* ``w/ rpt_timing_ept(n,10)`` — 10 paths per failing endpoint;
* ``w/o Path Extraction``     — momentum net weighting instead of paths;
* ``Our Method``              — quadratic loss + report_timing_endpoint(n,1).

Reported per design: TNS and WNS, plus average ratios normalized by ours.
To keep the harness laptop-fast the ablation uses four of the eight designs;
pass ``--full-ablation`` via the REPRO_FULL_ABLATION env var to use all.

What does not transfer from the paper (committed seed-0 results): the
``w/o Path Extraction`` arm beats ``Our Method`` at an average TNS ratio of
0.42.  It is the DREAMPlace 4.0 configuration, so its values equal Table
II's DREAMPlace 4.0 column.  The likely cause, unproven, is the delay
model: net-arc Elmore delay is about 0% of path delay.  The other arms
are worse than ours, as in the paper.
"""

from __future__ import annotations

import os
from typing import Dict

import pytest

from benchmarks.conftest import save_json, save_text, scores
from repro.benchgen import benchmark_names, load_benchmark
from repro.core import ExtractionConfig
from repro.evaluation import average_ratio, format_table
from repro.flow import EfficientTDPConfig, build_flow

ABLATION_DESIGNS = (
    benchmark_names()
    if os.environ.get("REPRO_FULL_ABLATION")
    else ["sb_mini_1", "sb_mini_5", "sb_mini_16", "sb_mini_18"]
)

ARMS = [
    "w/ HPWL Loss",
    "w/ Linear Loss",
    "w/ rpt_timing(n*10)",
    "w/ rpt_timing_ept(n,10)",
    "w/o Path Extraction",
    "Our Method",
]


def _run_arm(arm: str, design_name: str):
    design = load_benchmark(design_name)
    if arm == "w/o Path Extraction":
        return build_flow("dreamplace4").run(design)
    config = EfficientTDPConfig()
    if arm == "w/ HPWL Loss":
        config.loss = "hpwl"
    elif arm == "w/ Linear Loss":
        config.loss = "linear"
    elif arm == "w/ rpt_timing(n*10)":
        config.extraction = ExtractionConfig(mode="report_timing", endpoint_multiplier=10,
                                             max_endpoints=200)
    elif arm == "w/ rpt_timing_ept(n,10)":
        config.extraction = ExtractionConfig(mode="endpoint", paths_per_endpoint=10)
    return build_flow("efficient_tdp", config).run(design)


@pytest.fixture(scope="module")
def ablation_results() -> Dict[str, Dict[str, object]]:
    results: Dict[str, Dict[str, object]] = {}
    for design in ABLATION_DESIGNS:
        results[design] = {arm: _run_arm(arm, design) for arm in ARMS}
    return results


def test_table3_ablation(ablation_results, benchmark):
    tns = {arm: {} for arm in ARMS}
    wns = {arm: {} for arm in ARMS}

    def collect():
        for design, per_arm in ablation_results.items():
            for arm, result in per_arm.items():
                tns[arm][design] = abs(result.evaluation.tns)
                wns[arm][design] = abs(result.evaluation.wns)
        return tns, wns

    benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    for design in ABLATION_DESIGNS:
        row = [design]
        for arm in ARMS:
            ev = ablation_results[design][arm].evaluation
            row.extend([round(ev.tns, 1), round(ev.wns, 1)])
        rows.append(row)
    avg_tns = average_ratio(tns, "Our Method")
    avg_wns = average_ratio(wns, "Our Method")
    ratio_row = ["Average Ratio"]
    for arm in ARMS:
        ratio_row.extend([round(avg_tns[arm], 2), round(avg_wns[arm], 2)])
    rows.append(ratio_row)

    headers = ["Benchmark"]
    for arm in ARMS:
        headers.extend([f"{arm} TNS", "WNS"])
    table = format_table(headers, rows, title="Table III — ablation study (TNS / WNS)")
    print("\n" + table)
    save_text("table3_ablation.txt", table)
    save_json(
        "table3_ablation.json",
        {
            "designs": ABLATION_DESIGNS,
            "average_ratio": {"tns": avg_tns, "wns": avg_wns},
            "per_design": {
                design: {arm: scores(ablation_results[design][arm]) for arm in ARMS}
                for design in ABLATION_DESIGNS
            },
        },
    )

    # Shape checks from the paper's ablation discussion:
    # 1. the quadratic loss is at least as good on average as HPWL/linear pair losses;
    assert avg_tns["w/ HPWL Loss"] >= avg_tns["Our Method"] - 0.05
    assert avg_tns["w/ Linear Loss"] >= avg_tns["Our Method"] - 0.05
    # 2. endpoint extraction with k=10 stays in the same ballpark as k=1
    #    (more paths, slightly different trade-off), and all arms produce
    #    legal placements.
    assert avg_tns["w/ rpt_timing_ept(n,10)"] == pytest.approx(1.0, abs=0.6)
    for design in ABLATION_DESIGNS:
        for arm in ARMS:
            assert ablation_results[design][arm].evaluation.out_of_die_cells == 0
