#!/usr/bin/env python3
"""Critical path extraction study (the Table I / Sec. III-B experiment).

Places a design with the wirelength-only engine, then compares the coverage
and cost of OpenTimer-style ``report_timing(n)`` against the paper's
``report_timing_endpoint(n, k)`` on the resulting timing graph, and shows the
worst extracted path.

Run:  python examples/path_extraction_study.py [benchmark_name]
"""

import sys

from repro.benchgen import benchmark_names, load_benchmark
from repro.evaluation import format_table
from repro.flow import build_flow
from repro.timing import STAEngine, report_timing, report_timing_endpoint


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "sb_mini_1"
    if name not in benchmark_names():
        raise SystemExit(f"unknown benchmark {name!r}; choose from {benchmark_names()}")

    design = load_benchmark(name)
    build_flow("dreamplace", max_iterations=450, seed=1).run(design)

    engine = STAEngine(design)
    result = engine.update_timing()
    n = result.num_failing_endpoints
    print(f"{name}: {n} failing endpoints, WNS {result.wns:.1f} ps, TNS {result.tns:.1f} ps\n")

    rows = []
    for label, (_paths, stats) in {
        "report_timing(n)": report_timing(engine, n, failing_only=True,
                                          max_paths_per_endpoint=16),
        "report_timing_endpoint(n,1)": report_timing_endpoint(engine, n, 1, failing_only=True),
        "report_timing_endpoint(n,10)": report_timing_endpoint(engine, n, 10, failing_only=True),
    }.items():
        row = stats.as_row()
        rows.append([label, row["complexity"], row["num_paths"], row["num_endpoints"],
                     row["num_pin_pairs"], row["time_sec"]])

    print(format_table(
        ["Command", "Complexity", "#Paths", "#Endpoints", "#PinPairs", "Time(s)"],
        rows,
        title="Critical path extraction coverage",
        float_format="{:.4f}",
    ))

    worst, _ = report_timing(engine, 1)
    print("\nWorst path:")
    print(" ", worst[0].describe(engine.graph))


if __name__ == "__main__":
    main()
