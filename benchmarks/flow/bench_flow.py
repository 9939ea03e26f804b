#!/usr/bin/env python3
"""End-to-end flow benchmark: preset flows on generated designs, timed whole.

Run from the repository root::

    python3 benchmarks/flow/bench_flow.py                        # all workloads, seed 0
    python3 benchmarks/flow/bench_flow.py --workload tdp_10k --seed 3 --seconds 20
    python3 benchmarks/flow/bench_flow.py --trace 1              # per-layer split
    python3 benchmarks/flow/bench_flow.py --seconds 20 --trace 1 \\
        --out benchmarks/flow/results/BENCH_flow.json

Each workload runs in a fresh child process with one BLAS/OpenMP thread.
The child generates the workload's designs through the public API
(``generate_circuit`` / ``generate_xl_circuit``), runs
``build_flow(preset, seed=<--seed>).run(design)`` on each, checks every result with
:mod:`oracle`, and repeats whole passes until ``--seconds`` have been
measured.  With ``--trace 1`` it then runs one more pass with per-layer
spans (:mod:`layers`) and checks that the traced placement is
bit-identical to the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the program under test could not be found.  README.md documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Marks the child's result line on its standard output.
RESULT_TAG = "@@bench_flow_result "
#: One BLAS/OpenMP thread: with more, OpenBLAS threads the optimizer's long
#: dot products and large placements stop being bit-reproducible (README).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Design sets generated before the first pass; setup_s is the median of
#: these and of the one generated before every later pass.
SETUP_REPEATS = 3
#: A child may run this long past --seconds before it is killed; keeps one
#: run of one workload under three minutes at the default run length.
CHILD_GRACE_S = 150.0

SB_MINI = (
    "sb_mini_1", "sb_mini_3", "sb_mini_4", "sb_mini_5",
    "sb_mini_7", "sb_mini_10", "sb_mini_16", "sb_mini_18",
)


@dataclass(frozen=True)
class Workload:
    preset: str
    designs: Tuple[str, ...]
    draws: int
    #: Cell-count multiplier applied to every design's suite spec.
    size: float = 1.0
    kernel_workers: int = 0


# The designs are fixed; --seed moves only the flows' initial placement, so
# quality metrics vary by a few percent between seeds, not by the tens of
# percent that different design draws give.  Sizes keep one pass near 3 s
# on a 2-core host, so a 20 s run takes the median of five or more passes;
# the full 100k/250k-cell XL designs take over 30 s per flow.
WORKLOADS: Dict[str, Workload] = {
    # The paper's flow on the XL generator at 10k cells, where the
    # timing-feedback layers (path extraction, Eq. 9 pair update, STA) do
    # a large share of the work.
    "tdp_10k": Workload("efficient_tdp", ("sb_xl_1",), draws=1, size=0.1),
    # GP and legalization with no timing feedback on the largest working
    # set; the only workload that runs the kernel pool (2 workers).
    "wl_25k_w2": Workload("dreamplace", ("sb_xl_2",), draws=1, size=0.1, kernel_workers=2),
    # The Table II suite at 700-2,000 cells: per-call overhead dominates.
    "tdp_suite": Workload("efficient_tdp", SB_MINI, draws=1),
    # Congestion x timing feedback, repeated GP/legalize/RUDY per flow.
    "route_cong": Workload("routability-gp", ("sb_cong_1",), draws=2, size=3.0),
}

#: Flow stage names across the benchmarked presets (flow.stage.<name>_s).
STAGES = (
    "timing_weight", "feedback_weight", "global_place", "routability_repair",
    "legalize", "congestion", "evaluate",
)

#: Units of the per-layer metrics that are neither seconds nor counts.
_LAYER_UNITS = {
    "core.endpoint_coverage": "ratio",
    "legalize.fallback_ratio": "ratio",
    "obs.trace_overhead": "ratio",
    "route.peak_overflow": "ratio",
}


def layer_unit(metric: str) -> str:
    """Unit of a per-layer metric: seconds for ``*_s``, else the table, else count."""
    if metric.endswith("_s"):
        return "s"
    return _LAYER_UNITS.get(metric, "count")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="placement seed of every flow (non-negative)"
    )
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="repeat whole passes over the workload's designs until this many "
             "seconds have been measured (at least one pass)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: also run each workload once traced and report the per-layer split",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every design's cell count (small values for smoke tests)",
    )
    parser.add_argument("--out", type=Path, help="write the full result record here")
    parser.add_argument(
        "--trace-dir", type=Path, default=HERE / "out",
        help="directory for the Perfetto traces of --trace runs",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.scale <= 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative and --scale positive")
    args.workload = args.workload or list(WORKLOADS)
    return args


# ---------------------------------------------------------------------------
# Parent: one child process per workload
# ---------------------------------------------------------------------------
def run_child(name: str, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", "--workload", name,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--scale", repr(args.scale),
        "--trace-dir", str(args.trace_dir),
    ]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = CHILD_GRACE_S + args.seconds
    # A session of its own lets the final kill reach the child's pool workers too.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    error = None
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout, error = "", f"timed out after {timeout:.0f} s"
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_TAG):
            return json.loads(line[len(RESULT_TAG):])
    error = error or f"exited with code {child.returncode} without a result"
    return {"workload": name, "attempted": 1, "failed": 1, "failures": [f"{name}: {error}"]}


def print_report(result: dict) -> None:
    name = result["workload"]
    if "metrics" not in result:
        print(f"== {name}: FAILED ({'; '.join(result['failures'])})")
        return
    print(
        f"== {name}: {result['preset']} on {', '.join(result['designs'])} "
        f"x{result['draws']} draws ({result['cells']} cells), seed {result['seed']}, "
        f"{result['passes']} pass(es), {result['attempted']} flows attempted, "
        f"{result['failed']} failed =="
    )
    for block in (result["metrics"], result.get("layers", {})):
        for metric, entry in block.items():
            print(f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  digest {result['digest']}", end="")
    if "traced_digest" in result:
        same = result["traced_digest"] == result["digest"]
        print(f" (traced: {'identical' if same else 'DIFFERENT'})", end="")
    print()
    for failure in result["failures"]:
        print(f"  FAILURE {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench_flow: the program's source tree {SRC} is missing", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so run_child's cleanup kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results = {name: run_child(name, args) for name in args.workload}
    host = next((r["host"] for r in results.values() if "host" in r), None)
    if host is not None:
        print(f"host: {json.dumps(host, sort_keys=True)}")
    for result in results.values():
        print_report(result)

    block = "layers" if args.trace else "metrics"
    metrics: Dict[str, dict] = {}
    for name, result in results.items():
        for metric, entry in result.get(block, {}).items():
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = entry
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and all(block in r for r in results.values())
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        record = {"argv": sys.argv[1:], "host": host, "workloads": results}
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Child: measure one workload
# ---------------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    (name,) = args.workload
    result = measure(name, WORKLOADS[name], args)
    print(RESULT_TAG + json.dumps(result), flush=True)
    return 0


def measure(name: str, workload: Workload, args: argparse.Namespace) -> dict:
    import dataclasses
    import platform
    import resource
    import statistics

    import numpy as np
    import scipy

    import oracle
    from repro.benchgen import CONGESTION_SUITE, SB_MINI_SUITE, synthetic, xl
    from repro.flow import build_flow
    from repro.obs import clock
    from repro.parallel import shutdown_kernel_pools

    size = workload.size * args.scale
    specs = []
    for design in workload.designs:
        base = SB_MINI_SUITE.get(design) or CONGESTION_SUITE.get(design) or xl.XL_SUITE[design]
        if size != 1.0:
            base = dataclasses.replace(
                base,
                num_cells=max(10, int(base.num_cells * size)),
                num_primary_inputs=max(4, int(base.num_primary_inputs * size)),
                num_primary_outputs=max(4, int(base.num_primary_outputs * size)),
            )
        for draw in range(workload.draws):
            specs.append((design, draw, dataclasses.replace(base, seed=base.seed + 1000 * draw)))

    def setup():
        start = clock()
        designs = []
        for design, _, spec in specs:
            # Looked up per call so the traced run's wrappers apply.
            generate = xl.generate_xl_circuit if design in xl.XL_SUITE else synthetic.generate_circuit
            designs.append(generate(spec))
        return designs, clock() - start

    def run_pass(designs) -> dict:
        flows, problems = [], []
        stages = dict.fromkeys(STAGES, 0.0)
        for (design_name, draw, spec), design in zip(specs, designs):
            where = f"{name} {design_name} draw {draw} (spec seed {spec.seed})"
            fixed_xy = oracle.fixed_snapshot(design.arrays)
            runner = build_flow(
                workload.preset, kernel_workers=workload.kernel_workers, seed=args.seed
            )
            try:
                result = runner.run(design)
            except Exception as exc:  # a raising flow is a counted failure
                problems.append(f"{where}: flow raised {type(exc).__name__}: {exc}")
                flows.append({"design": design_name, "draw": draw, "digest": "raised"})
                continue
            ev = result.evaluation
            problem = oracle.legality_problem(
                design, result.x, result.y, fixed_xy
            ) or oracle.quality_problem(hpwl=ev.hpwl, tns=ev.tns, wns=ev.wns)
            if problem:
                problems.append(f"{where}: {problem}")
            for stage, seconds in result.stage_seconds.items():
                stages[stage] = stages.get(stage, 0.0) + seconds
            pairs = result.context.pin_pairs
            flows.append({
                "design": design_name,
                "draw": draw,
                "spec_seed": spec.seed,
                "cells": design.arrays.num_instances,
                "flow_s": result.runtime_seconds,
                "iterations": result.placement.iterations,
                "hpwl": ev.hpwl,
                "tns": ev.tns,
                "wns": ev.wns,
                "failing_endpoints": ev.num_failing_endpoints,
                "peak_overflow": ev.congestion_peak_overflow,
                "pin_pairs": len(pairs) if pairs is not None else 0,
                "feedback_updates": result.summary().get("feedback_updates", 0),
                "digest": oracle.position_digest(result.x, result.y),
            })
        return {
            "flows": flows,
            "problems": problems,
            "flow_s": sum(f.get("flow_s", 0.0) for f in flows),
            "stages": stages,
            "digest": oracle.combine_digests(f["digest"] for f in flows),
        }

    # Untraced: SETUP_REPEATS design sets, then whole passes until
    # --seconds have been measured.  Every pass regenerates its designs
    # (flows move cells in place) and adds one more setup sample.
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        designs = None
        designs, seconds = setup()
        setup_samples.append(seconds)
    passes = []
    start = clock()
    while True:
        passes.append(run_pass(designs))
        designs = None
        shutdown_kernel_pools()
        if clock() - start >= args.seconds:
            break
        designs, seconds = setup()
        setup_samples.append(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0]
    failures = [p for one in passes for p in one["problems"]]
    attempted = sum(len(one["flows"]) for one in passes)
    for index, one in enumerate(passes[1:], start=1):
        if one["digest"] != first["digest"]:
            failures.append(f"{name}: pass {index} placed differently from pass 0")
    ok_flows = [f for f in first["flows"] if "hpwl" in f]
    untraced_flow_s = statistics.median(one["flow_s"] for one in passes)
    # TNS and WNS are reported as positive magnitudes (lower is better).
    metrics = {
        "flow_s": (untraced_flow_s, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "hpwl": (sum(f["hpwl"] for f in ok_flows), "dbu"),
        "neg_tns": (-sum(f["tns"] for f in ok_flows), "ps"),
        "neg_wns": (-sum(f["wns"] for f in ok_flows), "ps"),
    }
    out = {
        "workload": name,
        "preset": workload.preset,
        "designs": list(workload.designs),
        "draws": workload.draws,
        "seed": args.seed,
        "scale": size,
        "kernel_workers": workload.kernel_workers,
        "host": {
            "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {key: os.environ.get(key) for key in THREAD_ENV},
        },
        "cells": sum(f.get("cells", 0) for f in first["flows"]),
        "passes": len(passes),
        "setup_samples": setup_samples,
        "pass_flow_s": [one["flow_s"] for one in passes],
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
        "digest": first["digest"],
        "flows": first["flows"],
    }

    if args.trace:
        traced = run_traced(setup, run_pass, args, name)
        attempted += len(traced["flows"])
        failures += traced["problems"]
        if traced["digest"] != first["digest"]:
            failures.append(f"{name}: the traced run placed differently from the untraced run")
        layer_values = traced["layers"]
        for stage in sorted(first["stages"]):
            layer_values[f"flow.stage.{stage}_s"] = statistics.median(
                one["stages"].get(stage, 0.0) for one in passes
            )
        overflows = [f["peak_overflow"] for f in ok_flows if f["peak_overflow"] is not None]
        layer_values["obs.trace_overhead"] = traced["flow_s"] / untraced_flow_s - 1.0
        layer_values["core.pin_pairs"] = sum(f.get("pin_pairs", 0) for f in traced["flows"])
        layer_values["feedback.updates"] = sum(
            f.get("feedback_updates", 0) for f in traced["flows"]
        )
        layer_values["route.peak_overflow"] = statistics.fmean(overflows) if overflows else 0.0
        out["traced_flow_s"] = traced["flow_s"]
        out["traced_digest"] = traced["digest"]
        out["trace_file"] = traced["trace_file"]
        out["layers"] = {
            key: {"value": value, "unit": layer_unit(key)} for key, value in layer_values.items()
        }

    out["attempted"] = attempted
    out["failed"] = len(failures)
    out["failures"] = failures
    return out


def run_traced(setup, run_pass, args: argparse.Namespace, name: str) -> dict:
    """One more pass with every layer wrapped in spans; returns its record."""
    import layers
    from repro.obs import Tracer, write_chrome_trace
    from repro.parallel import shutdown_kernel_pools

    tracer = Tracer()
    uninstall = layers.install(tracer)
    try:
        designs, _ = setup()
        traced = run_pass(designs)
        del designs
        shutdown_kernel_pools()
    finally:
        uninstall()
    traced["layers"], traced["flow_s"] = layers.layer_metrics(tracer)
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    path = write_chrome_trace(args.trace_dir / f"trace_{name}_seed{args.seed}.json", tracer)
    traced["trace_file"] = os.path.relpath(path, ROOT)
    return traced


if __name__ == "__main__":
    sys.exit(main())
