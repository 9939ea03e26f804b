"""Shared fixtures for the benchmark harness.

The expensive part — running every placer on every sb_mini design — is done
once per pytest session and reused by the Table II / Table IV / Fig. 4 /
Fig. 5 benchmarks.  Results (tables and machine-readable JSON) are written to
``benchmarks/results/``; wall-clock results, which change on every run, go
to the git-ignored ``benchmarks/results/wallclock/`` so a test run leaves
the tracked files untouched unless a score moves.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

from repro.benchgen import benchmark_names, load_benchmark
from repro.flow import build_flow

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
WALLCLOCK_DIR = os.path.join(RESULTS_DIR, "wallclock")

# The designs every cross-method table uses (the full sb_mini suite).
SUITE = benchmark_names()

# Table II method -> (flow preset, config overrides).  DREAMPlace records
# TNS/WNS every 15 iterations for the Fig. 5 trajectories; DREAMPlace 4.0
# and ours record placement history at every iteration (flows default to
# every 10th), since Fig. 5 plots each one.
METHOD_FLOWS = {
    "DREAMPlace": ("dreamplace", {"max_iterations": 450, "seed": 1, "record_timing_every": 15}),
    "DREAMPlace 4.0": ("dreamplace4", {"history_every": 1}),
    "Differentiable-TDP": ("differentiable_tdp", {}),
    "Efficient-TDP (ours)": ("efficient_tdp", {"history_every": 1}),
}
METHODS = list(METHOD_FLOWS)


def results_dir(wallclock: bool = False) -> str:
    directory = WALLCLOCK_DIR if wallclock else RESULTS_DIR
    os.makedirs(directory, exist_ok=True)
    return directory


def save_json(name: str, payload, *, wallclock: bool = False) -> str:
    path = os.path.join(results_dir(wallclock), name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path


def save_text(name: str, text: str, *, wallclock: bool = False) -> str:
    path = os.path.join(results_dir(wallclock), name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path


def scores(result) -> dict:
    """The evaluation report of a flow result without its run-timing metrics,
    so the committed table files change only when the scores do."""
    report = result.evaluation.as_dict()
    report.pop("trace_metrics", None)
    return report


def run_method(method: str, design_name: str):
    """Run one placer flow on a freshly generated copy of ``design_name``."""
    if method not in METHOD_FLOWS:
        raise ValueError(f"Unknown method {method!r}")
    preset, overrides = METHOD_FLOWS[method]
    return build_flow(preset, **overrides).run(load_benchmark(design_name))


@pytest.fixture(scope="session")
def suite_results() -> Dict[str, Dict[str, object]]:
    """``results[design][method] -> flow result`` for the whole suite."""
    results: Dict[str, Dict[str, object]] = {}
    for design_name in SUITE:
        results[design_name] = {}
        for method in METHODS:
            results[design_name][method] = run_method(method, design_name)
    return results
