"""Synthetic benchmark generation (ICCAD-2015 stand-in).

The ICCAD-2015 incremental timing-driven placement contest benchmarks
(superblue1..18) are not redistributable and are far beyond laptop scale, so
the experiments in this reproduction run on deterministic synthetic designs
produced by :func:`generate_circuit`.  The :data:`SB_MINI_SUITE` presets give
eight "superblue-like" mini designs with the structural properties that drive
the paper's findings: multi-stage register-to-register pipelines, a spread of
failing endpoints, shared combinational cones (path sharing), and a range of
fan-out distributions.
"""

from repro.benchgen.synthetic import CircuitSpec, generate_circuit
from repro.benchgen.suite import (
    CONGESTION_SUITE,
    SB_MINI_SUITE,
    available_design_names,
    benchmark_names,
    congestion_benchmark_names,
    load_benchmark,
)

__all__ = [
    "CircuitSpec",
    "generate_circuit",
    "CONGESTION_SUITE",
    "SB_MINI_SUITE",
    "available_design_names",
    "benchmark_names",
    "congestion_benchmark_names",
    "load_benchmark",
]
