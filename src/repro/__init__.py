"""Efficient-TDP: timing-driven global placement by efficient critical path
extraction (reproduction of Shi et al., DATE 2025).

The top-level package re-exports the most commonly used entry points; see
the subpackages for the full API:

* :mod:`repro.netlist` — circuit data model and file I/O.
* :mod:`repro.timing` — static timing analysis and critical path reporting.
* :mod:`repro.placement` — analytical global placement and legalization.
* :mod:`repro.core` — the paper's critical path extraction and pin-to-pin
  attraction.
* :mod:`repro.feedback` — in-loop timing and congestion feedbacks.
* :mod:`repro.benchgen` — synthetic ICCAD-2015-like benchmark generation.
* :mod:`repro.evaluation` — shared HPWL/TNS/WNS scoring.
* :mod:`repro.route` — routability: RUDY congestion estimation and the
  congestion-driven cell-inflation repair loop.
* :mod:`repro.flow` — the composable flow pipeline (stages, presets,
  concurrent batch runner, and the ``repro`` CLI); its presets are the
  paper's flow and the DREAMPlace / DREAMPlace 4.0 / Differentiable-TDP
  style comparison flows.
"""

from repro.benchgen import CircuitSpec, generate_circuit, load_benchmark, benchmark_names
from repro.core import (
    ExtractionConfig,
    PinAttractionObjective,
    PinPairSet,
    QuadraticLoss,
)
from repro.evaluation import Evaluator, evaluate_placement
from repro.flow import (
    BatchJob,
    BatchReport,
    EfficientTDPConfig,
    FlowContext,
    FlowResult,
    FlowRunner,
    build_flow,
    preset_names,
    run_batch,
)
from repro.netlist import CompiledDesign, Design, DesignCore, Library, compile_design, make_generic_library
from repro.placement import GlobalPlacer, PlacementConfig, AbacusLegalizer
from repro.route import (
    CongestionConfig,
    CongestionEstimator,
    CongestionResult,
    InflationConfig,
    estimate_congestion,
    run_inflation_loop,
)
from repro.timing import STAEngine, TimingConstraints, report_timing, report_timing_endpoint

__version__ = "1.1.0"

__all__ = [
    "CircuitSpec",
    "generate_circuit",
    "load_benchmark",
    "benchmark_names",
    "EfficientTDPConfig",
    "ExtractionConfig",
    "PinAttractionObjective",
    "PinPairSet",
    "QuadraticLoss",
    "Evaluator",
    "evaluate_placement",
    "BatchJob",
    "BatchReport",
    "FlowContext",
    "FlowResult",
    "FlowRunner",
    "build_flow",
    "preset_names",
    "run_batch",
    "Design",
    "DesignCore",
    "CompiledDesign",
    "compile_design",
    "Library",
    "make_generic_library",
    "GlobalPlacer",
    "PlacementConfig",
    "AbacusLegalizer",
    "CongestionConfig",
    "CongestionEstimator",
    "CongestionResult",
    "InflationConfig",
    "estimate_congestion",
    "run_inflation_loop",
    "STAEngine",
    "TimingConstraints",
    "report_timing",
    "report_timing_endpoint",
    "__version__",
]
