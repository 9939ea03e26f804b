"""The Efficient-TDP flow (Fig. 1 of the paper) as a pipeline preset.

The flow wires together the substrates through the composable pipeline in
:mod:`repro.flow`:

1. run DREAMPlace-style nonlinear global placement (wirelength + density);
2. once the cell distribution has stabilized (``timing_start_iteration``),
   run a path-level timing analysis every ``m`` iterations: STA, critical
   path extraction with ``report_timing_endpoint(n, 1)`` over all failing
   endpoints, and the Eq. 9 pin-pair weight update;
3. the pin-to-pin attraction term (quadratic distance loss, Eq. 8/10) joins
   the objective with multiplier ``beta`` and pulls critical pin pairs
   together during the remaining iterations;
4. Abacus legalization, then evaluation with the shared evaluator.

:class:`EfficientTDPlacer` is a thin wrapper over the ``efficient_tdp``
preset (``repro.flow.presets.build_flow("efficient_tdp", ...)``); the stage
implementations live in :mod:`repro.flow.stages`.

Hyper-parameter defaults follow Sec. IV: ``beta = 2.5e-5`` (with an optional
automatic rescaling because the absolute value is engine-specific), ``m =
15``, ``w0 = 10``, ``w1 = 0.2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.path_extraction import ExtractionConfig
from repro.evaluation.evaluator import EvaluationReport
from repro.netlist.design import Design
from repro.placement.global_placer import (
    PlacementConfig,
    PlacementHistory,
    PlacementResult,
)
from repro.timing.constraints import TimingConstraints
from repro.timing.report import PathExtractionStats
from repro.utils.logging import get_logger
from repro.utils.profiling import RuntimeProfiler

logger = get_logger("core.placer")


@dataclass
class EfficientTDPConfig:
    """Configuration of the Efficient-TDP flow."""

    # Placement engine schedule.
    max_iterations: int = 450
    timing_start_iteration: int = 150
    min_timing_iterations: int = 120
    stop_overflow: float = 0.08
    target_density: float = 1.0
    seed: int = 0
    # Paper hyper-parameters (Sec. IV).
    beta: float = 2.5e-5
    beta_mode: str = "auto"        # "auto": rescale beta against the WL gradient
    beta_auto_ratio: float = 4.0   # per-pair attraction force vs per-cell WL force
    timing_update_interval: int = 15   # m
    w0: float = 10.0
    w1: float = 0.2
    loss: str = "quadratic"
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    # STA engine mode between timing iterations (exact with tolerance 0).
    incremental_sta: bool = False
    sta_move_tolerance: float = 0.0
    # MCMM analysis corners: None (single-corner), a preset string such as
    # "fast,typ,slow", or a sequence of Corner objects.  Timing feedback
    # then optimizes against the merged (worst-over-corners) slack.
    corners: Optional[object] = None
    # Post-processing.
    legalize: bool = True
    verbose: bool = False
    # Threads of the density model's Poisson-solve DCTs (0 = scipy's
    # default; placements are bitwise identical for any value).
    kernel_workers: int = 0
    # Record placement history every N iterations (1 = every iteration;
    # the optimization trajectory is bitwise unaffected).
    history_every: int = 1

    def placement_config(self) -> PlacementConfig:
        return PlacementConfig(
            max_iterations=self.max_iterations,
            min_iterations=self.timing_start_iteration + self.min_timing_iterations,
            stop_overflow=self.stop_overflow,
            target_density=self.target_density,
            seed=self.seed,
            verbose=self.verbose,
            kernel_workers=self.kernel_workers,
            history_every=self.history_every,
        )


@dataclass
class TDPResult:
    """Everything a flow run produces."""

    x: np.ndarray
    y: np.ndarray
    evaluation: EvaluationReport
    placement: PlacementResult
    history: PlacementHistory
    extraction_stats: List[PathExtractionStats]
    profiler: RuntimeProfiler
    runtime_seconds: float
    num_pin_pairs: int

    def summary(self) -> dict:
        return {
            "design": self.evaluation.design_name,
            "hpwl": self.evaluation.hpwl,
            "tns": self.evaluation.tns,
            "wns": self.evaluation.wns,
            "runtime_sec": round(self.runtime_seconds, 2),
            "iterations": self.placement.iterations,
            "pin_pairs": self.num_pin_pairs,
        }


class EfficientTDPlacer:
    """Timing-driven global placement by efficient critical path extraction.

    A thin preset over the flow pipeline: the constructor expands the config
    into the ``efficient_tdp`` stage list (timing-weight -> global-place ->
    legalize -> evaluate) and :meth:`run` executes it with a
    :class:`repro.flow.runner.FlowRunner`.
    """

    def __init__(
        self,
        design: Design,
        config: Optional[EfficientTDPConfig] = None,
        *,
        constraints: Optional[TimingConstraints] = None,
    ) -> None:
        # Imported here: repro.core loads before repro.flow in the package
        # import order, so the flow modules cannot be module-level imports.
        from repro.flow.presets import build_stages
        from repro.flow.runner import FlowRunner
        from repro.flow.stages import TimingWeightStage

        self.design = design
        self.config = config if config is not None else EfficientTDPConfig()
        self.constraints = (
            constraints if constraints is not None else TimingConstraints.from_design(design)
        )
        self.profiler = RuntimeProfiler()
        self.stages = build_stages("efficient_tdp", self.config)
        self.runner = FlowRunner(self.stages, name="efficient_tdp")
        self.strategy = next(
            stage.strategy for stage in self.stages if isinstance(stage, TimingWeightStage)
        )

    # ------------------------------------------------------------------
    def run(self) -> TDPResult:
        """Run the full flow and return the evaluated placement."""
        result = self.runner.run(
            self.design,
            constraints=self.constraints,
            seed=self.config.seed,
            profiler=self.profiler,
        )
        ctx = result.context
        return TDPResult(
            x=result.x,
            y=result.y,
            evaluation=ctx.evaluation,
            placement=ctx.placement,
            history=ctx.history,
            extraction_stats=list(ctx.extraction_stats),
            profiler=self.profiler,
            runtime_seconds=result.runtime_seconds,
            num_pin_pairs=len(ctx.pin_pairs) if ctx.pin_pairs is not None else 0,
        )
