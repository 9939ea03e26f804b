"""DREAMPlace 4.0-style baseline: momentum-based net weighting.

Every ``m`` iterations after the timing-start iteration, the flow runs STA,
derives each net's criticality from its worst pin slack, and updates the net
weights with momentum (Eq. 5 of the paper; see
:class:`repro.weighting.MomentumNetWeighting`).  The heavier nets then pull
their cells together through the ordinary weighted-wirelength gradient.

This class also serves as the paper's "w/o Path Extraction" ablation arm,
which replaces path-level extraction with exactly this pin-level,
momentum-weighted scheme.  The flow itself is a pipeline composition:
``timing_weight(net_weight) -> global_place -> legalize -> evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.dreamplace import BaselineResult, baseline_result_from_flow
from repro.flow.presets import build_stages
from repro.flow.runner import FlowRunner
from repro.netlist.design import Design
from repro.placement.global_placer import PlacementConfig
from repro.timing.constraints import TimingConstraints
from repro.utils.profiling import RuntimeProfiler


@dataclass
class DreamPlace4Config:
    """Schedule and weighting knobs of the net-weighting baseline."""

    max_iterations: int = 450
    timing_start_iteration: int = 150
    min_timing_iterations: int = 120
    stop_overflow: float = 0.08
    target_density: float = 1.0
    seed: int = 0
    timing_update_interval: int = 15
    # The weighting aggressiveness is calibrated so the baseline lands in the
    # operating envelope DREAMPlace 4.0 itself reports (~6% HPWL overhead on
    # the contest designs).  Larger boosts trade HPWL for TNS aggressively on
    # the small synthetic suite; see EXPERIMENTS.md for that sensitivity.
    momentum_decay: float = 0.75
    max_boost: float = 0.75
    max_weight: float = 6.0
    # MCMM corners spec (None, "fast,typ,slow", or Corner objects).
    corners: Optional[object] = None
    verbose: bool = False
    # Kernel-pool workers for the GP / congestion / legalization hot paths
    # (0 = serial; see repro.parallel for the bit-exactness guarantee).
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


class DreamPlace4Baseline:
    """Timing-driven placement through momentum-guided net weighting."""

    def __init__(
        self,
        design: Design,
        config: Optional[DreamPlace4Config] = None,
        *,
        constraints: Optional[TimingConstraints] = None,
    ) -> None:
        self.design = design
        self.config = config if config is not None else DreamPlace4Config()
        self.constraints = (
            constraints if constraints is not None else TimingConstraints.from_design(design)
        )
        # Bound to the flow-owned (span-backed) profiler after run(); see
        # DreamPlaceBaseline for the rationale.
        self.profiler: Optional[RuntimeProfiler] = None

    def run(self) -> BaselineResult:
        runner = FlowRunner(
            build_stages("dreamplace4", self.config), name="dreamplace4"
        )
        result = runner.run(
            self.design,
            constraints=self.constraints,
            seed=self.config.seed,
        )
        self.profiler = result.context.profiler
        return baseline_result_from_flow(result)
