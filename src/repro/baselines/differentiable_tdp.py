"""Differentiable-TDP-style baseline (Guo & Lin, DAC'22 spirit).

Guo & Lin integrate a differentiable timing engine into DREAMPlace and
back-propagate a smoothed TNS objective through every arc of the timing
graph.  The key properties relative to the paper's method are that (a) all
net arcs participate (paths are considered implicitly, no explicit
extraction), and (b) the timing metric is smoothed, trading accuracy for
differentiability.

This baseline reproduces those two properties on the shared substrate via
the ``timing_weight(smooth_pair)`` strategy: every ``m`` iterations it
refreshes STA and rebuilds a pin-pair attraction set over *all* net arcs,
weighted by a smooth (sigmoid) criticality of the sink pin's slack,
optimized with a linear Euclidean distance loss.  It is path-free and
smooth — accurate enough to beat pure net weighting, but without the
fine-grained path coverage of explicit extraction, which is where the
proposed method gains.
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
class DifferentiableTDPConfig:
    """Schedule and smoothing knobs of the differentiable-TDP-style baseline."""

    max_iterations: int = 450
    timing_start_iteration: int = 150
    min_timing_iterations: int = 120
    stop_overflow: float = 0.08
    target_density: float = 1.0
    seed: int = 0
    timing_update_interval: int = 15
    temperature: float = 0.25
    criticality_threshold: float = 0.05
    attraction_ratio: float = 0.15
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


class DifferentiableTDPBaseline:
    """Smoothed, path-free timing attraction over all net arcs."""

    def __init__(
        self,
        design: Design,
        config: Optional[DifferentiableTDPConfig] = None,
        *,
        constraints: Optional[TimingConstraints] = None,
    ) -> None:
        self.design = design
        self.config = config if config is not None else DifferentiableTDPConfig()
        self.constraints = (
            constraints if constraints is not None else TimingConstraints.from_design(design)
        )
        self.profiler = RuntimeProfiler()

    def run(self) -> BaselineResult:
        runner = FlowRunner(
            build_stages("differentiable_tdp", self.config), name="differentiable_tdp"
        )
        result = runner.run(
            self.design,
            constraints=self.constraints,
            seed=self.config.seed,
            profiler=self.profiler,
        )
        return baseline_result_from_flow(result)
