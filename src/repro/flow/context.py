"""Shared state threaded through a flow pipeline run.

A :class:`FlowContext` is created once per :meth:`FlowRunner.run` and handed
to every stage in order.  Stages communicate exclusively through it: the
global placement stage publishes positions and history, the timing-weight
stage publishes the shared STA engine, pin-pair set, and extraction
statistics, legalization rewrites the positions, and evaluation attaches the
final report.  Anything not worth a dedicated field goes into ``metadata``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.netlist.design import Design
from repro.timing.constraints import Corner, TimingConstraints
from repro.timing.mcmm import MultiCornerResult, MultiCornerSTA
from repro.timing.sta import STAEngine, STAResult
from repro.utils.profiling import RuntimeProfiler

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.pin_attraction import PinPairSet
    from repro.evaluation.evaluator import EvaluationReport
    from repro.placement.global_placer import (
        GlobalPlacer,
        PlacementHistory,
        PlacementResult,
    )
    from repro.route.rudy import CongestionResult
    from repro.timing.report import PathExtractionStats

# A hook applied to the GlobalPlacer right after construction, before the
# placement loop starts.  Timing stages use hooks to attach objective terms
# and per-iteration callbacks without owning the placer.
PlacerHook = Callable[["GlobalPlacer", "FlowContext"], None]


@dataclass
class FlowContext:
    """Everything a flow accumulates while its stages execute."""

    design: Design
    constraints: TimingConstraints
    profiler: RuntimeProfiler
    seed: int = 0
    # MCMM: analysis corners shared by timing and evaluation stages
    # (``None`` = plain single-corner analysis, today's behavior).
    corners: Optional[Tuple[Corner, ...]] = None
    # Positions (set by placement, rewritten by legalization).
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    # Stage products.
    placement: Optional["PlacementResult"] = None
    history: Optional["PlacementHistory"] = None
    evaluation: Optional["EvaluationReport"] = None
    sta: Optional[Union[STAEngine, MultiCornerSTA]] = None
    sta_result: Optional[Union[STAResult, MultiCornerResult]] = None
    # Routability: the most recent congestion estimate of the placement
    # (published by the congestion / routability-repair stages), plus the
    # exact position arrays it was estimated from — stages rebind rather
    # than mutate position arrays, so an identity match on these means the
    # estimate is still current and can be reused instead of rebuilt.
    congestion: Optional["CongestionResult"] = None
    congestion_xy: Optional[Tuple[np.ndarray, np.ndarray]] = None
    pin_pairs: Optional["PinPairSet"] = None
    extraction_stats: List["PathExtractionStats"] = field(default_factory=list)
    # Wiring between configuration stages and the placement stage.
    placer: Optional["GlobalPlacer"] = None
    placer_hooks: List[PlacerHook] = field(default_factory=list)
    # Free-form stage outputs (legalization diagnostics, CLI echoes, ...).
    metadata: Dict[str, Any] = field(default_factory=dict)

    def require_sta(self, **engine_kwargs: Any) -> "STAEngine | MultiCornerSTA":
        """Return the flow-wide STA engine, creating it on first use.

        All timing stages share one engine so the timing graph is built once
        per run.  With :attr:`corners` set the shared engine is a
        :class:`MultiCornerSTA` (the flow then optimizes against merged
        slack); otherwise it is the plain single-corner :class:`STAEngine`.
        ``engine_kwargs`` (e.g. ``incremental=True``) apply to the creating
        call; a later caller requesting *different* settings than the engine
        was created with raises instead of being silently handed a
        mismatched engine.
        """
        if self.sta is None:
            if self.corners is not None:
                self.sta = MultiCornerSTA(
                    self.design,
                    self.corners,
                    default_constraints=self.constraints,
                    **engine_kwargs,
                )
            else:
                self.sta = STAEngine(self.design, self.constraints, **engine_kwargs)
            return self.sta
        engine = self.sta
        effective = {
            "incremental": engine.incremental,
            "move_tolerance": engine.move_tolerance,
            "incremental_rebuild_fraction": engine.incremental_rebuild_fraction,
        }
        conflicts = {
            key: value
            for key, value in engine_kwargs.items()
            if key in effective and effective[key] != value
        }
        if conflicts:
            raise ValueError(
                "The flow's shared STA engine is configured with "
                f"{effective}; a later stage requested incompatible "
                f"settings {conflicts}"
            )
        return self.sta

    def feedback_record(self) -> Dict[str, Any]:
        """The run-wide feedback accounting record (created on first use).

        One ``{"trajectory": [...], "seconds": {...}, "calls": {...}}`` dict
        per flow run, shared by every placer the run constructs (the main
        global place and any routability-repair refines), so per-update
        trajectory rows and per-feedback runtimes accumulate in one place.
        Lives in ``metadata["feedback"]`` for JSON-friendly reporting.
        """
        from repro.feedback.scheduler import feedback_record

        return feedback_record(self)

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Current cell positions, falling back to the design's stored ones."""
        if self.x is None or self.y is None:
            return self.design.positions()
        return self.x, self.y
