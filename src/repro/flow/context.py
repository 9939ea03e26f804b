"""Shared state threaded through a flow pipeline run.

A :class:`FlowContext` is created once per :meth:`FlowRunner.run` and handed
to every stage in order.  Stages communicate exclusively through it: the
``feedback_weight`` stage publishes the run's feedback scheduler, and its
timing feedbacks the shared STA engine, pin-pair set and extraction
statistics; the global placement stage publishes positions, history, its
config and final net weights, legalization rewrites the positions, and
evaluation attaches the final report.  Anything not worth a dedicated field
goes into ``metadata``.

A finished run keeps its results, the run's STA engine and the feedback
scheduler, never a placer: a placer's working set is freed by reference
counting when its stage returns.  Nothing the context holds refers back to
it, so the run itself is freed the same way once its result is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.netlist.design import Design
from repro.timing.constraints import Corner, TimingConstraints
from repro.timing.mcmm import MultiCornerSTA
from repro.timing.sta import STAEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.pin_attraction import PinPairSet
    from repro.evaluation.evaluator import EvaluationReport
    from repro.feedback.scheduler import FeedbackScheduler
    from repro.placement.global_placer import PlacementConfig, PlacementHistory, PlacementResult
    from repro.placement.legalization.abacus import LegalizationResult
    from repro.route.rudy import CongestionResult
    from repro.timing.report import PathExtractionStats


@dataclass
class FlowContext:
    """Everything a flow accumulates while its stages execute."""

    design: Design
    constraints: TimingConstraints
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
    # Global placement's config (refine runs start from it) and net weights.
    placement_config: Optional["PlacementConfig"] = None
    net_weights: Optional[np.ndarray] = None
    evaluation: Optional["EvaluationReport"] = None
    sta: Optional[Union[STAEngine, MultiCornerSTA]] = None
    # Routability: the most recent congestion estimate of the placement
    # (published by the congestion / routability-repair stages), plus the
    # exact position arrays it was estimated from — stages rebind rather
    # than mutate position arrays, so an identity match on these means the
    # estimate is still current and can be reused instead of rebuilt.
    congestion: Optional["CongestionResult"] = None
    congestion_xy: Optional[Tuple[np.ndarray, np.ndarray]] = None
    # The repair stage's successful Abacus run on the placement it keeps, as
    # (x, y, result) tagged the same way: legalization reuses it on a match.
    scored_legalization: Optional[Tuple[np.ndarray, np.ndarray, "LegalizationResult"]] = None
    pin_pairs: Optional["PinPairSet"] = None
    extraction_stats: List["PathExtractionStats"] = field(default_factory=list)
    # Wiring between the feedback stage and the placement stages: every
    # placer the run constructs adopts this one scheduler.
    feedback: Optional["FeedbackScheduler"] = None
    # Free-form stage outputs (legalization diagnostics, CLI echoes, ...).
    metadata: Dict[str, Any] = field(default_factory=dict)

    def require_sta(self) -> "STAEngine | MultiCornerSTA":
        """Return the flow-wide STA engine, creating it on first use.

        Timing stages and evaluation share one engine so the timing graph is
        built once per run.  With :attr:`corners` set the shared engine is a
        :class:`MultiCornerSTA` (the flow then optimizes against merged
        slack); otherwise it is the plain single-corner :class:`STAEngine`.
        """
        if self.sta is None:
            if self.corners is not None:
                self.sta = MultiCornerSTA(
                    self.design, self.corners, default_constraints=self.constraints
                )
            else:
                self.sta = STAEngine(self.design, self.constraints)
        return self.sta

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Current cell positions, falling back to the design's stored ones."""
        if self.x is None or self.y is None:
            return self.design.positions()
        return self.x, self.y
