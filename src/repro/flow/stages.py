"""Concrete flow stages.

The stages re-express the Efficient-TDP flow (Fig. 1 of the paper) and its
baselines as composable steps:

* :class:`FeedbackWeightStage` — schedules in-loop feedbacks (timing: path
  extraction + pin pairs, momentum net weighting, smoothed pin pairs,
  recording; congestion net weighting; see :mod:`repro.feedback`).  It runs
  *before* global placement in the stage list because feedback runs inside
  the placement loop: the stage prepares each feedback against the flow
  context and publishes the run's one feedback scheduler as
  ``ctx.feedback``, which every placer the run constructs adopts.
* :class:`GlobalPlaceStage` — nonlinear wirelength/density placement.
* :class:`LegalizeStage` — Abacus with automatic greedy fallback.
* :class:`EvaluateStage` — shared HPWL/TNS/WNS scoring.

Every stage is registered in the stage registry, so flows can be assembled
by name (see :mod:`repro.flow.presets` and the ``repro`` CLI).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.evaluation.evaluator import Evaluator
from repro.feedback.base import FeedbackCadence, PlacementFeedback
from repro.feedback.composer import WeightComposer, WeightComposerConfig
from repro.feedback.scheduler import FeedbackScheduler
from repro.flow.context import FlowContext
from repro.flow.stage import register_stage
from repro.obs import span
from repro.placement.detailed import DetailedPlacer
from repro.placement.global_placer import GlobalPlacer, PlacementConfig
from repro.placement.legalization.abacus import AbacusLegalizer
from repro.placement.legalization.greedy import GreedyLegalizer
from repro.route.inflation import InflationConfig, run_inflation_loop
from repro.route.rudy import CongestionConfig, CongestionEstimator
from repro.timing.mcmm import CornersSpec, resolve_corners
from repro.utils.logging import get_logger

logger = get_logger("flow.stages")


@register_stage("feedback_weight")
class FeedbackWeightStage:
    """Composable in-loop net weighting: scheduled feedbacks + one composer.

    ``slots`` is a list of ``(feedback, cadence)`` pairs (cadence ``None``
    fires every iteration).  The stage prepares every feedback against the
    flow context and builds the run's one
    :class:`~repro.feedback.scheduler.FeedbackScheduler` (with a fresh
    :class:`WeightComposer`), published as ``ctx.feedback``; its trajectory
    is ``ctx.metadata["feedback"]["trajectory"]``.  Every placer of the run
    adopts that scheduler, so warm-started refine placements (the
    routability-repair loop) continue the same composed weight state
    instead of restarting from ones.

    This stage is the composition seam: timing criticality, congestion
    penalty, and any future signal (density, IR drop, ECO deltas) ride the
    same scheduler and merge through the same composer.  Self-applying
    timing feedbacks (pin pairs, momentum net weighting) ride the same
    scheduler without proposing, so the composer never sees them.

    ``corners`` publishes MCMM analysis corners to the context before the
    feedbacks build their STA engine, so every later timing consumer
    (shared engine, evaluation) sees the same set; a runner-level
    ``corners=`` wins when both are given.
    """

    name = "feedback_weight"

    def __init__(
        self,
        slots: "list[tuple[PlacementFeedback, FeedbackCadence | None]]",
        *,
        composer: Optional[WeightComposerConfig] = None,
        corners: CornersSpec = None,
    ) -> None:
        if not slots:
            raise ValueError("feedback_weight needs at least one feedback slot")
        self.slots = [
            (feedback, cadence if cadence is not None else FeedbackCadence())
            for feedback, cadence in slots
        ]
        self.composer_config = (
            composer if composer is not None else WeightComposerConfig()
        )
        self.corners = corners

    def run(self, ctx: FlowContext) -> None:
        if ctx.placement is not None:
            raise ValueError(
                "feedback_weight must come before global_place in the stage "
                "list: the placer adopts the feedback scheduler it builds"
            )
        if ctx.feedback is not None:
            raise ValueError(
                "a flow takes one feedback_weight stage: schedule every "
                "feedback as a slot of it"
            )
        if self.corners is not None and ctx.corners is None:
            ctx.corners = resolve_corners(self.corners)
        for feedback, _ in self.slots:
            feedback.prepare(ctx)
        scheduler = FeedbackScheduler(WeightComposer(config=self.composer_config))
        for feedback, cadence in self.slots:
            scheduler.add(feedback, cadence)
        ctx.feedback = scheduler
        ctx.metadata["feedback"] = {"trajectory": scheduler.trajectory}


@register_stage("global_place")
class GlobalPlaceStage:
    """Nonlinear global placement (wirelength + density + extra terms)."""

    name = "global_place"

    def __init__(self, config: Optional[PlacementConfig] = None) -> None:
        self.config = config if config is not None else PlacementConfig()

    def run(self, ctx: FlowContext) -> None:
        with span("profile.io"):
            placer = GlobalPlacer(ctx.design, self.config, feedback=ctx.feedback)
        placement = placer.run()
        # Keep what later stages read, not the placer: its working set dies here.
        ctx.placement_config = placer.config
        ctx.net_weights = placer.net_weights
        ctx.placement = placement
        ctx.history = placement.history
        ctx.x = placement.x
        ctx.y = placement.y


@register_stage("legalize")
class LegalizeStage:
    """Abacus legalization with automatic greedy fallback."""

    name = "legalize"

    def __init__(self, *, fallback: bool = True) -> None:
        self.fallback = fallback

    def run(self, ctx: FlowContext) -> None:
        x, y = ctx.positions()
        with span("profile.legalization"):
            # Reuse the repair stage's Abacus run on exactly these arrays.
            scored = ctx.scored_legalization
            if scored is not None and scored[0] is x and scored[1] is y:
                legal = scored[2]
            else:
                legal = AbacusLegalizer(ctx.design).legalize(x, y)
            used_fallback = False
            if not legal.success and self.fallback:
                logger.warning(
                    "Abacus failed (%d unplaced cells, %d overfull rows); "
                    "falling back to greedy",
                    legal.num_failed,
                    legal.num_overfull_rows,
                )
                legal = GreedyLegalizer(ctx.design).legalize(x, y)
                used_fallback = True
            ctx.x, ctx.y = legal.x, legal.y
            ctx.design.set_positions(ctx.x, ctx.y)
        ctx.metadata["legalization"] = {
            "engine": "greedy" if used_fallback else "abacus",
            "fallback": used_fallback,
            "num_failed": int(legal.num_failed),
            "num_overfull_rows": int(legal.num_overfull_rows),
            "total_displacement": float(legal.total_displacement),
            "max_displacement": float(legal.max_displacement),
        }


@register_stage("detailed_place")
class DetailedPlaceStage:
    """Delta-HPWL adjacent-swap refinement of a legalized placement.

    Runs after :class:`LegalizeStage`; positions stay legal (swaps exchange
    abutting cells within a row).  Not part of the shipped presets — the
    paper's evaluation is about global placement — but available by name
    for flows that want the extra HPWL squeeze (see ``examples/``).
    """

    name = "detailed_place"

    def __init__(self, *, max_passes: int = 2) -> None:
        self.max_passes = max_passes

    def run(self, ctx: FlowContext) -> None:
        x, y = ctx.positions()
        with span("profile.detailed_place"):
            placer = DetailedPlacer(ctx.design, max_passes=self.max_passes)
            rx, ry, accepted = placer.refine(x, y)
            ctx.x, ctx.y = rx, ry
            ctx.design.set_positions(rx, ry)
        ctx.metadata["detailed_place"] = {
            "accepted_swaps": int(accepted),
            "max_passes": int(self.max_passes),
        }


@register_stage("congestion")
class CongestionStage:
    """Estimate routing congestion (RUDY + pin density) of the placement.

    Publishes the :class:`~repro.route.rudy.CongestionResult` on
    ``ctx.congestion`` and a flat summary (peak/average overflow, hotspot
    count, ACE scores, top-k hotspots) in ``ctx.metadata["congestion"]``.
    Pure observation: positions are never modified.
    """

    name = "congestion"

    def __init__(self, config: "CongestionConfig | None" = None) -> None:
        self.config = config

    def run(self, ctx: FlowContext) -> None:
        with span("profile.congestion"):
            estimator = CongestionEstimator(ctx.design, self.config)
            x, y = ctx.positions()
            result = estimator.estimate(x, y)
            ctx.congestion = result
            ctx.congestion_xy = (x, y)
            summary = result.summary()
            summary["hotspots"] = result.hotspots(estimator.config.top_k_hotspots)
            ctx.metadata["congestion"] = summary


@register_stage("routability_repair")
class RoutabilityRepairStage:
    """Congestion-driven cell-inflation loop (routability repair).

    Re-runs global placement with inflated cell areas until the RUDY peak
    overflow converges, stalls, or a round breaks the HPWL budget (see
    :mod:`repro.route.inflation`).  Must run after a global-placement stage
    and before legalization; the refine placements warm-start from the
    current positions with the placement stage's config (fewer iterations).  When the starting placement is already under the
    overflow target this stage is a no-op.
    """

    name = "routability_repair"

    def __init__(
        self,
        *,
        congestion: "CongestionConfig | None" = None,
        inflation: "InflationConfig | None" = None,
        refine_iterations: int = 150,
        refine_density_init_ratio: float = 1.0,
        placement_config: Optional[PlacementConfig] = None,
    ) -> None:
        self.congestion = congestion
        self.inflation = inflation if inflation is not None else InflationConfig()
        self.refine_iterations = int(refine_iterations)
        self.refine_density_init_ratio = float(refine_density_init_ratio)
        self.placement_config = placement_config

    def _refine_config(self, ctx: FlowContext) -> PlacementConfig:
        import copy

        base = self.placement_config if self.placement_config is not None else ctx.placement_config
        config = copy.deepcopy(base) if base is not None else PlacementConfig()
        config.max_iterations = self.refine_iterations
        # Warm starts begin spread out; a long mandatory tail would only
        # undo the wirelength the first placement earned.
        config.min_iterations = min(config.min_iterations, 20)
        # The first placement already spread the design, so the refine run
        # must keep the density force strong from its first iteration: with
        # the cold-start ratio (1e-3) wirelength would re-cluster the cells
        # long before the growth schedule catches up, and the warm start
        # would end *worse* than it began.
        config.density_weight_init_ratio = self.refine_density_init_ratio
        return config

    def run(self, ctx: FlowContext) -> None:
        if ctx.placement is None and ctx.x is None:
            raise ValueError(
                "routability_repair must come after global_place: the "
                "inflation loop refines an existing placement"
            )
        design = ctx.design
        estimator = CongestionEstimator(design, self.congestion)
        refine_config = self._refine_config(ctx)

        def place_fn(x0: np.ndarray, y0: np.ndarray, area_scale: np.ndarray):
            placer = GlobalPlacer(design, refine_config, feedback=ctx.feedback)
            placer.density.set_area_scale(area_scale)
            result = placer.run(x0, y0)
            return result.x, result.y

        scored = {}

        def legalize_fn(lx: np.ndarray, ly: np.ndarray):
            # Same engine/fallback policy as LegalizeStage, so the loop
            # scores exactly what the flow will later commit to.
            legal = AbacusLegalizer(design).legalize(lx, ly)
            if legal.success:
                scored[id(lx)] = (lx, ly, legal)
            else:
                legal = GreedyLegalizer(design).legalize(lx, ly)
            return legal.x, legal.y

        x, y = ctx.positions()
        with span("profile.routability"):
            outcome = run_inflation_loop(
                design,
                place_fn,
                x,
                y,
                estimator=estimator,
                config=self.inflation,
                legalize_fn=legalize_fn,
            )
        ctx.x, ctx.y = outcome.x, outcome.y
        design.set_positions(outcome.x, outcome.y)
        ctx.scored_legalization = scored.get(id(outcome.x))
        ctx.congestion = outcome.result
        # With legalized scoring the kept CongestionResult describes the
        # legalized copy, not these raw positions: leave congestion_xy unset
        # so downstream stages re-estimate instead of reusing a mismatch.
        ctx.congestion_xy = (
            None if self.inflation.score_legalized else (outcome.x, outcome.y)
        )
        ctx.metadata["routability_repair"] = outcome.as_dict()
        if len(outcome.rounds) > 1:
            logger.info(
                "routability repair: peak overflow %.4f -> %.4f in %d rounds (%s)",
                outcome.initial_peak_overflow,
                outcome.final_peak_overflow,
                len(outcome.rounds) - 1,
                outcome.stop_reason,
            )


@register_stage("evaluate")
class EvaluateStage:
    """Score the placement with the shared evaluator (HPWL/TNS/WNS/legality).

    With corners configured (on the stage or the context) the evaluation
    reports merged TNS/WNS as the headline metrics plus a per-corner
    breakdown.  With ``congestion`` set (``True`` for the default model or a
    :class:`~repro.route.rudy.CongestionConfig`), RUDY congestion metrics
    (peak/average overflow, hotspot count) are reported alongside.
    """

    name = "evaluate"

    def __init__(
        self,
        *,
        corners: CornersSpec = None,
        congestion: "bool | CongestionConfig" = False,
    ) -> None:
        self.corners = corners
        self.congestion = congestion

    def run(self, ctx: FlowContext) -> None:
        with span("profile.io"):
            corners = ctx.corners
            if corners is None and self.corners is not None:
                corners = resolve_corners(self.corners)
            congestion = self.congestion
            if congestion is True:
                congestion = CongestionConfig()
            elif congestion is False:
                congestion = None
            x, y = ctx.positions()
            # Reuse the congestion stage's maps when they were estimated at
            # exactly these position arrays (stages rebind, never mutate, so
            # identity implies currency); otherwise the evaluator builds its
            # own estimate.
            precomputed = None
            if (
                congestion is not None
                and ctx.congestion is not None
                and ctx.congestion_xy is not None
                and ctx.congestion_xy[0] is x
                and ctx.congestion_xy[1] is y
            ):
                precomputed = ctx.congestion
            # The run's engine was built for ctx.constraints and ctx.corners.
            sta = ctx.sta if corners is ctx.corners else None
            ctx.evaluation = Evaluator(
                ctx.design, ctx.constraints, corners=corners, congestion=congestion, sta=sta
            ).evaluate(x, y, congestion_result=precomputed)
            # Attach the run's feedback trajectory (per-update WNS / peak
            # overflow / weight-norm rows) so one report carries both the
            # final scores and how the feedback loop got there.
            record = ctx.metadata.get("feedback")
            if record and record.get("trajectory"):
                ctx.evaluation.feedback_trajectory = list(record["trajectory"])
