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

Named compositions of these stages are the presets of
:mod:`repro.flow.presets`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.evaluation.evaluator import Evaluator
from repro.feedback.base import FeedbackCadence, PlacementFeedback
from repro.feedback.composer import WeightComposer, WeightComposerConfig
from repro.feedback.scheduler import FeedbackScheduler
from repro.flow.context import FlowContext
from repro.placement.global_placer import GlobalPlacer, PlacementConfig
from repro.placement.legalization.abacus import AbacusLegalizer
from repro.placement.legalization.greedy import GreedyLegalizer
from repro.route.inflation import InflationConfig, run_inflation_loop
from repro.route.rudy import CongestionConfig, CongestionEstimator
from repro.utils.logging import get_logger

logger = get_logger("flow.stages")


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
    scheduler without proposing, so the composer never sees them.  Timing
    feedbacks analyze the run's corners (``ctx.corners``) through its one
    STA engine, the engine the evaluation scores with.
    """

    name = "feedback_weight"

    def __init__(
        self,
        slots: "list[tuple[PlacementFeedback, FeedbackCadence | None]]",
        *,
        composer: Optional[WeightComposerConfig] = None,
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
        for feedback, _ in self.slots:
            feedback.prepare(ctx)
        scheduler = FeedbackScheduler(WeightComposer(config=self.composer_config))
        for feedback, cadence in self.slots:
            scheduler.add(feedback, cadence)
        ctx.feedback = scheduler
        ctx.metadata["feedback"] = {"trajectory": scheduler.trajectory}


class GlobalPlaceStage:
    """Nonlinear global placement (wirelength + density + extra terms)."""

    name = "global_place"

    def __init__(self, config: Optional[PlacementConfig] = None) -> None:
        self.config = config if config is not None else PlacementConfig()

    def run(self, ctx: FlowContext) -> None:
        placer = GlobalPlacer(ctx.design, self.config, feedback=ctx.feedback)
        placement = placer.run()
        # Keep what later stages read, not the placer: its working set dies here.
        ctx.placement_config = placer.config
        ctx.placement = placement
        ctx.x = placement.x
        ctx.y = placement.y


class LegalizeStage:
    """Abacus legalization with automatic greedy fallback."""

    name = "legalize"

    def run(self, ctx: FlowContext) -> None:
        x, y = ctx.positions()
        # Reuse the repair stage's Abacus run on exactly these arrays.
        scored = ctx.scored_legalization
        if scored is not None and scored[0] is x and scored[1] is y:
            legal = scored[2]
        else:
            legal = AbacusLegalizer(ctx.design).legalize(x, y)
        used_fallback = not legal.success
        if used_fallback:
            logger.warning(
                "Abacus failed (%d unplaced cells, %d overfull rows); "
                "falling back to greedy",
                legal.num_failed,
                legal.num_overfull_rows,
            )
            legal = GreedyLegalizer(ctx.design).legalize(x, y)
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
        estimator = CongestionEstimator(ctx.design, self.config)
        x, y = ctx.positions()
        result = estimator.estimate(x, y)
        ctx.congestion = result
        ctx.congestion_xy = (x, y)
        summary = result.summary()
        summary["hotspots"] = result.hotspots(estimator.config.top_k_hotspots)
        ctx.metadata["congestion"] = summary


class RoutabilityRepairStage:
    """Congestion-driven cell-inflation loop (routability repair).

    Re-runs global placement with inflated cell areas until the RUDY peak
    overflow converges, stalls, or a round breaks the HPWL budget (see
    :mod:`repro.route.inflation`).  Must run after a global-placement stage
    and before legalization; the refine placements warm-start from the
    current positions with the placement stage's config
    (``ctx.placement_config``, fewer iterations).  When the starting
    placement is already under the overflow target this stage is a no-op.
    """

    name = "routability_repair"

    def __init__(
        self,
        *,
        congestion: "CongestionConfig | None" = None,
        inflation: "InflationConfig | None" = None,
        refine_iterations: int = 150,
    ) -> None:
        self.congestion = congestion
        self.inflation = inflation if inflation is not None else InflationConfig()
        self.refine_iterations = int(refine_iterations)

    def _refine_config(self, ctx: FlowContext) -> PlacementConfig:
        import copy

        base = ctx.placement_config
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
        config.density_weight_init_ratio = 1.0
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


class EvaluateStage:
    """Score the placement with the shared evaluator (HPWL/TNS/WNS/legality).

    Timing is scored at the run's corners (``ctx.corners``) with the run's
    STA engine when a timing feedback built one; with corners set the
    evaluation reports merged TNS/WNS as the headline metrics plus a
    per-corner breakdown.  With ``congestion`` set (``True`` for the default
    model or a :class:`~repro.route.rudy.CongestionConfig`), RUDY congestion
    metrics (peak/average overflow, hotspot count) are reported alongside.
    """

    name = "evaluate"

    def __init__(self, *, congestion: "bool | CongestionConfig" = False) -> None:
        self.congestion = congestion

    def run(self, ctx: FlowContext) -> None:
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
        # A run without timing feedback has no engine yet: the evaluator
        # builds one for these corners and frees it when the stage returns.
        ctx.evaluation = Evaluator(
            ctx.design,
            ctx.constraints,
            corners=ctx.corners,
            congestion=congestion,
            sta=ctx.sta,
        ).evaluate(x, y, congestion_result=precomputed)
        # Attach the run's feedback trajectory (per-update WNS / peak
        # overflow / weight-norm rows) so one report carries both the
        # final scores and how the feedback loop got there.
        record = ctx.metadata.get("feedback")
        if record and record.get("trajectory"):
            ctx.evaluation.feedback_trajectory = list(record["trajectory"])
