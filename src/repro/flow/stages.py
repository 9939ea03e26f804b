"""Concrete flow stages and the timing-feedback strategies they host.

The four stages re-express the monolithic Efficient-TDP flow (Fig. 1 of the
paper) as composable steps:

* :class:`TimingWeightStage` — configures periodic timing feedback.  It runs
  *before* global placement in the stage list because timing feedback hooks
  into the placement loop: the stage builds its STA engine and objective and
  registers a placer hook; the hook attaches objective terms and the
  per-iteration callback when :class:`GlobalPlaceStage` constructs the
  placer.  The actual strategy (path extraction + pin pairs, momentum net
  weighting, smoothed pin weighting, or record-only) is pluggable.
* :class:`GlobalPlaceStage` — nonlinear wirelength/density placement.
* :class:`LegalizeStage` — Abacus with automatic greedy fallback.
* :class:`EvaluateStage` — shared HPWL/TNS/WNS scoring.

Every stage is registered in the stage registry, so flows can be assembled
by name (see :mod:`repro.flow.presets` and the ``repro`` CLI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Type

import numpy as np

from repro.core.losses import LinearLoss, make_loss
from repro.core.path_extraction import CriticalPathExtractor, ExtractionConfig
from repro.core.pin_attraction import PinAttractionObjective, PinPairSet
from repro.evaluation.evaluator import Evaluator
from repro.feedback.base import FeedbackCadence, PlacementFeedback
from repro.feedback.composer import WeightComposer, WeightComposerConfig
from repro.feedback.timing import StrategyFeedback
from repro.flow.context import FlowContext
from repro.flow.stage import register_stage
from repro.placement.detailed import DetailedPlacer
from repro.placement.global_placer import GlobalPlacer, PlacementConfig
from repro.placement.legalization.abacus import AbacusLegalizer
from repro.placement.legalization.greedy import GreedyLegalizer
from repro.route.inflation import InflationConfig, run_inflation_loop
from repro.route.rudy import CongestionConfig, CongestionEstimator
from repro.timing.mcmm import CornersSpec, MultiCornerResult, MultiCornerSTA, resolve_corners
from repro.timing.report import PathBatch
from repro.timing.sta import STAResult
from repro.utils.logging import get_logger
from repro.weighting.net_weighting import MomentumNetWeighting
from repro.weighting.pin_weighting import smooth_pin_pair_weights

logger = get_logger("flow.stages")


def calibrate_attraction_weight(
    placer: GlobalPlacer,
    attraction: PinAttractionObjective,
    num_pairs: int,
    ratio: float,
    x: np.ndarray,
    y: np.ndarray,
) -> bool:
    """Scale the attraction weight so the *average per-pair* force is
    ``ratio`` times the *average per-cell* wirelength force.

    The paper's absolute ``beta = 2.5e-5`` is tied to DREAMPlace's internal
    gradient scaling; reproducing the relative strength of the two forces is
    what transfers across engines.  Normalizing per pair / per cell keeps
    the calibration independent of how many pairs have been extracted so
    far.  Both the pin-pair and the smoothed strategies calibrate through
    this one helper so their comparison is about *which* pins are
    attracted, not about force magnitudes.  Returns True once calibrated.
    """
    wl = placer.wirelength.evaluate(x, y, net_weights=placer.net_weights)
    wl_norm = float(np.abs(wl.grad_x).sum() + np.abs(wl.grad_y).sum())
    num_movable = max(int(placer.design.arrays.movable_mask.sum()), 1)
    pp_norm = attraction.gradient_norm(x, y)
    num_pairs = max(num_pairs, 1)
    if pp_norm > 1e-12 and wl_norm > 1e-12:
        attraction.weight = ratio * (wl_norm / num_movable) / (pp_norm / num_pairs)
        logger.debug("calibrated attraction weight to %.3e", attraction.weight)
        return True
    return False


def merged_result(result: "STAResult | MultiCornerResult") -> STAResult:
    """Single-corner view of a timing result.

    Multi-corner results collapse to their pessimistic merge (per-pin worst
    slack over corners) — the quantity MCMM-aware timing feedback optimizes;
    single-corner results pass through unchanged.
    """
    return result.merged if isinstance(result, MultiCornerResult) else result


# ----------------------------------------------------------------------
# Timing-feedback strategies
# ----------------------------------------------------------------------
@dataclass
class TimingStrategyBase:
    """Common plumbing of all timing-feedback strategies.

    Subclasses implement :meth:`update`; the base class handles the shared
    post-update work (momentum reset after an objective change, TNS/WNS
    trajectory recording for Fig. 5).
    """

    # Use the engine's incremental mode between timing iterations.
    sta_incremental: bool = False
    sta_move_tolerance: float = 0.0

    resets_momentum = True
    records_history = True

    def prepare(self, ctx: FlowContext) -> None:  # pragma: no cover - default
        """Build engine/objective state before the placer exists."""

    def attach(self, placer: GlobalPlacer, ctx: FlowContext) -> None:
        """Attach objective terms to the freshly constructed placer."""

    def update(
        self,
        placer: GlobalPlacer,
        ctx: FlowContext,
        iteration: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> STAResult:
        raise NotImplementedError

    def on_timing_iteration(
        self,
        placer: GlobalPlacer,
        ctx: FlowContext,
        iteration: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> None:
        result = self.update(placer, ctx, iteration, x, y)
        ctx.sta_result = result
        if self.resets_momentum:
            # The objective just changed; momentum accumulated under the
            # previous objective is stale and can destabilize Nesterov.
            placer.reset_optimizer_momentum()
        if self.records_history:
            placer.history.record_extra("tns", iteration, result.tns)
            placer.history.record_extra("wns", iteration, result.wns)

    def _engine_kwargs(self) -> Dict[str, object]:
        return {
            "incremental": self.sta_incremental,
            "move_tolerance": self.sta_move_tolerance,
        }


@dataclass
class PinPairAttractionStrategy(TimingStrategyBase):
    """The paper's strategy: critical path extraction feeding pin pairs.

    Every timing iteration runs STA, extracts critical paths with
    ``report_timing_endpoint(n, k)``, applies the Eq. 9 pin-pair weight
    update, and (once, in ``beta_mode="auto"``) calibrates the attraction
    strength against the wirelength gradient.
    """

    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    w0: float = 10.0
    w1: float = 0.2
    loss: str = "quadratic"
    beta: float = 2.5e-5
    beta_mode: str = "auto"
    beta_auto_ratio: float = 4.0
    verbose: bool = False

    def prepare(self, ctx: FlowContext) -> None:
        with ctx.profiler.section("io"):
            self.sta = ctx.require_sta(**self._engine_kwargs())
            # One extractor per corner: critical paths are corner-specific
            # (a path failing only at the slow corner must still attract its
            # pins), so MCMM extraction walks every corner's annotations and
            # pools the pin pairs.  Single-corner flows keep one extractor.
            if isinstance(self.sta, MultiCornerSTA):
                self.extractors = [
                    CriticalPathExtractor(self.sta.corner_view(index), self.extraction)
                    for index in range(self.sta.num_corners)
                ]
            else:
                self.extractors = [CriticalPathExtractor(self.sta, self.extraction)]
            self.extractor = self.extractors[0]
            self.pairs = PinPairSet(w0=self.w0, w1=self.w1)
            self.attraction = PinAttractionObjective(
                ctx.design,
                self.pairs,
                loss=make_loss(self.loss),
                beta=self.beta,
            )
        ctx.pin_pairs = self.pairs
        self.beta_calibrated = self.beta_mode != "auto"
        self.timing_rounds = 0

    def attach(self, placer: GlobalPlacer, ctx: FlowContext) -> None:
        placer.add_objective_term(self.attraction)

    def update(
        self,
        placer: GlobalPlacer,
        ctx: FlowContext,
        iteration: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> STAResult:
        with ctx.profiler.section("timing_analysis"):
            result = self.sta.update_timing(x, y)
            corner_paths = []
            for index, extractor in enumerate(self.extractors):
                corner_result = (
                    result.corner_result(index)
                    if isinstance(result, MultiCornerResult)
                    else result
                )
                paths, stats = extractor.extract(corner_result)
                corner_paths.append(paths)
                ctx.extraction_stats.append(stats)
        with ctx.profiler.section("weighting"):
            # MCMM: one Eq. 9 update over every corner's paths, in corner order.
            paths = PathBatch.concatenate(corner_paths, self.sta.graph)
            self.pairs.update_from_paths(paths, self.sta.graph, result.wns)
            if not self.beta_calibrated and len(self.pairs) > 0:
                self.calibrate_beta(placer, x, y)
        self.timing_rounds += 1
        if self.verbose:
            logger.info(
                "timing iter %d: tns=%.1f wns=%.1f pairs=%d",
                iteration,
                result.tns,
                result.wns,
                len(self.pairs),
            )
        return result

    def calibrate_beta(self, placer: GlobalPlacer, x: np.ndarray, y: np.ndarray) -> None:
        if calibrate_attraction_weight(
            placer, self.attraction, len(self.pairs), self.beta_auto_ratio, x, y
        ):
            self.beta_calibrated = True


@dataclass
class MomentumNetWeightStrategy(TimingStrategyBase):
    """DREAMPlace 4.0-style momentum net weighting (Eq. 5)."""

    momentum_decay: float = 0.75
    max_boost: float = 0.75
    max_weight: float = 6.0

    def prepare(self, ctx: FlowContext) -> None:
        with ctx.profiler.section("io"):
            self.sta = ctx.require_sta(**self._engine_kwargs())
        self.weighting = MomentumNetWeighting(
            decay=self.momentum_decay,
            max_boost=self.max_boost,
            max_weight=self.max_weight,
        )

    def update(
        self,
        placer: GlobalPlacer,
        ctx: FlowContext,
        iteration: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> STAResult:
        with ctx.profiler.section("timing_analysis"):
            result = self.sta.update_timing(x, y)
        with ctx.profiler.section("weighting"):
            new_weights = self.weighting.update(
                ctx.design, merged_result(result), placer.net_weights
            )
            placer.set_net_weights(new_weights)
        return result


@dataclass
class SmoothPinPairStrategy(TimingStrategyBase):
    """Differentiable-TDP-style smoothed, path-free pin-pair attraction."""

    temperature: float = 0.25
    criticality_threshold: float = 0.05
    attraction_ratio: float = 0.15

    def prepare(self, ctx: FlowContext) -> None:
        with ctx.profiler.section("io"):
            self.sta = ctx.require_sta(**self._engine_kwargs())
        self.pairs = PinPairSet()
        self.attraction = PinAttractionObjective(
            ctx.design, self.pairs, loss=LinearLoss(), beta=1.0
        )
        self.calibrated = False
        ctx.pin_pairs = self.pairs

    def attach(self, placer: GlobalPlacer, ctx: FlowContext) -> None:
        placer.add_objective_term(self.attraction)

    def update(
        self,
        placer: GlobalPlacer,
        ctx: FlowContext,
        iteration: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> STAResult:
        with ctx.profiler.section("timing_analysis"):
            result = self.sta.update_timing(x, y)
        with ctx.profiler.section("weighting"):
            weights = smooth_pin_pair_weights(
                ctx.design,
                self.sta.graph,
                merged_result(result),
                temperature=self.temperature,
                threshold=self.criticality_threshold,
            )
            self.pairs.set_weights(weights)
            if not self.calibrated and weights:
                self.calibrated = calibrate_attraction_weight(
                    placer, self.attraction, len(self.pairs), self.attraction_ratio, x, y
                )
        return result


@dataclass
class RecordTimingStrategy(TimingStrategyBase):
    """Pure observation: run STA and record TNS/WNS, change nothing."""

    resets_momentum = False

    def prepare(self, ctx: FlowContext) -> None:
        self.sta = ctx.require_sta(**self._engine_kwargs())

    def update(
        self,
        placer: GlobalPlacer,
        ctx: FlowContext,
        iteration: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> STAResult:
        return self.sta.update_timing(x, y)


STRATEGIES: Dict[str, Type[TimingStrategyBase]] = {
    "pin_pair": PinPairAttractionStrategy,
    "net_weight": MomentumNetWeightStrategy,
    "smooth_pair": SmoothPinPairStrategy,
    "record": RecordTimingStrategy,
}


def make_strategy(name: str, **options: object) -> TimingStrategyBase:
    """Instantiate a timing strategy by registry name."""
    try:
        cls = STRATEGIES[name]
    except KeyError as exc:
        raise KeyError(
            f"Unknown timing strategy {name!r}; available: {', '.join(sorted(STRATEGIES))}"
        ) from exc
    return cls(**options)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
@register_stage("timing_weight")
class TimingWeightStage:
    """Periodic timing feedback into the placement loop.

    ``strategy`` is a :class:`TimingStrategyBase` instance or a registry name
    (``pin_pair`` / ``net_weight`` / ``smooth_pair`` / ``record``).  The
    schedule follows the paper: feedback starts at ``start_iteration`` and
    repeats every ``interval`` placement iterations (``m``).
    """

    name = "timing_weight"

    def __init__(
        self,
        strategy: "TimingStrategyBase | str" = "pin_pair",
        *,
        start_iteration: int = 150,
        interval: int = 15,
        corners: CornersSpec = None,
        **strategy_options: object,
    ) -> None:
        if isinstance(strategy, str):
            strategy = make_strategy(strategy, **strategy_options)
        elif strategy_options:
            raise ValueError("strategy_options are only valid with a strategy name")
        self.strategy = strategy
        self.start_iteration = int(start_iteration)
        self.interval = int(interval)
        self.corners = corners

    def run(self, ctx: FlowContext) -> None:
        if ctx.placer is not None:
            raise ValueError(
                "timing_weight must come before global_place in the stage "
                "list: it hooks into the placement loop via placer hooks, "
                "so after placement has run it would be a silent no-op"
            )
        if self.corners is not None and ctx.corners is None:
            # Stage-level corners publish to the context so every later
            # timing consumer (shared engine, evaluation) sees the same set;
            # a runner-level ``corners=`` wins when both are given.
            ctx.corners = resolve_corners(self.corners)
        self.strategy.prepare(ctx)
        ctx.placer_hooks.append(self._attach)

    def _strategy_name(self) -> str:
        for name, cls in STRATEGIES.items():
            if type(self.strategy) is cls:
                return name
        return type(self.strategy).__name__

    def _attach(self, placer: GlobalPlacer, ctx: FlowContext) -> None:
        self.strategy.attach(placer, ctx)
        record = ctx.feedback_record()
        placer.feedback.bind(
            trajectory=record["trajectory"],
            seconds=record["seconds"],
            calls=record["calls"],
        )
        placer.add_feedback(
            StrategyFeedback(self.strategy, ctx, name=self._strategy_name()),
            FeedbackCadence(start=self.start_iteration, interval=self.interval),
        )


@register_stage("feedback_weight")
class FeedbackWeightStage:
    """Composable in-loop net weighting: scheduled feedbacks + one composer.

    ``slots`` is a list of ``(feedback, cadence)`` pairs (cadence ``None``
    fires every iteration).  The stage prepares every feedback against the
    flow context, builds a fresh :class:`WeightComposer` per run, and
    registers a placer hook that (a) binds the placer's scheduler to the
    run-wide composer/trajectory/runtime containers and (b) schedules the
    feedback slots.  Because the binding happens per constructed placer,
    warm-started refine placements (the routability-repair loop) continue
    the same composed weight state instead of restarting from ones.

    This stage is the composition seam: timing criticality, congestion
    penalty, and any future signal (density, IR drop, ECO deltas) ride the
    same scheduler and merge through the same composer.
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
        self.composer: Optional[WeightComposer] = None

    def run(self, ctx: FlowContext) -> None:
        if ctx.placer is not None:
            raise ValueError(
                "feedback_weight must come before global_place in the stage "
                "list: it hooks into the placement loop via placer hooks"
            )
        for feedback, _ in self.slots:
            feedback.prepare(ctx)
        # Fresh composed-weight state per flow run; shared across every
        # placer the run constructs.
        self.composer = WeightComposer(config=self.composer_config)
        record = ctx.feedback_record()

        def hook(placer: GlobalPlacer, ctx: FlowContext) -> None:
            placer.feedback.bind(
                composer=self.composer,
                trajectory=record["trajectory"],
                seconds=record["seconds"],
                calls=record["calls"],
            )
            if self.composer.initialized:
                # Warm-started refine placements resume from the composed
                # weights instead of resetting every net to 1.
                placer.set_net_weights(self.composer.weights.copy())
            for feedback, cadence in self.slots:
                placer.add_feedback(feedback, cadence)

        ctx.placer_hooks.append(hook)


@register_stage("global_place")
class GlobalPlaceStage:
    """Nonlinear global placement (wirelength + density + extra terms)."""

    name = "global_place"

    def __init__(self, config: Optional[PlacementConfig] = None) -> None:
        self.config = config if config is not None else PlacementConfig()

    def run(self, ctx: FlowContext) -> None:
        with ctx.profiler.section("io"):
            placer = GlobalPlacer(ctx.design, self.config, profiler=ctx.profiler)
            for hook in ctx.placer_hooks:
                hook(placer, ctx)
        ctx.placer = placer
        placement = placer.run()
        ctx.placement = placement
        ctx.history = placement.history
        ctx.x = placement.x
        ctx.y = placement.y
        # Per-term gradient walls (wirelength/density/extra/scatter) for the
        # --profile report; accumulated across refine placements too.
        terms = ctx.metadata.setdefault("gradient_terms", {})
        for name, seconds in placer.gradient_seconds.items():
            terms[name] = terms.get(name, 0.0) + seconds


@register_stage("legalize")
class LegalizeStage:
    """Abacus legalization with automatic greedy fallback."""

    name = "legalize"

    def __init__(self, *, fallback: bool = True) -> None:
        self.fallback = fallback

    def run(self, ctx: FlowContext) -> None:
        x, y = ctx.positions()
        with ctx.profiler.section("legalization"):
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
        with ctx.profiler.section("detailed_place"):
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
        with ctx.profiler.section("congestion"):
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
    overflow converges (see :mod:`repro.route.inflation`).  Must run after a
    global-placement stage and before legalization; the refine placements
    warm-start from the current positions with the placement stage's config
    (fewer iterations).  When the starting placement is already under the
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

        base = self.placement_config
        if base is None and ctx.placer is not None:
            base = ctx.placer.config
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
            placer = GlobalPlacer(design, refine_config, profiler=ctx.profiler)
            placer.density.set_area_scale(area_scale)
            for hook in ctx.placer_hooks:
                hook(placer, ctx)
            result = placer.run(x0, y0)
            terms = ctx.metadata.setdefault("gradient_terms", {})
            for name, seconds in placer.gradient_seconds.items():
                terms[name] = terms.get(name, 0.0) + seconds
            return result.x, result.y

        def legalize_fn(lx: np.ndarray, ly: np.ndarray):
            # Same engine/fallback policy as LegalizeStage, so the loop
            # scores exactly what the flow will later commit to.
            legal = AbacusLegalizer(design).legalize(lx, ly)
            if not legal.success:
                legal = GreedyLegalizer(design).legalize(lx, ly)
            return legal.x, legal.y

        x, y = ctx.positions()
        with ctx.profiler.section("routability"):
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
                "routability repair: peak overflow %.4f -> %.4f in %d rounds",
                outcome.initial_peak_overflow,
                outcome.final_peak_overflow,
                len(outcome.rounds) - 1,
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
        with ctx.profiler.section("io"):
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
            ctx.evaluation = Evaluator(
                ctx.design, ctx.constraints, corners=corners, congestion=congestion
            ).evaluate(x, y, congestion_result=precomputed)
            # Attach the run's feedback trajectory (per-update WNS / peak
            # overflow / weight-norm rows) so one report carries both the
            # final scores and how the feedback loop got there.
            record = ctx.metadata.get("feedback")
            if record and record.get("trajectory"):
                ctx.evaluation.feedback_trajectory = list(record["trajectory"])
