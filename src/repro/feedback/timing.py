"""Timing signals as placement feedbacks.

Every timing-driven scheme in the repository is one feedback on the shared
STA engine.  Each firing runs STA on the current positions, folds the result
back into the placement, records TNS/WNS for the Fig. 5 trajectories, and
reports them as trajectory metrics:

* :class:`PinPairAttraction` (``pin_pair``) — the paper's flow: critical
  path extraction with ``report_timing_endpoint(n, k)``, the Eq. 9 pin-pair
  weight update, and the attraction term of Eq. 6/10;
* :class:`MomentumNetWeighting` (``net_weight``) — DREAMPlace 4.0-style
  momentum net weighting, compounding on the current weights (Eq. 5);
* :class:`SmoothPinPairAttraction` (``smooth_pair``) — Differentiable-TDP
  style smoothed, path-free attraction over every net arc;
* :class:`TimingRecorder` (``record``) — observation only;
* :class:`TimingCriticalityWeighting` (``timing``) — the *composable*
  signal: it proposes ``1 + max_boost * criticality`` per net and leaves
  momentum, clamping and application to the shared
  :class:`~repro.feedback.composer.WeightComposer`.

The first four apply their own update and reset the optimizer momentum
themselves (the recorder changes nothing and resets nothing); they return
proposal-free updates, so the composer never touches their state.
``net_weight`` is deliberately *not* expressed as criticality + composer:
its compounding recurrence, clamp and lack of a target cap differ from the
composer's, and the DREAMPlace 4.0 baseline is defined by them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.losses import LinearLoss, make_loss
from repro.core.path_extraction import CriticalPathExtractor, ExtractionConfig
from repro.core.pin_attraction import PinAttractionObjective, PinPairSet
from repro.feedback.base import FeedbackUpdate, PlacementFeedback
from repro.netlist.design import Design
from repro.obs import span
from repro.timing.graph import ArcKind, TimingGraph
from repro.timing.mcmm import MultiCornerResult
from repro.timing.report import PathBatch
from repro.timing.sta import MultiCornerSTA, STAResult
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.placement.global_placer import GlobalPlacer

__all__ = [
    "MomentumNetWeighting",
    "PinPairAttraction",
    "SmoothPinPairAttraction",
    "TimingCriticalityWeighting",
    "TimingRecorder",
    "calibrate_attraction_weight",
    "net_criticality",
    "net_worst_slack",
    "pin_criticality",
    "smooth_pin_pair_weights",
]

logger = get_logger("feedback.timing")


# ----------------------------------------------------------------------
# Criticality helpers
# ----------------------------------------------------------------------
def merged_result(result: "STAResult | MultiCornerResult") -> STAResult:
    """Single-corner view: multi-corner results fold to their pessimistic
    merge (per-pin worst slack over corners)."""
    return result.merged if isinstance(result, MultiCornerResult) else result


def net_worst_slack(design: Design, result: STAResult) -> np.ndarray:
    """Worst (most negative) pin slack of each net.

    Pins on unconstrained cones carry +inf-like slacks; nets with no
    constrained pin keep a large positive value and therefore zero
    criticality.
    """
    arrays = design.arrays
    num_nets = arrays.num_nets
    worst = np.full(num_nets, np.inf, dtype=np.float64)
    csr_net = np.repeat(np.arange(num_nets), np.diff(arrays.net_pin_offsets))
    pin_slack = result.slack[arrays.net_pin_index]
    np.minimum.at(worst, csr_net, pin_slack)
    return worst


def net_criticality(design: Design, result: STAResult) -> np.ndarray:
    """Eq. 5 criticality per net: its worst pin slack over the WNS.

    1 at the WNS net, 0 for nets with non-negative or unconstrained slack.
    """
    worst = net_worst_slack(design, result)
    wns = min(result.wns, -1e-12)
    criticality = np.clip(worst / wns, 0.0, 1.0)
    criticality[~np.isfinite(worst)] = 0.0
    return criticality


def pin_criticality(result: STAResult, *, temperature: float = 0.25) -> np.ndarray:
    """Smooth criticality in [0, 1] per pin from its slack.

    ``sigmoid(-slack / (temperature * |WNS|))``: pins at the WNS level get a
    value near 0.73+, pins with zero slack 0.5, and comfortably passing pins
    approach 0.  The temperature controls how sharply criticality focuses on
    the worst pins.
    """
    scale = max(abs(result.wns), 1e-9) * temperature
    return 1.0 / (1.0 + np.exp(np.clip(result.slack / scale, -60.0, 60.0)))


def smooth_pin_pair_weights(
    design: Design,
    graph: TimingGraph,
    result: STAResult,
    *,
    temperature: float = 0.25,
    threshold: float = 0.05,
) -> Dict[Tuple[int, int], float]:
    """Pin-pair attraction weights over all net arcs from smoothed slacks.

    Returns a mapping ``(driver_pin, sink_pin) -> weight`` for every net arc
    whose sink criticality exceeds ``threshold``: the smoothed, path-free
    counterpart of the paper's extracted-path pin pairs.
    """
    criticality = pin_criticality(result, temperature=temperature)
    net_arc_mask = graph.arc_kind == int(ArcKind.NET)
    crit = criticality[graph.arc_to]
    selected = np.nonzero(net_arc_mask & (crit > threshold))[0]
    return {
        (int(graph.arc_from[a]), int(graph.arc_to[a])): float(crit[a])
        for a in selected
    }


def calibrate_attraction_weight(
    placer: "GlobalPlacer",
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
    far.  Both pin-pair feedbacks calibrate through this one helper so their
    comparison is about *which* pins are attracted, not about force
    magnitudes.  Returns True once calibrated.
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


# ----------------------------------------------------------------------
# Feedbacks
# ----------------------------------------------------------------------
class _TimingFeedback(PlacementFeedback):
    """STA on the flow's shared engine, then :meth:`respond` to the result.

    A ``None`` response means the feedback applied its own change; it then
    resets the optimizer momentum itself when ``resets_momentum`` is set,
    because the objective just changed under the accumulated momentum.
    """

    def __init__(self) -> None:
        self.design: Optional[Design] = None
        self.sta = None

    def prepare(self, ctx: Any) -> None:
        # Hold what the firings need, never the context itself: the context
        # owns this feedback (through its scheduler), and a reference back
        # would keep every finished run alive until a cyclic collection.
        self.design = ctx.design
        with span("profile.io"):
            self.sta = ctx.require_sta()

    def analyze(self, x: np.ndarray, y: np.ndarray) -> "STAResult | MultiCornerResult":
        return self.sta.update_timing(x, y)

    def respond(
        self,
        placer: "GlobalPlacer",
        result: "STAResult | MultiCornerResult",
        x: np.ndarray,
        y: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Apply (or propose) this signal's change; return a proposal or None."""
        return None

    def update(
        self,
        placer: "GlobalPlacer",
        iteration: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> Optional[FeedbackUpdate]:
        if self.sta is None:
            raise RuntimeError(
                f"{type(self).__name__}.update before prepare(): the feedback "
                "needs the flow's shared STA engine"
            )
        with span("profile.timing_analysis"):
            result = self.analyze(x, y)
        with span("profile.weighting"):
            proposal = self.respond(placer, result, x, y)
        if proposal is None and self.resets_momentum:
            placer.reset_optimizer_momentum()
        placer.history.record_extra("tns", iteration, result.tns)
        placer.history.record_extra("wns", iteration, result.wns)
        return FeedbackUpdate(
            proposal=proposal,
            metrics={"tns": float(result.tns), "wns": float(result.wns)},
        )


class PinPairAttraction(_TimingFeedback):
    """The paper's feedback: critical path extraction feeding pin pairs.

    Every firing runs STA, extracts critical paths with
    ``report_timing_endpoint(n, k)``, applies the Eq. 9 pin-pair weight
    update, and (once, in ``beta_mode="auto"``) calibrates the attraction
    strength against the wirelength gradient.  ``beta_mode="literal"``
    keeps ``beta`` as given.
    """

    name = "pin_pair"

    def __init__(
        self,
        *,
        extraction: Optional[ExtractionConfig] = None,
        w0: float = 10.0,
        w1: float = 0.2,
        loss: str = "quadratic",
        beta: float = 2.5e-5,
        beta_mode: str = "auto",
        beta_auto_ratio: float = 4.0,
        verbose: bool = False,
    ) -> None:
        if beta_mode not in ("auto", "literal"):
            raise ValueError(f"beta_mode must be 'auto' or 'literal', got {beta_mode!r}")
        super().__init__()
        self.extraction = extraction if extraction is not None else ExtractionConfig()
        self.w0 = w0
        self.w1 = w1
        self.loss = loss
        self.beta = beta
        self.beta_mode = beta_mode
        self.beta_auto_ratio = beta_auto_ratio
        self.verbose = verbose

    def prepare(self, ctx: Any) -> None:
        super().prepare(ctx)
        with span("profile.io"):
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
            self.pairs = PinPairSet(w0=self.w0, w1=self.w1)
            self.attraction = PinAttractionObjective(
                ctx.design, self.pairs, loss=make_loss(self.loss), beta=self.beta
            )
        ctx.pin_pairs = self.pairs
        self.extraction_stats = ctx.extraction_stats
        self.beta_calibrated = self.beta_mode != "auto"

    def attach(self, placer: "GlobalPlacer") -> None:
        placer.add_objective_term(self.attraction)

    def analyze(self, x: np.ndarray, y: np.ndarray) -> "STAResult | MultiCornerResult":
        result = super().analyze(x, y)
        self._corner_paths: List[PathBatch] = []
        for index, extractor in enumerate(self.extractors):
            corner_result = (
                result.corner_result(index) if isinstance(result, MultiCornerResult) else result
            )
            paths, stats = extractor.extract(corner_result)
            self._corner_paths.append(paths)
            self.extraction_stats.append(stats)
        return result

    def respond(self, placer, result, x, y) -> None:
        # MCMM: one Eq. 9 update over every corner's paths, in corner order.
        paths = PathBatch.concatenate(self._corner_paths, self.sta.graph)
        self.pairs.update_from_paths(paths, self.sta.graph, result.wns)
        if not self.beta_calibrated and len(self.pairs) > 0:
            self.beta_calibrated = calibrate_attraction_weight(
                placer, self.attraction, len(self.pairs), self.beta_auto_ratio, x, y
            )
        return None

    def update(self, placer, iteration, x, y) -> Optional[FeedbackUpdate]:
        update = super().update(placer, iteration, x, y)
        if self.verbose:
            logger.info(
                "timing iter %d: tns=%.1f wns=%.1f pairs=%d",
                iteration,
                update.metrics["tns"],
                update.metrics["wns"],
                len(self.pairs),
            )
        return update


class MomentumNetWeighting(_TimingFeedback):
    """DREAMPlace 4.0-style momentum net weighting (Eq. 5), self-applied.

    Each firing pushes every net weight toward ``w * (1 + max_boost *
    criticality)`` with momentum ``momentum_decay``:

        w_e  <-  decay * w_e + (1 - decay) * w_e * (1 + max_boost * crit_e)

    clamped from above at ``max_weight``.  Non-critical nets keep their
    weight, so repeated firings compound on persistently critical nets.
    """

    name = "net_weight"

    def __init__(
        self,
        *,
        momentum_decay: float = 0.75,
        max_boost: float = 0.75,
        max_weight: float = 6.0,
    ) -> None:
        if not 0.0 <= momentum_decay <= 1.0:
            raise ValueError(f"momentum_decay must be within [0, 1], got {momentum_decay}")
        super().__init__()
        self.momentum_decay = momentum_decay
        self.max_boost = max_boost
        self.max_weight = max_weight

    def next_weights(self, design: Design, result: STAResult, weights: np.ndarray) -> np.ndarray:
        """One Eq. 5 step from ``weights`` (the input array is not modified)."""
        target = weights * (1.0 + self.max_boost * net_criticality(design, result))
        updated = self.momentum_decay * weights + (1.0 - self.momentum_decay) * target
        return np.minimum(updated, self.max_weight)

    def respond(self, placer, result, x, y) -> None:
        placer.set_net_weights(
            self.next_weights(self.design, merged_result(result), placer.net_weights)
        )
        return None


class SmoothPinPairAttraction(_TimingFeedback):
    """Differentiable-TDP-style smoothed, path-free pin-pair attraction.

    Every firing rebuilds the pin-pair set over all net arcs, weighted by a
    sigmoid criticality of the sink pin's slack (linear distance loss), and
    calibrates the attraction strength once, on the first non-empty set.
    """

    name = "smooth_pair"

    def __init__(
        self,
        *,
        temperature: float = 0.25,
        criticality_threshold: float = 0.05,
        attraction_ratio: float = 0.15,
    ) -> None:
        if temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        super().__init__()
        self.temperature = temperature
        self.criticality_threshold = criticality_threshold
        self.attraction_ratio = attraction_ratio

    def prepare(self, ctx: Any) -> None:
        super().prepare(ctx)
        self.pairs = PinPairSet()
        self.attraction = PinAttractionObjective(ctx.design, self.pairs, loss=LinearLoss(), beta=1.0)
        self.calibrated = False
        ctx.pin_pairs = self.pairs

    def attach(self, placer: "GlobalPlacer") -> None:
        placer.add_objective_term(self.attraction)

    def respond(self, placer, result, x, y) -> None:
        weights = smooth_pin_pair_weights(
            self.design,
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
        return None


class TimingRecorder(_TimingFeedback):
    """Pure observation: run STA and record TNS/WNS, change nothing."""

    name = "record"
    resets_momentum = False


class TimingCriticalityWeighting(_TimingFeedback):
    """Composable timing-criticality net-weight proposal (momentum-free).

    Proposes ``1 + max_boost * criticality`` per net on the pessimistic
    multi-corner merge (nets with non-negative or unconstrained slack
    propose 1).  The shared composer applies momentum and clamping, so this
    signal can merge with congestion weighting instead of owning the weight
    vector.
    """

    name = "timing"

    def __init__(
        self,
        *,
        max_boost: float = 0.75,
        criticality_threshold: float = 0.0,
    ) -> None:
        if max_boost < 0.0:
            raise ValueError("max_boost must be non-negative")
        if not 0.0 <= criticality_threshold < 1.0:
            raise ValueError("criticality_threshold must be within [0, 1)")
        super().__init__()
        self.max_boost = float(max_boost)
        # Nets below the threshold propose exactly 1: composing timing with
        # congestion is a fight over the same HPWL budget, and boosting the
        # long tail of mildly-critical nets spends that budget without
        # moving WNS.  0 keeps the full Eq. 5 criticality profile.
        self.criticality_threshold = float(criticality_threshold)

    def respond(self, placer, result, x, y) -> np.ndarray:
        criticality = net_criticality(self.design, merged_result(result))
        if self.criticality_threshold > 0.0:
            criticality[criticality < self.criticality_threshold] = 0.0
        return 1.0 + self.max_boost * criticality
