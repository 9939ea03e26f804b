"""Cadenced dispatch of placement feedbacks inside the placer loop.

A flow run owns one :class:`FeedbackScheduler`: the ``feedback_weight``
stage builds it and every :class:`~repro.placement.global_placer.GlobalPlacer`
the run constructs (the main placement and any warm-started refine
placements) adopts it through :meth:`FeedbackScheduler.start` and calls
:meth:`~FeedbackScheduler.dispatch` once per iteration.  A placer built
without one gets a fresh, empty scheduler.  The scheduler owns everything the
feedback components must not:

* **cadence** — each slot pairs a feedback with a
  :class:`~repro.feedback.base.FeedbackCadence` (warmup / every-K /
  cooldown) and only fires when the cadence says so;
* **composition** — weight proposals from fired slots are merged by the
  run's :class:`~repro.feedback.composer.WeightComposer` and applied via
  ``placer.set_net_weights`` in one place (with one momentum reset), instead
  of every feedback clobbering the weight vector independently.  Proposals
  are cached per slot, so a slot on a slower cadence keeps contributing its
  last opinion while faster slots fire — neither signal starves between its
  own firings;
* **accounting** — the per-update trajectory rows (iteration, WNS, peak
  overflow, weight norm) that ``repro run --profile`` and the evaluation
  report surface.  Every firing runs inside a ``feedback.<name>`` span, so
  per-feedback seconds and calls are the run tracer's span totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.feedback.base import FeedbackCadence, PlacementFeedback
from repro.feedback.composer import WeightComposer
from repro.obs import span, traced

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.placement.global_placer import GlobalPlacer

__all__ = ["FeedbackSlot", "FeedbackScheduler"]


@dataclass
class FeedbackSlot:
    """One scheduled feedback: the component plus when it fires."""

    feedback: PlacementFeedback
    cadence: FeedbackCadence


class FeedbackScheduler:
    """Dispatch scheduled feedback slots for one flow run (see module doc)."""

    def __init__(self, composer: Optional[WeightComposer] = None) -> None:
        self.slots: List[FeedbackSlot] = []
        self.composer = composer
        self.trajectory: List[Dict[str, Any]] = []
        self._last_proposals: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add(
        self,
        feedback: PlacementFeedback,
        cadence: Optional[FeedbackCadence] = None,
    ) -> FeedbackSlot:
        slot = FeedbackSlot(
            feedback=feedback,
            cadence=cadence if cadence is not None else FeedbackCadence(),
        )
        self.slots.append(slot)
        return slot

    def start(self, placer: "GlobalPlacer") -> None:
        """Adopt a freshly constructed placer.

        A warm-started refine placement resumes from the composed weights
        instead of resetting every net to 1, so one run keeps one weight
        state and one trajectory; the cached proposals of the previous
        placer are forgotten.  Every slot then attaches its objective terms.
        """
        self._last_proposals.clear()
        if self.composer is not None and self.composer.initialized:
            placer.set_net_weights(self.composer.weights.copy())
        for slot in self.slots:
            slot.feedback.attach(placer)

    # ------------------------------------------------------------------
    # Per-iteration dispatch
    # ------------------------------------------------------------------
    @traced("feedback.dispatch")
    def dispatch(
        self,
        placer: "GlobalPlacer",
        iteration: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> None:
        proposals: Dict[str, np.ndarray] = {}
        metrics: Dict[str, float] = {}
        fired: List[str] = []
        reset_momentum = False
        for slot in self.slots:
            if not slot.cadence.fires(iteration):
                # A slot past its cooldown boundary is retired: drop its
                # cached proposal so the composer's momentum glides the
                # signal back out instead of freezing the last boost in.
                if (
                    slot.cadence.end is not None
                    and iteration > slot.cadence.end
                ):
                    self._last_proposals.pop(slot.feedback.name, None)
                continue
            feedback = slot.feedback
            with span(f"feedback.{feedback.name}", i=iteration):
                update = feedback.update(placer, iteration, x, y)
            if update is None:
                continue
            fired.append(feedback.name)
            metrics.update(update.metrics)
            if update.proposal is not None:
                proposals[feedback.name] = update.proposal
                self._last_proposals[feedback.name] = update.proposal
                if feedback.resets_momentum:
                    reset_momentum = True
        if proposals:
            if self.composer is None:
                self.composer = WeightComposer()
            # Compose the fired proposals together with the cached latest
            # proposal of every slower slot, so interleaved cadences still
            # produce jointly-weighted nets.
            weights = self.composer.compose(dict(self._last_proposals))
            placer.set_net_weights(weights)
            if reset_momentum:
                placer.reset_optimizer_momentum()
            metrics.update(self.composer.summary())
        if fired:
            row: Dict[str, Any] = {"iteration": int(iteration), "fired": fired}
            row.update(metrics)
            self.trajectory.append(row)

    def finalize(self, placer: "GlobalPlacer") -> None:
        for slot in self.slots:
            slot.feedback.finalize(placer)
