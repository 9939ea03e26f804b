"""The placement-feedback protocol: one seam for every in-loop signal.

Global placement is a fixed-point iteration; everything "timing-driven",
"routability-driven", or "X-driven" about a flow is a *feedback* folded into
that iteration: periodically analyze the current positions, derive per-net
weight adjustments (or extra objective terms), and let the placer keep
going.  Timing-driven schemes and congestion weighting are all
feedbacks, so they compose on one scheduler.

A :class:`PlacementFeedback` is the common shape:

* :meth:`~PlacementFeedback.prepare` — build analysis state (STA engines,
  congestion estimators) before the placer exists; called once per flow run
  with the :class:`~repro.flow.context.FlowContext`.
* :meth:`~PlacementFeedback.attach` — hook objective terms onto a freshly
  constructed placer (pin-pair attraction does; net-weighting feedbacks
  don't need to).
* :meth:`~PlacementFeedback.update` — the per-firing body: analyze the
  current ``(x, y)`` and return a :class:`FeedbackUpdate` carrying an
  optional per-net *weight proposal* (a multiplicative boost, ``>= 1``) plus
  scalar metrics for the trajectory.  Feedbacks that mutate the placer
  directly (self-applying timing feedbacks, raw callbacks) return
  proposal-free updates.
* :meth:`~PlacementFeedback.finalize` — publish summary state once the
  placement loop ends.

When a feedback fires is not its business: cadence (warmup, every-K,
cooldown) belongs to :class:`FeedbackCadence` and the
:class:`~repro.feedback.scheduler.FeedbackScheduler`, and merging several
proposals into one weight vector belongs to the
:class:`~repro.feedback.composer.WeightComposer` — so a feedback component
only ever answers "what does my signal say about each net *right now*".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.placement.global_placer import GlobalPlacer

__all__ = ["FeedbackCadence", "FeedbackUpdate", "PlacementFeedback"]


@dataclass(frozen=True)
class FeedbackCadence:
    """When a feedback slot fires within the placement iteration stream.

    A slot fires at iteration ``i`` when ``i >= start`` (warmup over),
    ``(i - start) % interval == 0`` (every K iterations), and ``i <= end``
    when a cooldown boundary is set.  The default fires every iteration,
    which is the raw-callback compatibility cadence.
    """

    start: int = 0
    interval: int = 1
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("cadence start must be non-negative")
        if self.interval < 1:
            raise ValueError("cadence interval must be at least 1")
        if self.end is not None and self.end < self.start:
            raise ValueError("cadence end must not precede start")

    def fires(self, iteration: int) -> bool:
        if iteration < self.start:
            return False
        if self.end is not None and iteration > self.end:
            return False
        return (iteration - self.start) % self.interval == 0


@dataclass
class FeedbackUpdate:
    """What one feedback firing produced.

    ``proposal`` is a per-net multiplicative weight boost (``>= 1``; ``1``
    means "no opinion on this net") destined for the
    :class:`~repro.feedback.composer.WeightComposer`, or ``None`` for
    observation-only / self-applying feedbacks.  ``metrics`` are scalar
    diagnostics recorded into the feedback trajectory (``wns``,
    ``peak_overflow``, ...).
    """

    proposal: Optional[np.ndarray] = None
    metrics: Dict[str, float] = field(default_factory=dict)


class PlacementFeedback:
    """Base class (and de-facto protocol) of placement feedback components.

    Subclasses override :meth:`update`; the lifecycle hooks default to
    no-ops so simple feedbacks stay small.  ``resets_momentum`` tells the
    scheduler whether an applied weight change from this feedback
    invalidates the optimizer's Nesterov momentum.
    """

    name: str = "feedback"
    resets_momentum: bool = True

    def prepare(self, ctx: Any) -> None:  # pragma: no cover - default no-op
        """Build analysis state before the placer exists."""

    def attach(self, placer: "GlobalPlacer") -> None:  # pragma: no cover
        """Hook objective terms onto a freshly constructed placer."""

    def update(
        self,
        placer: "GlobalPlacer",
        iteration: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> Optional[FeedbackUpdate]:
        raise NotImplementedError

    def finalize(self, placer: "GlobalPlacer") -> None:  # pragma: no cover
        """Publish summary state once the placement loop ends."""

    def release(self) -> None:  # pragma: no cover - default no-op
        """Drop references to the finished flow run (its context)."""
