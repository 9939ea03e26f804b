"""Unified placement-feedback architecture.

Everything that periodically analyzes an in-progress placement and folds the
result back into the optimization — timing criticality, routing congestion,
and whatever comes next (density targets, IR drop, ECO deltas) — goes
through one composition seam:

* :class:`~repro.feedback.base.PlacementFeedback` — the component protocol
  (``prepare`` / ``attach`` / ``update`` / ``finalize``);
* :class:`~repro.feedback.base.FeedbackCadence` — warmup / every-K /
  cooldown firing windows;
* :class:`~repro.feedback.scheduler.FeedbackScheduler` — one per flow run,
  adopted by every global placer of the run; dispatches slots on cadence,
  applies composed weights, and keeps the feedback trajectory;
* :class:`~repro.feedback.composer.WeightComposer` — merges several per-net
  weight proposals (timing criticality x congestion penalty) with shared
  momentum, clamping, and log-proportional normalization;
* :class:`~repro.feedback.timing.TimingCriticalityWeighting` and
  :class:`~repro.feedback.congestion.CongestionNetWeighting` — the two
  shipped composable signals;
* :mod:`repro.feedback.timing` — also the self-applying timing feedbacks
  of the Table II methods (pin pairs, momentum net weighting, smoothed pin
  pairs, recording).

Flow integration lives in :class:`repro.flow.stages.FeedbackWeightStage`,
which every feedback-driven preset schedules its feedbacks through.
"""

from repro.feedback.base import FeedbackCadence, FeedbackUpdate, PlacementFeedback
from repro.feedback.composer import WeightComposer, WeightComposerConfig
from repro.feedback.congestion import CongestionNetWeighting
from repro.feedback.scheduler import FeedbackScheduler, FeedbackSlot
from repro.feedback.timing import (
    MomentumNetWeighting,
    PinPairAttraction,
    SmoothPinPairAttraction,
    TimingCriticalityWeighting,
    TimingRecorder,
)

__all__ = [
    "CongestionNetWeighting",
    "FeedbackCadence",
    "FeedbackScheduler",
    "FeedbackSlot",
    "FeedbackUpdate",
    "MomentumNetWeighting",
    "PinPairAttraction",
    "PlacementFeedback",
    "SmoothPinPairAttraction",
    "TimingCriticalityWeighting",
    "TimingRecorder",
    "WeightComposer",
    "WeightComposerConfig",
]
