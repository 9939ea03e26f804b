"""The routability flow preset configurations and retrofit helpers.

Two presets live here:

* ``routability`` — congestion acts *after* placement via
  the cell-inflation repair loop::

      global_place -> routability_repair -> legalize -> congestion -> evaluate

* ``routability-gp`` — congestion (and timing) act *inside* the placement
  loop as composed net-weighting feedbacks, with the inflation loop demoted
  to post-place cleanup::

      feedback_weight -> global_place -> routability_repair -> legalize
          -> congestion -> evaluate

:func:`add_routability` retrofits the inflation loop onto any already-built
stage list (the CLI's ``--routability`` flag); :func:`add_congestion_
weighting` retrofits the in-loop congestion net weighting (the CLI's
``--congestion-weighting`` flag) as one more slot of the flow's
:class:`~repro.flow.stages.FeedbackWeightStage`.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

from repro.feedback.base import FeedbackCadence
from repro.feedback.composer import WeightComposerConfig
from repro.feedback.congestion import CongestionNetWeighting
from repro.placement.global_placer import ScheduleConfig
from repro.route.inflation import InflationConfig
from repro.route.rudy import CongestionConfig

__all__ = [
    "RoutabilityConfig",
    "RoutabilityGPConfig",
    "add_congestion_weighting",
    "add_routability",
]


@dataclass
class RoutabilityConfig(ScheduleConfig):
    """Configuration of the ``routability`` preset.

    The placement schedule comes from :class:`ScheduleConfig`; the
    congestion and inflation knobs are grouped in their own sub-configs so
    ``--set`` style overrides address the flat, flow-level fields.
    """

    # Inflation loop.  The flat fields exist so ``--set`` style overrides can
    # address the common knobs; ``None`` means "defer to self.inflation",
    # so an explicitly provided InflationConfig is honored in full.
    inflate: bool = True
    inflation_rounds: Optional[int] = None
    overflow_target: Optional[float] = None
    max_hpwl_growth: Optional[float] = None
    refine_iterations: int = 150
    # Congestion model.
    congestion: CongestionConfig = field(default_factory=CongestionConfig)
    inflation: InflationConfig = field(default_factory=InflationConfig)
    # MCMM analysis corners of the run, shared by timing feedback and
    # evaluation (None = single corner).
    corners: Optional[object] = None
    # Post-processing.
    legalize: bool = True

    def inflation_config(self) -> InflationConfig:
        """The sub-config with any flat-field overrides applied on top."""
        overrides = {
            key: value
            for key, value in (
                ("max_rounds", self.inflation_rounds),
                ("overflow_target", self.overflow_target),
                ("max_hpwl_growth", self.max_hpwl_growth),
            )
            if value is not None
        }
        cfg = dataclasses.replace(self.inflation, **overrides)
        cfg.validate()
        return cfg


@dataclass
class RoutabilityGPConfig(RoutabilityConfig):
    """Configuration of the ``routability-gp`` preset.

    Composes two in-loop weighting feedbacks — congestion (RUDY overflow
    under each net's bbox) and timing criticality — through one
    :class:`~repro.feedback.composer.WeightComposer`, then runs the
    ``routability`` preset's inflation loop as post-place cleanup.  Flat
    fields keep every knob addressable by the CLI's ``--set key=value``.
    """

    # Congestion net weighting: cadence (warmup / every-K / cooldown) and
    # proposal shape.
    congestion_start: int = 100
    congestion_interval: int = 10
    congestion_end: Optional[int] = None
    congestion_max_boost: float = 0.6
    congestion_saturation: float = 0.4
    # Timing criticality weighting (composed with congestion).  Defaults are
    # deliberately gentler than a pure timing-driven flow: composed with
    # congestion, both signals spend the same HPWL budget, and the
    # acceptance experiment (tests/test_feedback.py) gates the composed
    # preset against the inflation-only flow at <= 2% legalized HPWL cost.
    timing: bool = True
    timing_start: int = 150
    timing_interval: int = 15
    timing_max_boost: float = 0.3
    timing_criticality_threshold: float = 0.25
    # Shared composer dynamics.
    momentum_decay: float = 0.75
    max_weight: float = 6.0
    max_target_boost: Optional[float] = 4.0

    def composer_config(self) -> WeightComposerConfig:
        cfg = WeightComposerConfig(
            momentum_decay=self.momentum_decay,
            max_weight=self.max_weight,
            max_target_boost=self.max_target_boost,
        )
        cfg.validate()
        return cfg

    def feedback_slots(self) -> List[tuple]:
        """The ``(feedback, cadence)`` pairs the preset schedules."""
        from repro.feedback.timing import TimingCriticalityWeighting

        slots: List[tuple] = [
            (
                CongestionNetWeighting(
                    self.congestion,
                    max_boost=self.congestion_max_boost,
                    saturation_overflow=self.congestion_saturation,
                ),
                FeedbackCadence(
                    start=self.congestion_start,
                    interval=self.congestion_interval,
                    end=self.congestion_end,
                ),
            )
        ]
        if self.timing:
            slots.append(
                (
                    TimingCriticalityWeighting(
                        max_boost=self.timing_max_boost,
                        criticality_threshold=self.timing_criticality_threshold,
                    ),
                    FeedbackCadence(
                        start=self.timing_start, interval=self.timing_interval
                    ),
                )
            )
        return slots


def add_congestion_weighting(
    stages: List[object],
    *,
    congestion: Optional[CongestionConfig] = None,
    max_boost: float = 1.0,
    saturation_overflow: float = 0.5,
    start: int = 100,
    interval: int = 10,
    composer: Optional[WeightComposerConfig] = None,
) -> List[object]:
    """Retrofit in-loop congestion net weighting onto an existing stage list.

    Returns a new stage list in which a
    :class:`~repro.feedback.congestion.CongestionNetWeighting` slot is
    scheduled by the flow's feedback stage: appended to a copy of an
    existing :class:`~repro.flow.stages.FeedbackWeightStage`, or in a new one
    inserted before the first global-placement stage (raises if the flow has
    none).  The original list and its stages are not modified.
    """
    from repro.feedback.timing import MomentumNetWeighting
    from repro.flow.stages import FeedbackWeightStage, GlobalPlaceStage

    place_positions = [
        i for i, stage in enumerate(stages) if isinstance(stage, GlobalPlaceStage)
    ]
    if not place_positions:
        raise ValueError(
            "--congestion-weighting requires a flow with a global_place "
            "stage (the weighting feedback runs inside the placement loop)"
        )
    slot = (
        CongestionNetWeighting(
            congestion, max_boost=max_boost, saturation_overflow=saturation_overflow
        ),
        FeedbackCadence(start=start, interval=interval),
    )
    out: List[object] = list(stages)
    for index, stage in enumerate(out):
        if not isinstance(stage, FeedbackWeightStage):
            continue
        # Momentum net weighting *applies* net weights itself; it and the
        # composer would silently clobber each other's weight vector, so
        # refuse instead of corrupting both signals.  The pin-pair feedbacks
        # attach objective terms, not net weights, so they compose fine.
        if any(isinstance(feedback, MomentumNetWeighting) for feedback, _ in stage.slots):
            raise ValueError(
                "--congestion-weighting cannot compose with the self-applying "
                "momentum net-weighting feedback (both own the net-weight "
                "vector and would overwrite each other); use the "
                "routability-gp preset, which composes timing criticality "
                "and congestion through one WeightComposer"
            )
        merged = copy.copy(stage)
        merged.slots = [*stage.slots, slot]
        if composer is not None:
            merged.composer_config = composer
        out[index] = merged
        return out
    out.insert(place_positions[0], FeedbackWeightStage([slot], composer=composer))
    return out


def add_routability(
    stages: List[object],
    *,
    congestion: Optional[CongestionConfig] = None,
    inflation: Optional[InflationConfig] = None,
    refine_iterations: int = 150,
) -> List[object]:
    """Retrofit congestion awareness onto an existing stage list.

    Returns a new stage list: a routability-repair stage is inserted after
    the last global-placement stage (raises if the flow has none), a
    congestion-report stage is appended after legalization (or after repair
    when the flow does not legalize), and any evaluation stage is switched
    to congestion reporting.
    """
    from repro.flow.stages import (
        CongestionStage,
        EvaluateStage,
        GlobalPlaceStage,
        LegalizeStage,
        RoutabilityRepairStage,
    )

    place_positions = [
        i for i, stage in enumerate(stages) if isinstance(stage, GlobalPlaceStage)
    ]
    if not place_positions:
        raise ValueError(
            "--routability requires a flow with a global_place stage "
            "(the inflation loop re-runs global placement)"
        )
    repair = RoutabilityRepairStage(
        congestion=congestion,
        inflation=inflation,
        refine_iterations=refine_iterations,
    )
    out: List[object] = list(stages)
    out.insert(place_positions[-1] + 1, repair)

    legalize_positions = [
        i for i, stage in enumerate(out) if isinstance(stage, LegalizeStage)
    ]
    report_at = (
        legalize_positions[-1] + 1
        if legalize_positions
        else out.index(repair) + 1
    )
    out.insert(report_at, CongestionStage(config=congestion))
    # Switch evaluation to congestion reporting on *copies*: the caller's
    # original stage list must keep scoring exactly as before.
    for index, stage in enumerate(out):
        if isinstance(stage, EvaluateStage):
            scored = copy.copy(stage)
            scored.congestion = congestion if congestion is not None else True
            out[index] = scored
    return out
