"""Named flow presets: the paper's flow and its baselines as stage lists.

A preset couples a default config object with a function that expands the
config into stages.  Four presets mirror the Table II methods, plus one for
the routability workload:

* ``efficient_tdp``       — the paper's flow (path extraction + pin pairs);
* ``dreamplace``          — wirelength/density only;
* ``dreamplace4``         — momentum net weighting (DREAMPlace 4.0 style);
* ``differentiable_tdp``  — smoothed path-free pin attraction;
* ``routability``         — congestion-driven placement: RUDY congestion
  maps feeding a cell-inflation repair loop;
* ``routability-gp``      — congestion + timing net weighting composed
  *inside* the global-place loop (feedback scheduler + weight composer),
  with the inflation loop as post-place cleanup.

``build_flow("efficient_tdp", max_iterations=300, seed=7)`` returns a ready
:class:`FlowRunner`; unknown override keys raise immediately, which is what
makes the CLI's ``--set key=value`` safe.  A preset config's ``corners``
become the runner's corners, which timing feedback and evaluation share.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.path_extraction import ExtractionConfig
from repro.feedback.base import FeedbackCadence, PlacementFeedback
from repro.feedback.timing import (
    MomentumNetWeighting,
    PinPairAttraction,
    SmoothPinPairAttraction,
    TimingRecorder,
)
from repro.flow.runner import FlowRunner
from repro.flow.stage import FlowStage
from repro.flow.stages import (
    CongestionStage,
    EvaluateStage,
    FeedbackWeightStage,
    GlobalPlaceStage,
    LegalizeStage,
    RoutabilityRepairStage,
)
from repro.placement.global_placer import PlacementConfig, ScheduleConfig
from repro.route.flow import RoutabilityConfig, RoutabilityGPConfig


@dataclass(frozen=True)
class FlowPreset:
    """A named, configurable stage composition."""

    name: str
    description: str
    config_factory: Callable[[], Any]
    stage_factory: Callable[[Any], List[FlowStage]]

    def default_config(self) -> Any:
        return self.config_factory()


def get_preset(name: str) -> FlowPreset:
    try:
        return _PRESETS[name]
    except KeyError as exc:
        raise KeyError(
            f"Unknown flow preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        ) from exc


def preset_names() -> List[str]:
    return sorted(_PRESETS)


def make_config(preset_name: str, config: Any = None, **overrides: Any) -> Any:
    """Build (or copy) a preset config and apply field overrides."""
    preset = get_preset(preset_name)
    cfg = preset.default_config() if config is None else copy.deepcopy(config)
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise AttributeError(
                f"{type(cfg).__name__} has no field {key!r} (preset {preset_name!r})"
            )
        setattr(cfg, key, value)
    return cfg


def build_stages(preset_name: str, config: Any = None, **overrides: Any) -> List[FlowStage]:
    """Expand a preset into its stage list."""
    preset = get_preset(preset_name)
    cfg = make_config(preset_name, config, **overrides)
    return preset.stage_factory(cfg)


def build_flow(preset_name: str, config: Any = None, **overrides: Any) -> FlowRunner:
    """Build a ready-to-run :class:`FlowRunner` from a preset."""
    preset = get_preset(preset_name)
    cfg = make_config(preset_name, config, **overrides)
    return FlowRunner(preset.stage_factory(cfg), name=preset_name, corners=cfg.corners)


# ----------------------------------------------------------------------
# Preset configs
# ----------------------------------------------------------------------
@dataclass
class TimingScheduleConfig(ScheduleConfig):
    """The schedule of the timing-driven presets.

    Timing feedback starts at ``timing_start_iteration`` and repeats every
    ``timing_update_interval`` placement iterations (``m``); placement runs
    at least ``min_timing_iterations`` past the start.
    """

    timing_start_iteration: int = 150
    min_timing_iterations: int = 120
    timing_update_interval: int = 15
    # MCMM analysis corners of the run: None (single-corner), a preset
    # string such as "fast,typ,slow", or a sequence of Corner objects.
    # Timing feedback then optimizes against the merged (worst-over-corners)
    # slack.
    corners: Optional[object] = None

    def placement_config(self) -> PlacementConfig:
        config = super().placement_config()
        config.min_iterations = self.timing_start_iteration + self.min_timing_iterations
        return config


@dataclass
class EfficientTDPConfig(TimingScheduleConfig):
    """The paper's flow (Fig. 1): path extraction feeding pin pairs.

    Hyper-parameter defaults follow Sec. IV: ``beta = 2.5e-5`` (with an
    automatic rescaling because the absolute value is engine-specific),
    ``m = 15``, ``w0 = 10``, ``w1 = 0.2``.
    """

    beta: float = 2.5e-5
    beta_mode: str = "auto"        # "auto": rescale beta against the WL gradient
    beta_auto_ratio: float = 4.0   # per-pair attraction force vs per-cell WL force
    w0: float = 10.0
    w1: float = 0.2
    loss: str = "quadratic"
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    legalize: bool = True


@dataclass
class DreamPlace4Config(TimingScheduleConfig):
    """DREAMPlace 4.0-style momentum net weighting (Eq. 5).

    Also the paper's "w/o Path Extraction" ablation arm.  The weighting
    aggressiveness is calibrated so the baseline lands in the operating
    envelope DREAMPlace 4.0 itself reports (~6% HPWL overhead on the
    contest designs); larger boosts trade HPWL for TNS aggressively on the
    small synthetic suite.
    """

    momentum_decay: float = 0.75
    max_boost: float = 0.75
    max_weight: float = 6.0


@dataclass
class DifferentiableTDPConfig(TimingScheduleConfig):
    """Differentiable-TDP-style smoothed, path-free pin attraction.

    In the spirit of Guo & Lin (DAC'22): every net arc participates (no
    explicit extraction) with a smoothed timing metric, trading accuracy for
    differentiability.
    """

    temperature: float = 0.25
    criticality_threshold: float = 0.05
    attraction_ratio: float = 0.15


@dataclass
class DreamPlaceConfig(PlacementConfig):
    """Placement config plus the optional TNS/WNS recording interval."""

    # The flow-level history cadence of ScheduleConfig (direct GlobalPlacer
    # users keep PlacementConfig's every-iteration default).
    history_every: int = 10
    record_timing_every: Optional[int] = None
    # MCMM corners of the run (None, "fast,typ,slow", or Corner objects);
    # affects timing recording and evaluation (placement is timing-free).
    corners: Optional[object] = None
    # Accepted and ignored, as in ScheduleConfig.
    kernel_workers: int = 0


# ----------------------------------------------------------------------
# Shipped presets
# ----------------------------------------------------------------------
def _timing_stages(
    config: TimingScheduleConfig, feedback: PlacementFeedback, *, legalize: bool = True
) -> List[FlowStage]:
    """``feedback_weight -> global_place [-> legalize] -> evaluate``."""
    cadence = FeedbackCadence(
        start=config.timing_start_iteration, interval=config.timing_update_interval
    )
    stages: List[FlowStage] = [
        FeedbackWeightStage([(feedback, cadence)]),
        GlobalPlaceStage(config.placement_config()),
    ]
    if legalize:
        stages.append(LegalizeStage())
    stages.append(EvaluateStage())
    return stages


def _efficient_tdp_stages(config: EfficientTDPConfig) -> List[FlowStage]:
    feedback = PinPairAttraction(
        extraction=config.extraction,
        w0=config.w0,
        w1=config.w1,
        loss=config.loss,
        beta=config.beta,
        beta_mode=config.beta_mode,
        beta_auto_ratio=config.beta_auto_ratio,
        verbose=config.verbose,
    )
    return _timing_stages(config, feedback, legalize=config.legalize)


def _dreamplace_stages(config: DreamPlaceConfig) -> List[FlowStage]:
    stages: List[FlowStage] = []
    if config.record_timing_every:
        cadence = FeedbackCadence(start=0, interval=config.record_timing_every)
        stages.append(FeedbackWeightStage([(TimingRecorder(), cadence)]))
    stages.extend([GlobalPlaceStage(config), LegalizeStage(), EvaluateStage()])
    return stages


def _dreamplace4_stages(config: DreamPlace4Config) -> List[FlowStage]:
    feedback = MomentumNetWeighting(
        momentum_decay=config.momentum_decay,
        max_boost=config.max_boost,
        max_weight=config.max_weight,
    )
    return _timing_stages(config, feedback)


def _differentiable_tdp_stages(config: DifferentiableTDPConfig) -> List[FlowStage]:
    feedback = SmoothPinPairAttraction(
        temperature=config.temperature,
        criticality_threshold=config.criticality_threshold,
        attraction_ratio=config.attraction_ratio,
    )
    return _timing_stages(config, feedback)


def _routability_stages(config: RoutabilityConfig) -> List[FlowStage]:
    stages: List[FlowStage] = [GlobalPlaceStage(config.placement_config())]
    if config.inflate:
        stages.append(
            RoutabilityRepairStage(
                congestion=config.congestion,
                inflation=config.inflation_config(),
                refine_iterations=config.refine_iterations,
            )
        )
    if config.legalize:
        stages.append(LegalizeStage())
    stages.append(CongestionStage(config=config.congestion))
    stages.append(EvaluateStage(congestion=config.congestion))
    return stages


def _routability_gp_stages(config: RoutabilityGPConfig) -> List[FlowStage]:
    weighting = FeedbackWeightStage(config.feedback_slots(), composer=config.composer_config())
    return [weighting, *_routability_stages(config)]


_PRESETS: Dict[str, FlowPreset] = {
    preset.name: preset
    for preset in (
        FlowPreset(
            name="efficient_tdp",
            description="Efficient-TDP (ours): critical path extraction + pin-pair attraction",
            config_factory=EfficientTDPConfig,
            stage_factory=_efficient_tdp_stages,
        ),
        FlowPreset(
            name="dreamplace",
            description="DREAMPlace-style wirelength/density placement (no timing feedback)",
            config_factory=DreamPlaceConfig,
            stage_factory=_dreamplace_stages,
        ),
        FlowPreset(
            name="dreamplace4",
            description="DREAMPlace 4.0-style momentum net weighting",
            config_factory=DreamPlace4Config,
            stage_factory=_dreamplace4_stages,
        ),
        FlowPreset(
            name="differentiable_tdp",
            description="Differentiable-TDP-style smoothed pin attraction",
            config_factory=DifferentiableTDPConfig,
            stage_factory=_differentiable_tdp_stages,
        ),
        FlowPreset(
            name="routability",
            description=(
                "Routability-driven placement: RUDY congestion maps feeding a "
                "congestion-driven cell-inflation loop"
            ),
            config_factory=RoutabilityConfig,
            stage_factory=_routability_stages,
        ),
        FlowPreset(
            name="routability-gp",
            description=(
                "Routability-driven global placement: congestion + timing net "
                "weighting composed inside the placement loop, inflation as "
                "post-place cleanup"
            ),
            config_factory=RoutabilityGPConfig,
            stage_factory=_routability_gp_stages,
        ),
    )
}
