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
makes the CLI's ``--set key=value`` safe.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.flow.runner import FlowRunner
from repro.flow.stage import FlowStage


@dataclass(frozen=True)
class FlowPreset:
    """A named, configurable stage composition."""

    name: str
    description: str
    config_factory: Callable[[], Any]
    stage_factory: Callable[[Any], List[FlowStage]]

    def default_config(self) -> Any:
        return self.config_factory()


_PRESETS: Dict[str, FlowPreset] = {}


def register_preset(preset: FlowPreset) -> FlowPreset:
    if preset.name in _PRESETS:
        raise ValueError(f"Preset {preset.name!r} is already registered")
    _PRESETS[preset.name] = preset
    return preset


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
    return FlowRunner(preset.stage_factory(cfg), name=preset_name)


# ----------------------------------------------------------------------
# Shipped presets.  Config classes live next to their legacy flow classes
# and are imported lazily to keep the package import graph acyclic.
# ----------------------------------------------------------------------
def _efficient_tdp_config() -> Any:
    from repro.core.placer import EfficientTDPConfig

    return EfficientTDPConfig()


def _efficient_tdp_stages(config: Any) -> List[FlowStage]:
    from repro.flow.stages import (
        EvaluateStage,
        GlobalPlaceStage,
        LegalizeStage,
        PinPairAttractionStrategy,
        TimingWeightStage,
    )

    stages: List[FlowStage] = [
        TimingWeightStage(
            PinPairAttractionStrategy(
                extraction=config.extraction,
                w0=config.w0,
                w1=config.w1,
                loss=config.loss,
                beta=config.beta,
                beta_mode=config.beta_mode,
                beta_auto_ratio=config.beta_auto_ratio,
                verbose=config.verbose,
                sta_incremental=config.incremental_sta,
                sta_move_tolerance=config.sta_move_tolerance,
            ),
            start_iteration=config.timing_start_iteration,
            interval=config.timing_update_interval,
            corners=config.corners,
        ),
        GlobalPlaceStage(config.placement_config()),
    ]
    if config.legalize:
        stages.append(LegalizeStage())
    stages.append(EvaluateStage(corners=config.corners))
    return stages


def _dreamplace_config() -> Any:
    from repro.baselines.dreamplace import DreamPlaceConfig

    return DreamPlaceConfig()


def _dreamplace_stages(config: Any) -> List[FlowStage]:
    from repro.flow.stages import (
        EvaluateStage,
        GlobalPlaceStage,
        LegalizeStage,
        RecordTimingStrategy,
        TimingWeightStage,
    )

    stages: List[FlowStage] = []
    if getattr(config, "record_timing_every", None):
        stages.append(
            TimingWeightStage(
                RecordTimingStrategy(),
                start_iteration=0,
                interval=config.record_timing_every,
                corners=getattr(config, "corners", None),
            )
        )
    stages.extend(
        [
            GlobalPlaceStage(config),
            LegalizeStage(),
            EvaluateStage(corners=getattr(config, "corners", None)),
        ]
    )
    return stages


def _dreamplace4_config() -> Any:
    from repro.baselines.dreamplace4 import DreamPlace4Config

    return DreamPlace4Config()


def _dreamplace4_stages(config: Any) -> List[FlowStage]:
    from repro.flow.stages import (
        EvaluateStage,
        GlobalPlaceStage,
        LegalizeStage,
        MomentumNetWeightStrategy,
        TimingWeightStage,
    )

    return [
        TimingWeightStage(
            MomentumNetWeightStrategy(
                momentum_decay=config.momentum_decay,
                max_boost=config.max_boost,
                max_weight=config.max_weight,
            ),
            start_iteration=config.timing_start_iteration,
            interval=config.timing_update_interval,
            corners=config.corners,
        ),
        GlobalPlaceStage(config.placement_config()),
        LegalizeStage(),
        EvaluateStage(corners=config.corners),
    ]


def _routability_config() -> Any:
    from repro.route.flow import RoutabilityConfig

    return RoutabilityConfig()


def _routability_stages(config: Any) -> List[FlowStage]:
    from repro.flow.stages import (
        CongestionStage,
        EvaluateStage,
        GlobalPlaceStage,
        LegalizeStage,
        RoutabilityRepairStage,
    )

    placement_config = config.placement_config()
    stages: List[FlowStage] = [GlobalPlaceStage(placement_config)]
    if config.inflate:
        stages.append(
            RoutabilityRepairStage(
                congestion=config.congestion,
                inflation=config.inflation_config(),
                refine_iterations=config.refine_iterations,
                placement_config=placement_config,
            )
        )
    if config.legalize:
        stages.append(LegalizeStage())
    stages.append(CongestionStage(config=config.congestion))
    stages.append(EvaluateStage(corners=config.corners, congestion=config.congestion))
    return stages


def _routability_gp_config() -> Any:
    from repro.route.flow import RoutabilityGPConfig

    return RoutabilityGPConfig()


def _routability_gp_stages(config: Any) -> List[FlowStage]:
    from repro.flow.stages import (
        CongestionStage,
        EvaluateStage,
        FeedbackWeightStage,
        GlobalPlaceStage,
        LegalizeStage,
        RoutabilityRepairStage,
    )

    placement_config = config.placement_config()
    stages: List[FlowStage] = [
        FeedbackWeightStage(
            config.feedback_slots(), composer=config.composer_config()
        ),
        GlobalPlaceStage(placement_config),
    ]
    if config.inflate:
        stages.append(
            RoutabilityRepairStage(
                congestion=config.congestion,
                inflation=config.inflation_config(),
                refine_iterations=config.refine_iterations,
                placement_config=placement_config,
            )
        )
    if config.legalize:
        stages.append(LegalizeStage())
    stages.append(CongestionStage(config=config.congestion))
    stages.append(EvaluateStage(corners=config.corners, congestion=config.congestion))
    return stages


def _differentiable_tdp_config() -> Any:
    from repro.baselines.differentiable_tdp import DifferentiableTDPConfig

    return DifferentiableTDPConfig()


def _differentiable_tdp_stages(config: Any) -> List[FlowStage]:
    from repro.flow.stages import (
        EvaluateStage,
        GlobalPlaceStage,
        LegalizeStage,
        SmoothPinPairStrategy,
        TimingWeightStage,
    )

    return [
        TimingWeightStage(
            SmoothPinPairStrategy(
                temperature=config.temperature,
                criticality_threshold=config.criticality_threshold,
                attraction_ratio=config.attraction_ratio,
            ),
            start_iteration=config.timing_start_iteration,
            interval=config.timing_update_interval,
            corners=config.corners,
        ),
        GlobalPlaceStage(config.placement_config()),
        LegalizeStage(),
        EvaluateStage(corners=config.corners),
    ]


register_preset(
    FlowPreset(
        name="efficient_tdp",
        description="Efficient-TDP (ours): critical path extraction + pin-pair attraction",
        config_factory=_efficient_tdp_config,
        stage_factory=_efficient_tdp_stages,
    )
)
register_preset(
    FlowPreset(
        name="dreamplace",
        description="DREAMPlace-style wirelength/density placement (no timing feedback)",
        config_factory=_dreamplace_config,
        stage_factory=_dreamplace_stages,
    )
)
register_preset(
    FlowPreset(
        name="dreamplace4",
        description="DREAMPlace 4.0-style momentum net weighting",
        config_factory=_dreamplace4_config,
        stage_factory=_dreamplace4_stages,
    )
)
register_preset(
    FlowPreset(
        name="differentiable_tdp",
        description="Differentiable-TDP-style smoothed pin attraction",
        config_factory=_differentiable_tdp_config,
        stage_factory=_differentiable_tdp_stages,
    )
)
register_preset(
    FlowPreset(
        name="routability",
        description=(
            "Routability-driven placement: RUDY congestion maps feeding a "
            "congestion-driven cell-inflation loop"
        ),
        config_factory=_routability_config,
        stage_factory=_routability_stages,
    )
)
register_preset(
    FlowPreset(
        name="routability-gp",
        description=(
            "Routability-driven global placement: congestion + timing net "
            "weighting composed inside the placement loop, inflation as "
            "post-place cleanup"
        ),
        config_factory=_routability_gp_config,
        stage_factory=_routability_gp_stages,
    )
)
