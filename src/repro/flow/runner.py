"""Execute a stage list over one design and collect the results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.flow.context import FlowContext
from repro.flow.stage import FlowStage
from repro.netlist.design import Design
from repro.obs import run_tracer, span
from repro.timing.constraints import TimingConstraints
from repro.timing.mcmm import CornersSpec, resolve_corners
from repro.utils.logging import get_logger

logger = get_logger("flow.runner")


#: Fig. 4 component of each span name; a key ending in "." covers every name
#: under that prefix, and a name the table misses (``flow``) is ``others``.
FIG4_COMPONENTS: Dict[str, str] = {
    "stage.": "io",
    "timing.sta_init": "io",
    "evaluation.evaluate": "io",
    "placement.": "gradient",
    "core.attraction": "gradient",
    "timing.sta": "timing_analysis",
    "core.extract": "timing_analysis",
    "core.pair_update": "weighting",
    "feedback.": "weighting",
    "route.congestion": "congestion",
    "legalize.": "legalization",
}


@dataclass
class FlowResult:
    """Outcome of one :meth:`FlowRunner.run` call.

    ``runtime_seconds`` (the ``flow`` span), ``stage_seconds`` (the
    ``stage.<name>`` spans) and :meth:`breakdown` are projections of the
    run tracer's metrics, kept in ``context.metadata["trace_metrics"]``.
    """

    context: FlowContext
    runtime_seconds: float
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    flow_name: str = "custom"

    @property
    def x(self) -> np.ndarray:
        x, _ = self.context.positions()
        return x

    @property
    def y(self) -> np.ndarray:
        _, y = self.context.positions()
        return y

    @property
    def evaluation(self):
        return self.context.evaluation

    @property
    def placement(self):
        return self.context.placement

    @property
    def history(self):
        placement = self.context.placement
        return placement.history if placement is not None else None

    def breakdown(self) -> Dict[str, float]:
        """Fig. 4 runtime components in seconds.

        Each span's self seconds count toward its :data:`FIG4_COMPONENTS`
        entry, so the components sum to ``runtime_seconds``.
        """
        components = dict.fromkeys((*FIG4_COMPONENTS.values(), "others"), 0.0)
        for name, entry in self.context.metadata["trace_metrics"]["spans"].items():
            component = FIG4_COMPONENTS.get(name) or FIG4_COMPONENTS.get(
                name.partition(".")[0] + ".", "others"
            )
            components[component] += entry["self_seconds"]
        return components

    def summary(self) -> dict:
        """Flat dict of the headline metrics (JSON-friendly)."""
        out: dict = {
            "design": self.context.design.name,
            "flow": self.flow_name,
            "seed": self.context.seed,
            "runtime_sec": round(self.runtime_seconds, 3),
        }
        if self.context.evaluation is not None:
            ev = self.context.evaluation
            out.update(
                hpwl=ev.hpwl,
                tns=ev.tns,
                wns=ev.wns,
                failing_endpoints=ev.num_failing_endpoints,
                overlap_area=ev.overlap_area,
                out_of_die_cells=ev.out_of_die_cells,
            )
            if ev.per_corner is not None:
                out["corners"] = list(ev.per_corner)
                out["per_corner"] = ev.per_corner
            if ev.congestion_peak_overflow is not None:
                out["congestion_peak_overflow"] = ev.congestion_peak_overflow
                out["congestion_avg_overflow"] = ev.congestion_avg_overflow
                out["congestion_hotspots"] = ev.congestion_hotspots
        if self.context.placement is not None:
            out["iterations"] = self.context.placement.iterations
            out["converged"] = self.context.placement.converged
        if self.context.pin_pairs is not None:
            out["pin_pairs"] = len(self.context.pin_pairs)
        if "legalization" in self.context.metadata:
            out["legalizer"] = self.context.metadata["legalization"]["engine"]
        if "routability_repair" in self.context.metadata:
            repair = self.context.metadata["routability_repair"]
            out["inflation_rounds"] = len(repair["rounds"]) - 1
            out["inflation_stop"] = repair["stop_reason"]
            out["congestion_initial_peak"] = repair["initial_peak_overflow"]
            out["congestion_final_peak"] = repair["final_peak_overflow"]
        feedback = self.context.metadata.get("feedback")
        if feedback and feedback.get("trajectory"):
            out["feedback_updates"] = len(feedback["trajectory"])
        return out


class FlowRunner:
    """Run an ordered list of stages over a design.

    The runner owns no placement logic itself: it builds the
    :class:`FlowContext` and executes each stage in order, recording the
    run into its own tracer (:func:`repro.obs.run_tracer`).
    Compose stages directly or via :mod:`repro.flow.presets`.

    ``corners`` selects the MCMM analysis corners of every run (a preset
    string such as ``"fast,slow"`` or :class:`~repro.timing.Corner`
    objects).  It is the one place a flow's corners are set: timing
    feedback and evaluation share the run's one STA engine built for them.
    Unset, a run takes the corners the design carries (e.g. restored from
    a :class:`repro.netlist.CompiledDesign` snapshot), else analyzes a
    single corner.
    """

    def __init__(
        self,
        stages: Sequence[FlowStage],
        *,
        name: str = "custom",
        corners: CornersSpec = None,
    ) -> None:
        self.stages: List[FlowStage] = list(stages)
        self.name = name
        self.corners = corners
        if not self.stages:
            raise ValueError("A flow needs at least one stage")

    def _stage_config_seed(self) -> Optional[int]:
        for stage in self.stages:
            config = getattr(stage, "config", None)
            if config is not None and hasattr(config, "seed"):
                return int(config.seed)
        return None

    def run(self, design: Design, *, seed: Optional[int] = None) -> FlowResult:
        """Execute every stage and return the accumulated result.

        The RNG seed lives in the stage configs (the placement stage reads
        ``config.seed``); by default it is picked up from there so the
        result's reported seed is the one actually used.  Passing ``seed``
        explicitly is a cross-check: a value disagreeing with the stage
        config raises instead of silently labeling the run with a seed that
        never seeded anything.
        """
        config_seed = self._stage_config_seed()
        if seed is None:
            seed = config_seed if config_seed is not None else 0
        elif config_seed is not None and seed != config_seed:
            raise ValueError(
                f"run(seed={seed}) conflicts with the placement stage's "
                f"config.seed={config_seed}; set the seed through the "
                "stage/preset config (e.g. build_flow(..., seed=...))"
            )
        corners = self.corners if self.corners is not None else design.corners
        ctx = FlowContext(
            design=design,
            constraints=TimingConstraints.from_design(design),
            seed=seed,
            corners=resolve_corners(corners) if corners is not None else None,
        )
        with run_tracer() as tracer:
            with span("flow", flow=self.name, design=design.name, seed=seed):
                for stage in self.stages:
                    logger.debug("flow %s: running stage %s", self.name, stage.name)
                    with span(f"stage.{stage.name}"):
                        stage.run(ctx)
        # The flat where-did-the-time-go view travels with the scores
        # (EvaluationReport / --profile); every timing below projects it.
        metrics = tracer.metrics()
        ctx.metadata["trace_metrics"] = metrics
        if ctx.evaluation is not None:
            ctx.evaluation.trace_metrics = metrics
        spans = metrics["spans"]
        return FlowResult(
            context=ctx,
            runtime_seconds=spans["flow"]["seconds"],
            stage_seconds={
                stage.name: spans[f"stage.{stage.name}"]["seconds"]
                for stage in self.stages
            },
            flow_name=self.name,
        )
