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
from repro.utils.logging import get_logger

logger = get_logger("flow.runner")


@dataclass
class FlowResult:
    """Outcome of one :meth:`FlowRunner.run` call.

    ``runtime_seconds`` (the ``flow.run`` span) and ``stage_seconds`` (the
    ``stage.<name>`` spans) are projections of the run tracer's metrics,
    kept in ``context.metadata["trace_metrics"]``.
    """

    context: FlowContext
    runtime_seconds: float
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    flow_name: str = "custom"

    # Convenience accessors mirroring the legacy result objects.
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
        return self.context.history

    def breakdown(self) -> Dict[str, float]:
        """Fig. 4 runtime components in seconds.

        Each ``profile.<component>`` span total is one component; the part
        of the run wall no component accounts for goes to ``others``.
        """
        spans = self.context.metadata["trace_metrics"]["spans"]
        components = {
            name[len("profile."):]: entry["seconds"]
            for name, entry in spans.items()
            if name.startswith("profile.")
        }
        unaccounted = max(0.0, self.runtime_seconds - sum(components.values()))
        components["others"] = components.get("others", 0.0) + unaccounted
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
    """

    def __init__(
        self,
        stages: Sequence[FlowStage],
        *,
        name: str = "custom",
    ) -> None:
        self.stages: List[FlowStage] = list(stages)
        self.name = name
        if not self.stages:
            raise ValueError("A flow needs at least one stage")

    def _stage_config_seed(self) -> Optional[int]:
        for stage in self.stages:
            config = getattr(stage, "config", None)
            if config is not None and hasattr(config, "seed"):
                return int(config.seed)
        return None

    def run(
        self,
        design: Design,
        *,
        constraints: Optional[TimingConstraints] = None,
        corners=None,
        seed: Optional[int] = None,
    ) -> FlowResult:
        """Execute every stage and return the accumulated result.

        The RNG seed lives in the stage configs (the placement stage reads
        ``config.seed``); by default it is picked up from there so the
        result's reported seed is the one actually used.  Passing ``seed``
        explicitly is a cross-check: a value disagreeing with the stage
        config raises instead of silently labeling the run with a seed that
        never seeded anything.

        ``corners`` selects the MCMM analysis corners for the whole run
        (timing feedback and evaluation).  Resolution order: this argument,
        then corner specs carried by the design (e.g. restored from a
        :class:`repro.netlist.CompiledDesign` snapshot), then any
        ``corners=`` the stages were built with.
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
        if corners is None:
            corners = getattr(design, "corners", None)
        resolved_corners = None
        if corners is not None:
            from repro.timing.mcmm import resolve_corners

            resolved_corners = resolve_corners(corners)
        ctx = FlowContext(
            design=design,
            constraints=(
                constraints
                if constraints is not None
                else TimingConstraints.from_design(design)
            ),
            seed=seed,
            corners=resolved_corners,
        )
        with run_tracer() as tracer:
            with span("flow.run", flow=self.name, design=design.name, seed=seed):
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
            runtime_seconds=spans["flow.run"]["seconds"],
            stage_seconds={
                stage.name: spans[f"stage.{stage.name}"]["seconds"]
                for stage in self.stages
            },
            flow_name=self.name,
        )
