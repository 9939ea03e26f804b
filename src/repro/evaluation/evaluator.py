"""Uniform placement scoring: HPWL, TNS, WNS, legality checks.

The evaluator plays the role of the ICCAD-2015 contest evaluation kit: every
competing placement of the same design is scored with one STA configuration
(same constraints, same wire RC, same Elmore model) so differences come from
the placement alone.

With ``corners`` the evaluator scores against a multi-corner analysis: the
headline ``tns``/``wns`` become the *merged* (worst-over-corners) metrics and
the report additionally carries the per-corner breakdown.  A single identity
corner reproduces the single-corner numbers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.netlist.core import as_core
from repro.netlist.design import Design
from repro.obs import traced
from repro.placement.wirelength import total_hpwl
from repro.route.rudy import CongestionConfig, CongestionEstimator
from repro.timing.constraints import TimingConstraints
from repro.timing.mcmm import CornersSpec, MultiCornerResult, MultiCornerSTA
from repro.timing.sta import STAEngine


@dataclass
class EvaluationReport:
    """Scores of one placement.

    ``tns``/``wns`` are merged over corners when the evaluation was
    multi-corner (``per_corner`` is then populated, keyed by corner name).
    """

    design_name: str
    hpwl: float
    tns: float
    wns: float
    num_failing_endpoints: int
    num_endpoints: int
    overlap_area: float
    out_of_die_cells: int
    per_corner: Optional[Dict[str, Dict[str, float]]] = field(default=None)
    # Routability metrics (populated when the evaluation was built with a
    # congestion model; None otherwise so timing-only reports are unchanged).
    congestion_peak_overflow: Optional[float] = field(default=None)
    congestion_avg_overflow: Optional[float] = field(default=None)
    congestion_hotspots: Optional[int] = field(default=None)
    congestion_weighted: Optional[float] = field(default=None)
    # In-loop feedback trajectory (populated by flows that ran scheduled
    # placement feedbacks): one row per feedback update with the iteration,
    # which feedbacks fired, and their WNS / peak-overflow / weight-norm
    # metrics.  None for plain evaluations.
    feedback_trajectory: Optional[List[Dict[str, Any]]] = field(default=None)
    # Aggregate tracing metrics (the run tracer's Tracer.metrics() snapshot,
    # attached by FlowRunner.run): per-span seconds/counts plus counters and
    # gauges.  None for evaluations made outside a flow run.
    trace_metrics: Optional[Dict[str, Any]] = field(default=None)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "design": self.design_name,
            "hpwl": self.hpwl,
            "tns": self.tns,
            "wns": self.wns,
            "failing_endpoints": self.num_failing_endpoints,
            "endpoints": self.num_endpoints,
            "overlap_area": self.overlap_area,
            "out_of_die_cells": self.out_of_die_cells,
        }
        if self.per_corner is not None:
            out["per_corner"] = self.per_corner
        if self.congestion_peak_overflow is not None:
            out["congestion_peak_overflow"] = self.congestion_peak_overflow
            out["congestion_avg_overflow"] = self.congestion_avg_overflow
            out["congestion_hotspots"] = self.congestion_hotspots
            out["congestion_weighted"] = self.congestion_weighted
        if self.feedback_trajectory is not None:
            out["feedback_trajectory"] = self.feedback_trajectory
        if self.trace_metrics is not None:
            out["trace_metrics"] = self.trace_metrics
        return out


class Evaluator:
    """Score placements of one design with a fixed STA configuration."""

    def __init__(
        self,
        design: Design,
        constraints: Optional[TimingConstraints] = None,
        *,
        corners: CornersSpec = None,
        congestion: Optional[CongestionConfig] = None,
        sta: "STAEngine | MultiCornerSTA | None" = None,
    ) -> None:
        self.design = design
        self.constraints = (
            constraints if constraints is not None else TimingConstraints.from_design(design)
        )
        # ``sta``: an engine already built for these constraints and corners.
        if sta is not None:
            self._engine: "STAEngine | MultiCornerSTA" = sta
        elif corners is not None:
            self._engine = MultiCornerSTA(
                design, corners, default_constraints=self.constraints
            )
        else:
            self._engine = STAEngine(design, self.constraints)
        # Congestion scoring is opt-in so timing-only evaluations stay
        # byte-for-byte identical (and pay nothing for the estimator).  The
        # estimator itself is built lazily: callers that hand a precomputed
        # CongestionResult to evaluate() never pay for one.
        self._congestion_config = congestion
        self._congestion: Optional[CongestionEstimator] = None

    @traced("evaluation.evaluate")
    def evaluate(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        *,
        congestion_result=None,
    ) -> EvaluationReport:
        """Evaluate positions ``(x, y)`` (design's stored positions if omitted).

        ``congestion_result`` injects an already-built
        :class:`~repro.route.rudy.CongestionResult` for the *same*
        positions (flows that just ran a congestion stage reuse it instead
        of rebuilding the maps); otherwise the maps are estimated here when
        the evaluator was configured with a congestion model.
        """
        design = self.design
        if x is None or y is None:
            x, y = design.positions()
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)

        core = design.core
        hpwl = total_hpwl(core, x, y)
        result = self._engine.update_timing(x, y)
        per_corner = (
            result.per_corner_summary() if isinstance(result, MultiCornerResult) else None
        )
        overlap = _row_overlap_area(core, x, y)
        outside = _out_of_die_count(core, x, y)
        report = EvaluationReport(
            design_name=design.name,
            hpwl=hpwl,
            tns=result.tns,
            wns=result.wns,
            num_failing_endpoints=result.num_failing_endpoints,
            num_endpoints=int(result.endpoint_pins.size),
            overlap_area=overlap,
            out_of_die_cells=outside,
            per_corner=per_corner,
        )
        congestion = congestion_result
        if congestion is None and self._congestion_config is not None:
            if self._congestion is None:
                self._congestion = CongestionEstimator(
                    design, self._congestion_config
                )
            congestion = self._congestion.estimate(x, y)
        if congestion is not None:
            report.congestion_peak_overflow = congestion.peak_overflow
            report.congestion_avg_overflow = congestion.average_overflow
            report.congestion_hotspots = congestion.num_hotspots
            report.congestion_weighted = congestion.weighted_congestion()
        return report


def evaluate_placement(
    design: Design,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    *,
    constraints: Optional[TimingConstraints] = None,
    corners: CornersSpec = None,
    congestion: Optional[CongestionConfig] = None,
) -> EvaluationReport:
    """One-shot convenience wrapper around :class:`Evaluator`."""
    return Evaluator(
        design, constraints, corners=corners, congestion=congestion
    ).evaluate(x, y)


def _row_overlap_area(design, x: np.ndarray, y: np.ndarray) -> float:
    """Total pairwise overlap area between movable cells sharing a row."""
    arrays = as_core(design)
    movable = arrays.movable_index
    if movable.size == 0:
        return 0.0
    overlap = 0.0
    # Group by y coordinate (legal placements put cells exactly on rows).
    ys = y[movable]
    for row_y in np.unique(ys):
        in_row = movable[ys == row_y]
        if in_row.size < 2:
            continue
        order = in_row[np.argsort(x[in_row], kind="stable")]
        right_edge = x[order] + arrays.inst_width[order]
        gaps = x[order][1:] - right_edge[:-1]
        heights = np.minimum(arrays.inst_height[order][1:], arrays.inst_height[order][:-1])
        overlap += float(np.sum(np.maximum(-gaps, 0.0) * heights))
    return overlap


def _out_of_die_count(design, x: np.ndarray, y: np.ndarray) -> int:
    """Number of movable cells whose footprint leaves the die area."""
    arrays = as_core(design)
    die = arrays.die
    movable = arrays.movable_index
    if movable.size == 0:
        return 0
    xl = x[movable]
    yl = y[movable]
    xh = xl + arrays.inst_width[movable]
    yh = yl + arrays.inst_height[movable]
    bad = (
        (xl < die.xl - 1e-6)
        | (yl < die.yl - 1e-6)
        | (xh > die.xh + 1e-6)
        | (yh > die.yh + 1e-6)
    )
    return int(np.sum(bad))
