"""Static timing analysis engine.

Given a placed design, :class:`STAEngine` computes, for every pin, the worst
arrival time, the required arrival time, and the slack, plus the design-level
WNS and TNS metrics defined in the paper (Eqs. 2-4).  Propagation is
vectorized level-by-level so that re-running STA inside the placement loop
(every ``m`` iterations in the paper's flow) remains cheap without a C++
timer.

The engine deliberately mirrors OpenTimer's interface shape used by
DREAMPlace 4.0: ``update_timing()`` refreshes arrival/required/slack, and the
report functions in :mod:`repro.timing.report` extract critical paths from the
annotated graph.

One propagation, two front ends
-------------------------------

All state carries a leading corner axis: boundary conditions, propagation
bases, arc delays and the arrival/required annotations are
``[num_corners, ...]`` arrays over one shared :class:`TimingGraph`.
:class:`STAEngine` is the single identity corner and hands out plain
:class:`STAResult` rows; :class:`MultiCornerSTA` (re-exported by
:mod:`repro.timing.mcmm`, which holds the corner presets and the
:class:`~repro.timing.mcmm.MultiCornerResult`) runs several PVT corners and
modes at once.  The corner-independent work (graph build, levelization, the
wire model's geometry pass) is done once per update, and the 1-D
``np.maximum.at``/``np.minimum.at`` level sweep runs on each corner row.
Every corner row executes the same arithmetic as a one-corner engine, so
corner ``i`` of a multi-corner run is bitwise identical to
``MultiCornerSTA(design, corners[i])``.

Every update is one full corner-stacked pass: the placement loop re-times
after iterations that move every movable cell, so there is no unchanged
region an incremental timer could reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.design import Design
from repro.obs import span, traced
from repro.timing.constraints import Corner, TimingConstraints
from repro.timing.delay_model import CellDelayModel, WireRCModel, stack_corner_rows
from repro.timing.graph import ArcKind, TimingGraph

if TYPE_CHECKING:
    from repro.timing.mcmm import CornersSpec, MultiCornerResult, _CornerEngineView

_NEG_INF = -1.0e30
_POS_INF = 1.0e30


def boundary_conditions(
    design: Design, graph: TimingGraph, constraints: TimingConstraints
) -> tuple:
    """Source arrivals and endpoint required times for one set of constraints.

    Returns ``(source_pins, source_arrival, endpoint_pins, endpoint_required)``
    as numpy arrays.  The pin sets depend only on the graph, the values only
    on the constraints — multi-corner analysis calls this once per corner and
    stacks the values over identical pin sets.
    """
    core = design.core
    pin_port = core.inst_is_port[core.pin_instance]
    names = design.instance_names

    source_pins: List[int] = []
    source_arrival: List[float] = []
    for pin_index in graph.startpoints:
        if pin_port[pin_index]:
            arrival = constraints.input_delay(names[core.pin_instance[pin_index]])
        else:
            arrival = 0.0  # ideal clock at flip-flop clock pins
        source_pins.append(pin_index)
        source_arrival.append(arrival)

    endpoint_pins: List[int] = []
    endpoint_required: List[float] = []
    period = constraints.clock_period
    for pin_index in graph.endpoints:
        if pin_port[pin_index]:
            required = period - constraints.output_delay(names[core.pin_instance[pin_index]])
        else:
            required = period - constraints.setup_time
        endpoint_pins.append(pin_index)
        endpoint_required.append(required)

    return (
        np.array(source_pins, dtype=np.int64),
        np.array(source_arrival, dtype=np.float64),
        np.array(endpoint_pins, dtype=np.int64),
        np.array(endpoint_required, dtype=np.float64),
    )


def _level_buckets(graph: TimingGraph) -> tuple:
    """Arc indices grouped by sink level (forward) / source level (backward).

    Forward buckets run shallowest first, backward buckets deepest first;
    empty levels are dropped.  Computed once per graph.
    """
    if graph.num_arcs == 0:
        return [], []
    to_level = graph.level[graph.arc_to]
    from_level = graph.level[graph.arc_from]
    max_level = graph.max_level
    forward = [np.flatnonzero(to_level == lvl) for lvl in range(1, max_level + 1)]
    backward = [np.flatnonzero(from_level == lvl) for lvl in range(max_level - 1, -1, -1)]
    return (
        [bucket for bucket in forward if bucket.size],
        [bucket for bucket in backward if bucket.size],
    )


@dataclass
class STAResult:
    """Snapshot of one timing update."""

    arrival: np.ndarray           # [num_pins] worst (latest) arrival time
    required: np.ndarray          # [num_pins] required arrival time
    slack: np.ndarray             # [num_pins] required - arrival
    arc_delay: np.ndarray         # [num_arcs] delay used for each arc
    net_load: np.ndarray          # [num_nets] driver load capacitance
    endpoint_pins: np.ndarray     # [num_endpoints] pin indices of endpoints
    endpoint_slack: np.ndarray    # [num_endpoints] slack per endpoint
    wns: float
    tns: float
    # Memoized view (endpoint lookups are hot inside path extraction).
    _failing_cache: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def failing_endpoints(self) -> np.ndarray:
        """Endpoint pin indices with negative slack, worst first (memoized)."""
        if self._failing_cache is None:
            mask = self.endpoint_slack < 0
            failing = self.endpoint_pins[mask]
            order = np.argsort(self.endpoint_slack[mask])
            self._failing_cache = failing[order]
        return self._failing_cache

    @property
    def num_failing_endpoints(self) -> int:
        return int(np.sum(self.endpoint_slack < 0))


class _CornerStackedSTA:
    """Corner-stacked propagation shared by :class:`STAEngine` and
    :class:`MultiCornerSTA`.

    The public classes own construction, the constraint/corner swap and the
    result type; everything between positions and annotations lives here.
    """

    def _init_engine(
        self,
        design: Design,
        graph: Optional[TimingGraph],
        wire_model: Optional[WireRCModel],
    ) -> None:
        self.design = design
        self.graph = graph if graph is not None else TimingGraph(design)
        self.wire_model = wire_model if wire_model is not None else WireRCModel(design)
        self.cell_model = CellDelayModel(self.graph)
        self._forward_buckets, self._backward_buckets = _level_buckets(self.graph)

    def _configure(
        self,
        constraints: Sequence[TimingConstraints],
        rc_scales: Sequence[float],
        derates: Sequence[float],
    ) -> None:
        """Install one mode and physical derate per corner row.

        Boundary conditions and propagation bases are rebuilt immediately,
        and the last result, computed under the old analysis setup, is
        dropped.
        """
        for mode in constraints:
            mode.validate()
        self._modes: Tuple[TimingConstraints, ...] = tuple(constraints)
        self._rc_scales = tuple(float(scale) for scale in rc_scales)
        self._derates = tuple(float(derate) for derate in derates)
        self._prepare_boundary_conditions()
        self._prepare_propagation_bases()
        self.last_result = None

    @property
    def num_corners(self) -> int:
        return len(self._modes)

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _prepare_boundary_conditions(self) -> None:
        """Per-corner boundary values over the (shared) graph pin sets."""
        source_arrivals: List[np.ndarray] = []
        endpoint_requireds: List[np.ndarray] = []
        for mode in self._modes:
            pins, arrival, ep_pins, ep_required = boundary_conditions(
                self.design, self.graph, mode
            )
            self.source_pins, self.endpoint_pins = pins, ep_pins
            source_arrivals.append(arrival)
            endpoint_requireds.append(ep_required)
        self.source_arrival = np.stack(source_arrivals)        # [C, S]
        self.endpoint_required = np.stack(endpoint_requireds)  # [C, E]

    def _prepare_propagation_bases(self) -> None:
        """Initial arrival/required values before any arc is applied.

        Propagation computes ``arrival[p] = max(base[p], max over fanin
        candidates)`` and ``required[p] = min(base[p], min over fanout
        candidates)``.
        """
        graph = self.graph
        shape = (self.num_corners, graph.num_pins)
        base_arrival = np.full(shape, _NEG_INF, dtype=np.float64)
        no_fanin = np.diff(graph.fanin_offsets) == 0
        base_arrival[:, no_fanin] = 0.0
        if self.source_pins.size:
            base_arrival[:, self.source_pins] = self.source_arrival
        self._base_arrival = base_arrival

        base_required = np.full(shape, _POS_INF, dtype=np.float64)
        if self.endpoint_pins.size:
            base_required[:, self.endpoint_pins] = self.endpoint_required
        self._base_required = base_required

    # ------------------------------------------------------------------
    # Timing update
    # ------------------------------------------------------------------
    def _update(self, x: Optional[np.ndarray], y: Optional[np.ndarray]):
        """One traced STA pass at ``(x, y)``; returns the front end's result."""
        if x is None or y is None:
            x, y = self.design.positions()
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        with span("timing.sta", corners=self.num_corners):
            pin_x, pin_y = self.design.pin_positions(x, y)
            wire = self.wire_model.evaluate_stacked(pin_x, pin_y, self._rc_scales)
            self._net_load = wire.net_load
            self._arc_delay = self._stacked_arc_delays(wire.net_load, wire.sink_delay)
            self._arrival = self._propagate_arrival(self._arc_delay)
            self._required = self._propagate_required(self._arc_delay)
            self.last_result = self._result()
        return self.last_result

    def _stacked_arc_delays(self, net_load: np.ndarray, sink_delay: np.ndarray) -> np.ndarray:
        """Cell-arc + net-arc delays for every corner, ``[C, num_arcs]``."""
        graph = self.graph
        net_arc_mask = graph.arc_kind == int(ArcKind.NET)
        net_arc_sinks = graph.arc_to[net_arc_mask]
        rows = []
        for index in range(self.num_corners):
            row = self.cell_model.evaluate(net_load[index], derate=self._derates[index])
            # Net arcs: Elmore delay from driver to this arc's sink pin.
            row[net_arc_mask] = sink_delay[index][net_arc_sinks]
            rows.append(row)
        return stack_corner_rows(rows)

    # ------------------------------------------------------------------
    # Full level-by-level sweeps, one contiguous corner row at a time
    # ------------------------------------------------------------------
    def _propagate_arrival(self, arc_delay: np.ndarray) -> np.ndarray:
        graph = self.graph
        arrival = self._base_arrival.copy()
        for row, delay in zip(arrival, arc_delay):
            for bucket in self._forward_buckets:
                candidate = row[graph.arc_from[bucket]] + delay[bucket]
                np.maximum.at(row, graph.arc_to[bucket], candidate)
        return arrival

    def _propagate_required(self, arc_delay: np.ndarray) -> np.ndarray:
        graph = self.graph
        required = self._base_required.copy()
        for row, delay in zip(required, arc_delay):
            for bucket in self._backward_buckets:
                candidate = row[graph.arc_to[bucket]] - delay[bucket]
                np.minimum.at(row, graph.arc_from[bucket], candidate)
        return required

    # ------------------------------------------------------------------
    # Assembly and metrics
    # ------------------------------------------------------------------
    def _assemble(self) -> tuple:
        """``(slack, endpoint_slack, corner_wns, corner_tns)``, corner axis first.

        Every update allocates fresh arrays, so results may hand them over
        directly: no later update rewrites them.
        """
        arrival = self._arrival
        slack = self._required - arrival
        num_corners = self.num_corners
        if self.endpoint_pins.size:
            endpoint_arrival = arrival[:, self.endpoint_pins]
            endpoint_slack = self.endpoint_required - endpoint_arrival
            # Endpoints never reached by any path are ignored (no constraint).
            reachable = endpoint_arrival > _NEG_INF / 2
            endpoint_slack = np.where(reachable, endpoint_slack, np.inf)
        else:
            endpoint_slack = np.zeros((num_corners, 0))

        corner_wns = np.zeros(num_corners, dtype=np.float64)
        corner_tns = np.zeros(num_corners, dtype=np.float64)
        for index in range(num_corners):
            negative = endpoint_slack[index][endpoint_slack[index] < 0]
            corner_wns[index] = float(negative.min()) if negative.size else 0.0
            corner_tns[index] = float(negative.sum()) if negative.size else 0.0
        return slack, endpoint_slack, corner_wns, corner_tns

    def wns(self) -> float:
        self._require_result()
        return self.last_result.wns  # type: ignore[union-attr]

    def tns(self) -> float:
        self._require_result()
        return self.last_result.tns  # type: ignore[union-attr]

    def _require_result(self) -> None:
        if self.last_result is None:
            raise RuntimeError("Call update_timing() before querying results")


class STAEngine(_CornerStackedSTA):
    """Single-corner arrival/required/slack propagation over a :class:`TimingGraph`."""

    @traced("timing.sta_init")
    def __init__(
        self,
        design: Design,
        constraints: Optional[TimingConstraints] = None,
        *,
        graph: Optional[TimingGraph] = None,
        wire_model: Optional[WireRCModel] = None,
    ) -> None:
        self._init_engine(design, graph, wire_model)
        self.set_constraints(
            constraints if constraints is not None else TimingConstraints.from_design(design)
        )

    @property
    def constraints(self) -> TimingConstraints:
        return self._modes[0]

    @constraints.setter
    def constraints(self, value: TimingConstraints) -> None:
        self.set_constraints(value)

    def set_constraints(self, constraints: TimingConstraints) -> None:
        """Swap the analysis constraints and invalidate everything they touch.

        Boundary conditions are rebuilt immediately and the last result is
        dropped; the next ``update_timing`` runs under the new constraints.
        """
        self._configure((constraints,), (1.0,), (1.0,))

    def update_timing(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> STAResult:
        """Run an STA pass for instance positions ``(x, y)``.

        When positions are omitted the design's stored positions are used.
        """
        return self._update(x, y)

    def _result(self) -> STAResult:
        slack, endpoint_slack, corner_wns, corner_tns = self._assemble()
        return STAResult(
            arrival=self._arrival[0],
            required=self._required[0],
            slack=slack[0],
            arc_delay=self._arc_delay[0],
            net_load=self._net_load[0],
            endpoint_pins=self.endpoint_pins,
            endpoint_slack=endpoint_slack[0],
            wns=float(corner_wns[0]),
            tns=float(corner_tns[0]),
        )

    def summary(self) -> Dict[str, float]:
        self._require_result()
        result = self.last_result
        assert result is not None
        return {
            "wns": result.wns,
            "tns": result.tns,
            "failing_endpoints": result.num_failing_endpoints,
            "endpoints": int(self.endpoint_pins.size),
            "clock_period": self.constraints.clock_period,
        }


class MultiCornerSTA(_CornerStackedSTA):
    """Corner-stacked arrival/required/slack propagation on a shared graph.

    Mirrors the :class:`STAEngine` interface (``update_timing``, ``wns``,
    ``tns``, ``summary``) but every annotation carries a leading corner axis
    and ``update_timing`` returns a
    :class:`~repro.timing.mcmm.MultiCornerResult`.
    """

    @traced("timing.sta_init")
    def __init__(
        self,
        design: Design,
        corners: "CornersSpec" = None,
        *,
        default_constraints: Optional[TimingConstraints] = None,
        graph: Optional[TimingGraph] = None,
        wire_model: Optional[WireRCModel] = None,
    ) -> None:
        self._init_engine(design, graph, wire_model)
        self.set_corners(corners, default_constraints=default_constraints)

    def set_corners(
        self,
        corners: "CornersSpec",
        *,
        default_constraints: Optional[TimingConstraints] = None,
    ) -> None:
        """Swap the analysis corners/modes and invalidate everything they touch.

        The corner-swap analogue of :meth:`STAEngine.set_constraints`:
        boundary conditions and propagation bases are rebuilt for the new
        corner set, and the last result is dropped.  ``corners`` and
        ``constraints`` are read-only properties for the same reason —
        rebinding them directly would leave the boundary conditions and
        propagation bases silently stale.
        """
        from repro.timing.mcmm import resolve_corners

        self._corners = resolve_corners(corners)
        # Mode resolution per corner: its own pinned constraints, then the
        # engine-level default (e.g. the flow's constraints), then the
        # design's SDC-derived fields.
        self._configure(
            [c.constraints_for(self.design, default_constraints) for c in self._corners],
            [c.wire_rc_scale for c in self._corners],
            [c.cell_derate for c in self._corners],
        )

    @property
    def corners(self) -> Tuple[Corner, ...]:
        """The analysis corners (swap via :meth:`set_corners`)."""
        return self._corners

    @property
    def constraints(self) -> Tuple[TimingConstraints, ...]:
        """Per-corner mode constraints (swap via :meth:`set_corners`)."""
        return self._modes

    def corner_view(self, index: int) -> "_CornerEngineView":
        """A new single-corner engine adapter for reporting/path extraction.

        Views are not cached: a view refers to this engine, and a cache of
        them here would make every engine a reference cycle.
        """
        from repro.timing.mcmm import _CornerEngineView

        return _CornerEngineView(self, index)

    def update_timing(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> "MultiCornerResult":
        """Run one stacked STA pass over every corner at positions ``(x, y)``."""
        return self._update(x, y)

    def _result(self) -> "MultiCornerResult":
        from repro.timing.mcmm import MultiCornerResult

        slack, endpoint_slack, corner_wns, corner_tns = self._assemble()
        if endpoint_slack.shape[1]:
            merged = endpoint_slack.min(axis=0)
            merged_negative = merged[merged < 0]
        else:
            merged_negative = np.zeros(0)
        return MultiCornerResult(
            corners=self.corners,
            arrival=self._arrival,
            required=self._required,
            slack=slack,
            arc_delay=self._arc_delay,
            net_load=self._net_load,
            endpoint_pins=self.endpoint_pins,
            endpoint_slack=endpoint_slack,
            corner_wns=corner_wns,
            corner_tns=corner_tns,
            wns=float(merged_negative.min()) if merged_negative.size else 0.0,
            tns=float(merged_negative.sum()) if merged_negative.size else 0.0,
        )

    def summary(self) -> Dict[str, object]:
        """Merged headline metrics plus the per-corner breakdown."""
        self._require_result()
        result = self.last_result
        assert result is not None
        return {
            "wns": result.wns,
            "tns": result.tns,
            "failing_endpoints": result.num_failing_endpoints,
            "endpoints": int(self.endpoint_pins.size),
            "corners": [corner.name for corner in self.corners],
            "per_corner": result.per_corner_summary(),
        }
