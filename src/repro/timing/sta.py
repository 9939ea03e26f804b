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
wire model's geometry pass, dirty-net detection) is done once per update;
the full sweep runs the 1-D ``np.maximum.at``/``np.minimum.at`` level sweep
on each corner row, and the incremental re-propagation batches the rows.
Every corner row executes the same arithmetic as a one-corner engine, so
corner ``i`` of a multi-corner run is bitwise identical to
``MultiCornerSTA(design, corners[i])``.

Incremental mode
----------------

When constructed with ``incremental=True`` the engine keeps the previous
update's positions, delays, and arrival/required annotations.  On the next
``update_timing`` it detects which instances moved beyond ``move_tolerance``,
re-evaluates wire and cell delays only for the nets those instances touch,
and re-propagates arrival/required times only from the dirty frontier,
level by level.  With ``move_tolerance=0`` the incremental result is exactly
(bitwise) the full recompute; a positive tolerance trades bounded staleness
for fewer net re-evaluations.  ``update_timing(..., incremental=False)`` is
the exact fallback: it forces a full recompute and reseeds every cache, and
the engine falls back on its own whenever the dirty-net fraction exceeds
``incremental_rebuild_fraction``.

Cost model: the sparse re-propagation pays a fixed per-logic-level overhead
(a handful of small numpy calls per touched level), so it wins once designs
reach roughly 10k cells or when repeated queries move little or nothing;
below that the fully vectorized full pass is already faster.  Flows that
move every cell every iteration should keep the default full mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.design import Design
from repro.obs import span
from repro.timing.constraints import Corner, TimingConstraints
from repro.timing.delay_model import CellDelayModel, WireRCModel, stack_corner_rows
from repro.timing.graph import ArcKind, TimingGraph, csr_gather as _csr_gather

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


class _LevelWorklist:
    """Dirty pins bucketed by level, deduplicated with a seen mask.

    Keeps the frontier sparse: clean levels cost one dict probe, and no
    per-level scan over the whole pin array is ever needed.
    """

    __slots__ = ("level", "seen", "pending")

    def __init__(self, level: np.ndarray, num_pins: int) -> None:
        self.level = level
        self.seen = np.zeros(num_pins, dtype=bool)
        self.pending: Dict[int, List[np.ndarray]] = {}

    def mark(self, pins: np.ndarray) -> None:
        fresh = pins[~self.seen[pins]]
        if fresh.size == 0:
            return
        # Single grouping pass: one stable sort on the composite
        # (level, pin) key dedupes and orders simultaneously, replacing the
        # ``np.unique`` + per-level boolean-mask loop (which rescanned the
        # whole fresh set once per distinct level).  Buckets come out
        # identical: levels ascending, pins sorted and unique within each.
        levels = self.level[fresh]
        key = levels * np.int64(self.seen.size) + fresh
        order = np.argsort(key, kind="stable")
        key = key[order]
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        fresh = fresh[order[keep]]
        levels = levels[order[keep]]
        self.seen[fresh] = True
        boundary = np.empty(levels.size, dtype=bool)
        boundary[0] = True
        np.not_equal(levels[1:], levels[:-1], out=boundary[1:])
        starts = np.nonzero(boundary)[0]
        ends = np.append(starts[1:], levels.size)
        for s, e in zip(starts.tolist(), ends.tolist()):
            self.pending.setdefault(int(levels[s]), []).append(fresh[s:e])

    def pop(self, lvl: int) -> Optional[np.ndarray]:
        chunks = self.pending.pop(lvl, None)
        if not chunks:
            return None
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


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
    # Memoized views (endpoint lookups are hot inside path extraction).
    _failing_cache: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _endpoint_pos: Optional[Dict[int, int]] = field(
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

    def endpoint_slack_of(self, pin_index: int) -> float:
        """Slack of one endpoint pin, O(1) after the first lookup."""
        if self._endpoint_pos is None:
            # Keep the *first* position for any duplicate, matching the
            # linear scan this replaces (endpoints are unique in practice).
            pos_map: Dict[int, int] = {}
            for position, pin in enumerate(self.endpoint_pins):
                pos_map.setdefault(int(pin), position)
            self._endpoint_pos = pos_map
        position = self._endpoint_pos.get(int(pin_index))
        if position is None:
            raise KeyError(f"Pin {pin_index} is not an endpoint")
        return float(self.endpoint_slack[position])


@dataclass
class TimingUpdateStats:
    """Bookkeeping of one ``update_timing`` call (incremental diagnostics)."""

    mode: str                     # "full" or "incremental"
    num_moved_instances: int = 0
    num_dirty_nets: int = 0
    num_dirty_arcs: int = 0
    num_forward_pins: int = 0     # pins whose arrival was recomputed
    num_backward_pins: int = 0    # pins whose required was recomputed

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "moved_instances": self.num_moved_instances,
            "dirty_nets": self.num_dirty_nets,
            "dirty_arcs": self.num_dirty_arcs,
            "forward_pins": self.num_forward_pins,
            "backward_pins": self.num_backward_pins,
        }


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
        incremental: bool,
        move_tolerance: float,
        incremental_rebuild_fraction: float,
    ) -> None:
        self.design = design
        self.graph = graph if graph is not None else TimingGraph(design)
        self.wire_model = wire_model if wire_model is not None else WireRCModel(design)
        self.cell_model = CellDelayModel(self.graph)
        self.incremental = incremental
        self.move_tolerance = float(move_tolerance)
        self.incremental_rebuild_fraction = float(incremental_rebuild_fraction)
        self._forward_buckets, self._backward_buckets = _level_buckets(self.graph)

    def _configure(
        self,
        constraints: Sequence[TimingConstraints],
        rc_scales: Sequence[float],
        derates: Sequence[float],
    ) -> None:
        """Install one mode and physical derate per corner row.

        Boundary conditions and propagation bases are rebuilt immediately;
        every cached annotation was computed under the old analysis setup
        and is dropped, which forces the next ``update_timing`` into a full
        pass.  Without this, an incremental update after a swap would
        re-propagate only from moved cells and silently keep stale
        arrival/required times everywhere else.
        """
        for mode in constraints:
            mode.validate()
        self._modes: Tuple[TimingConstraints, ...] = tuple(constraints)
        self._rc_scales = tuple(float(scale) for scale in rc_scales)
        self._derates = tuple(float(derate) for derate in derates)
        self._prepare_boundary_conditions()
        self._prepare_propagation_bases()
        self.last_result = None
        self.last_update_stats: Optional[TimingUpdateStats] = None
        # Incremental caches (populated by the first full update).
        self._ref_x: Optional[np.ndarray] = None
        self._ref_y: Optional[np.ndarray] = None
        self._arc_delay: Optional[np.ndarray] = None
        self._net_load: Optional[np.ndarray] = None
        self._sink_delay: Optional[np.ndarray] = None
        self._arrival: Optional[np.ndarray] = None
        self._required: Optional[np.ndarray] = None

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

        Full propagation computes ``arrival[p] = max(base[p], max over fanin
        candidates)`` and ``required[p] = min(base[p], min over fanout
        candidates)``; the incremental recompute of a single pin uses exactly
        the same formula, so both modes agree bit for bit.
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
    def _update(
        self, x: Optional[np.ndarray], y: Optional[np.ndarray], incremental: Optional[bool]
    ):
        """One traced STA pass at ``(x, y)``; returns the front end's result."""
        if x is None or y is None:
            x, y = self.design.positions()
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)

        use_incremental = self.incremental if incremental is None else incremental
        with span("sta.update_timing", incremental=bool(use_incremental)):
            if not (
                use_incremental
                and self._can_update_incrementally()
                and self._update_incremental(x, y)
            ):
                self._update_full(x, y)
            self.last_result = self._result()
        return self.last_result

    def _can_update_incrementally(self) -> bool:
        return (
            self._arc_delay is not None
            and self._ref_x is not None
            and self._arrival is not None
            and self.graph.num_arcs > 0
        )

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

    def _update_full(self, x: np.ndarray, y: np.ndarray) -> None:
        graph = self.graph
        pin_x, pin_y = self.design.pin_positions(x, y)

        wire = self.wire_model.evaluate_stacked(pin_x, pin_y, self._rc_scales)
        arc_delay = self._stacked_arc_delays(wire.net_load, wire.sink_delay)

        # Seed the incremental caches.
        self._ref_x = x.copy()
        self._ref_y = y.copy()
        self._arc_delay = arc_delay
        self._net_load = wire.net_load
        self._sink_delay = wire.sink_delay
        self._arrival = self._propagate_arrival(arc_delay)
        self._required = self._propagate_required(arc_delay)

        self.last_update_stats = TimingUpdateStats(
            mode="full",
            num_dirty_nets=int(self.wire_model.num_nets),
            num_dirty_arcs=int(graph.num_arcs),
            num_forward_pins=int(graph.num_pins),
            num_backward_pins=int(graph.num_pins),
        )

    def _update_incremental(self, x: np.ndarray, y: np.ndarray) -> bool:
        """Dirty-frontier update; returns ``False`` to request a full rebuild.

        Movement detection, the dirty-net set, the wire geometry pass and
        the level worklist are shared by all corners (they depend only on
        positions); only the RC combine, the delay refresh and the
        re-propagation arithmetic run once per corner row.
        """
        design = self.design
        graph = self.graph
        arrays = design.arrays
        tol = self.move_tolerance

        moved = (np.abs(x - self._ref_x) > tol) | (np.abs(y - self._ref_y) > tol)
        num_moved = int(moved.sum())
        if num_moved == 0:
            self.last_update_stats = TimingUpdateStats(
                mode="incremental", num_moved_instances=0
            )
            return True

        # Nets touching any moved instance must have their RC re-evaluated.
        moved_pin_mask = moved[arrays.pin_instance]
        dirty_net_ids = arrays.pin_net[moved_pin_mask]
        dirty_net_ids = dirty_net_ids[dirty_net_ids >= 0]
        net_mask = np.zeros(self.wire_model.num_nets, dtype=bool)
        net_mask[dirty_net_ids] = True
        num_dirty_nets = int(net_mask.sum())
        if num_dirty_nets > self.incremental_rebuild_fraction * max(net_mask.size, 1):
            return False  # most of the design moved; a full pass is cheaper

        # Copy-on-write: results handed out by previous updates must never
        # change after the fact, so each mutating update works on fresh
        # copies of the caches (the no-motion path above stays copy-free).
        self._arrival = self._arrival.copy()
        self._required = self._required.copy()
        self._arc_delay = self._arc_delay.copy()
        self._net_load = self._net_load.copy()
        self._sink_delay = self._sink_delay.copy()

        pin_x, pin_y = design.pin_positions(x, y)
        wire = self.wire_model.evaluate_stacked(
            pin_x, pin_y, self._rc_scales, net_mask=net_mask
        )
        dirty_pins = self.wire_model.pins_of_nets(net_mask)
        # Refresh delays of every arc tied to a dirty net: net arcs inside
        # the net, and cell arcs whose output drives the net.
        net_arc_dirty = (graph.arc_kind == int(ArcKind.NET)) & net_mask[
            np.maximum(graph.arc_net, 0)
        ] & (graph.arc_net >= 0)
        net_arc_sinks = graph.arc_to[net_arc_dirty]
        for index in range(self.num_corners):
            net_load = self._net_load[index]
            sink_delay = self._sink_delay[index]
            arc_delay = self._arc_delay[index]
            net_load[net_mask] = wire.net_load[index][net_mask]
            sink_delay[dirty_pins] = wire.sink_delay[index][dirty_pins]
            arc_delay[net_arc_dirty] = sink_delay[net_arc_sinks]
            # The dirty cell-arc set depends only on the net mask, so every
            # corner returns the same indices; values differ per corner.
            cell_arcs = self.cell_model.update_subset(
                arc_delay, net_load, net_mask, derate=self._derates[index]
            )
        dirty_arcs = np.concatenate([np.nonzero(net_arc_dirty)[0], cell_arcs])

        forward_pins = self._incremental_forward(dirty_arcs)
        backward_pins = self._incremental_backward(dirty_arcs)

        # Only the reference positions of moved instances advance; instances
        # drifting below the tolerance keep accumulating against their last
        # evaluated position, which bounds the approximation error.
        self._ref_x[moved] = x[moved]
        self._ref_y[moved] = y[moved]

        self.last_update_stats = TimingUpdateStats(
            mode="incremental",
            num_moved_instances=num_moved,
            num_dirty_nets=num_dirty_nets,
            num_dirty_arcs=int(dirty_arcs.size),
            num_forward_pins=forward_pins,
            num_backward_pins=backward_pins,
        )
        return True

    def _incremental_forward(self, dirty_arcs: np.ndarray) -> int:
        """Recompute arrivals downstream of dirty arcs, for every corner row.

        The frontier is the union over corners: a pin whose arrival changed
        in *any* corner re-enters the worklist for all of them.  Recomputing
        a corner whose value did not change replays the full-fanin formula
        and reproduces the same bits, so the union costs nothing in
        exactness (and keeps the worklist bookkeeping single-track).
        """
        graph = self.graph
        worklist = _LevelWorklist(graph.level, graph.num_pins)
        if dirty_arcs.size:
            worklist.mark(graph.arc_to[dirty_arcs])
        recomputed = 0
        for lvl in range(1, graph.max_level + 1):
            idx = worklist.pop(lvl)
            if idx is None:
                continue
            recomputed += int(idx.size)
            flat, lengths = _csr_gather(graph.fanin_offsets, graph.fanin_arcs, idx)
            nonzero = lengths > 0
            starts = np.cumsum(lengths[nonzero]) - lengths[nonzero]
            sources = graph.arc_from[flat]
            changed = np.zeros(idx.size, dtype=bool)
            for row, base, delay in zip(self._arrival, self._base_arrival, self._arc_delay):
                new = base[idx]
                if flat.size:
                    reduced = np.maximum.reduceat(row[sources] + delay[flat], starts)
                    new[nonzero] = np.maximum(new[nonzero], reduced)
                changed |= new != row[idx]
                row[idx] = new
            if changed.any():
                out, _ = _csr_gather(graph.fanout_offsets, graph.fanout_arcs, idx[changed])
                if out.size:
                    worklist.mark(graph.arc_to[out])
        return recomputed

    def _incremental_backward(self, dirty_arcs: np.ndarray) -> int:
        """Recompute required times upstream of dirty arcs, for every corner row."""
        graph = self.graph
        worklist = _LevelWorklist(graph.level, graph.num_pins)
        if dirty_arcs.size:
            worklist.mark(graph.arc_from[dirty_arcs])
        recomputed = 0
        for lvl in range(graph.max_level - 1, -1, -1):
            idx = worklist.pop(lvl)
            if idx is None:
                continue
            recomputed += int(idx.size)
            flat, lengths = _csr_gather(graph.fanout_offsets, graph.fanout_arcs, idx)
            nonzero = lengths > 0
            starts = np.cumsum(lengths[nonzero]) - lengths[nonzero]
            sinks = graph.arc_to[flat]
            changed = np.zeros(idx.size, dtype=bool)
            for row, base, delay in zip(self._required, self._base_required, self._arc_delay):
                new = base[idx]
                if flat.size:
                    reduced = np.minimum.reduceat(row[sinks] - delay[flat], starts)
                    new[nonzero] = np.minimum(new[nonzero], reduced)
                changed |= new != row[idx]
                row[idx] = new
            if changed.any():
                inc, _ = _csr_gather(graph.fanin_offsets, graph.fanin_arcs, idx[changed])
                if inc.size:
                    worklist.mark(graph.arc_from[inc])
        return recomputed

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

        Mutating updates always start from fresh cache copies (full updates
        allocate, incremental ones copy-on-write), so results may hand the
        cached arrays over directly: no later update rewrites them.
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

    def __init__(
        self,
        design: Design,
        constraints: Optional[TimingConstraints] = None,
        *,
        graph: Optional[TimingGraph] = None,
        wire_model: Optional[WireRCModel] = None,
        incremental: bool = False,
        move_tolerance: float = 0.0,
        incremental_rebuild_fraction: float = 0.5,
    ) -> None:
        self._init_engine(
            design, graph, wire_model, incremental, move_tolerance,
            incremental_rebuild_fraction,
        )
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

        Boundary conditions are rebuilt immediately and every cached
        annotation is dropped, so the next ``update_timing`` runs a full
        pass under the new constraints.
        """
        self._configure((constraints,), (1.0,), (1.0,))

    def update_timing(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        *,
        incremental: Optional[bool] = None,
    ) -> STAResult:
        """Run an STA pass for instance positions ``(x, y)``.

        When positions are omitted the design's stored positions are used.
        ``incremental`` overrides the engine-level setting for this call;
        ``incremental=False`` is the exact fallback that forces a full
        recompute and refreshes every incremental cache.
        """
        return self._update(x, y, incremental)

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
    ``tns``, ``summary``, incremental mode with ``move_tolerance``) but every
    annotation carries a leading corner axis and ``update_timing`` returns a
    :class:`~repro.timing.mcmm.MultiCornerResult`.
    """

    def __init__(
        self,
        design: Design,
        corners: "CornersSpec" = None,
        *,
        default_constraints: Optional[TimingConstraints] = None,
        graph: Optional[TimingGraph] = None,
        wire_model: Optional[WireRCModel] = None,
        incremental: bool = False,
        move_tolerance: float = 0.0,
        incremental_rebuild_fraction: float = 0.5,
    ) -> None:
        self._init_engine(
            design, graph, wire_model, incremental, move_tolerance,
            incremental_rebuild_fraction,
        )
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
        corner set, and every cached annotation is dropped so the next
        ``update_timing`` runs a full pass.  ``corners`` and ``constraints``
        are read-only properties for the same reason — rebinding them
        directly would leave the stacked caches silently stale.
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
        self._views: Dict[int, "_CornerEngineView"] = {}

    @property
    def corners(self) -> Tuple[Corner, ...]:
        """The analysis corners (swap via :meth:`set_corners`)."""
        return self._corners

    @property
    def constraints(self) -> Tuple[TimingConstraints, ...]:
        """Per-corner mode constraints (swap via :meth:`set_corners`)."""
        return self._modes

    def corner_view(self, index: int) -> "_CornerEngineView":
        """A single-corner engine adapter for reporting/path extraction."""
        from repro.timing.mcmm import _CornerEngineView

        view = self._views.get(index)
        if view is None:
            view = _CornerEngineView(self, index)
            self._views[index] = view
        return view

    def update_timing(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        *,
        incremental: Optional[bool] = None,
    ) -> "MultiCornerResult":
        """Run one stacked STA pass over every corner at positions ``(x, y)``."""
        return self._update(x, y, incremental)

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
