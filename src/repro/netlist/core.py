"""Array-first design core: the single source of truth for design state.

:class:`DesignCore` owns every per-instance / per-pin / per-net quantity as a
contiguous NumPy array.  :meth:`DesignCore.from_tables` is its one
constructor from the instance and net tables; every design is built through
it, whether its tables come as arrays (generators,
:meth:`repro.netlist.compiled.CompiledDesign.to_design`) or as the rows
``Design.add_*`` appends before ``Design.finalize()``.  The Python objects
(``Instance``, ``PinRef``, ``Net``) are thin index-backed *views* onto these
arrays — writing ``inst.x`` writes ``core.x[inst.index]`` and vice versa —
so every compute layer (placement, STA, evaluation) reads and writes flat
arrays with no object-graph traffic.

The core is deliberately object-free on the hot paths: positions, pin
positions, HPWL, and utilization are O(1) views or single vectorized kernels.
The only references to Python objects it keeps are the :class:`CellType`
masters (one per distinct library cell, used by the timing-graph builder for
arc specs) — never per-instance objects.

Array layout
------------

Instances, pins, and nets are indexed consistently with
``Design.instances`` / ``Design.pins`` / ``Design.nets`` (and the name
tables ``Design.instance_names`` / ``Design.net_names``).  Pins of instance
``i`` are the contiguous range ``inst_pin_offsets[i]:inst_pin_offsets[i+1]``
(in the cell master's pin-declaration order).  The pins of net ``e`` are
``net_pin_index[net_pin_offsets[e]:net_pin_offsets[e+1]]`` (CSR layout, in
connection order, which fixes the driver/sink ordering the timing graph
relies on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.utils.geometry import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netlist.library import CellType


@dataclass(frozen=True)
class Row:
    """A placement row (used by row-based legalization)."""

    index: int
    y: float
    xl: float
    xh: float
    height: float
    site_width: float

    @property
    def width(self) -> float:
        return self.xh - self.xl

    @property
    def num_sites(self) -> int:
        return int(self.width // self.site_width)


def build_rows(die: Rect, row_height: float, site_width: float) -> List[Row]:
    """Placement rows filling ``die`` from bottom to top."""
    rows: List[Row] = []
    y = die.yl
    index = 0
    while y + row_height <= die.yh + 1e-9:
        rows.append(
            Row(
                index=index,
                y=y,
                xl=die.xl,
                xh=die.xh,
                height=row_height,
                site_width=site_width,
            )
        )
        y += row_height
        index += 1
    return rows


def as_core(design_or_core) -> "DesignCore":
    """Accept either a finalized ``Design`` or a ``DesignCore``.

    Every array consumer (wirelength, density, legalization, evaluation, wire
    RC) goes through this so it can be fed a bare core — e.g. one
    reconstructed from a :class:`repro.netlist.compiled.CompiledDesign` —
    without a full object-model design wrapped around it.
    """
    core = getattr(design_or_core, "core", None)
    return core if core is not None else design_or_core


class DesignCore:
    """Flat array state of one finalized design.

    Mutable state is exactly ``x``, ``y`` (cell positions) and ``net_weight``;
    everything else is topology/geometry frozen at finalize time.
    """

    def __init__(
        self,
        *,
        name: str,
        die: Rect,
        row_height: float,
        site_width: float,
        wire_resistance_per_unit: float,
        wire_capacitance_per_unit: float,
        x: np.ndarray,
        y: np.ndarray,
        inst_width: np.ndarray,
        inst_height: np.ndarray,
        inst_fixed: np.ndarray,
        inst_is_port: np.ndarray,
        inst_is_sequential: np.ndarray,
        inst_cell_id: np.ndarray,
        inst_pin_offsets: np.ndarray,
        cell_types: Tuple["CellType", ...],
        pin_instance: np.ndarray,
        pin_offset_x: np.ndarray,
        pin_offset_y: np.ndarray,
        pin_net: np.ndarray,
        pin_capacitance: np.ndarray,
        pin_is_driver: np.ndarray,
        pin_is_clock: np.ndarray,
        pin_is_input: np.ndarray,
        pin_is_output: np.ndarray,
        net_pin_offsets: np.ndarray,
        net_pin_index: np.ndarray,
        net_weight: np.ndarray,
    ) -> None:
        self.name = name
        self.die = die
        self.row_height = float(row_height)
        self.site_width = float(site_width)
        self.wire_resistance_per_unit = float(wire_resistance_per_unit)
        self.wire_capacitance_per_unit = float(wire_capacitance_per_unit)

        self.x = np.ascontiguousarray(x, dtype=np.float64)
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        self.inst_width = np.ascontiguousarray(inst_width, dtype=np.float64)
        self.inst_height = np.ascontiguousarray(inst_height, dtype=np.float64)
        self.inst_fixed = np.ascontiguousarray(inst_fixed, dtype=bool)
        self.inst_is_port = np.ascontiguousarray(inst_is_port, dtype=bool)
        self.inst_is_sequential = np.ascontiguousarray(inst_is_sequential, dtype=bool)
        self.inst_cell_id = np.ascontiguousarray(inst_cell_id, dtype=np.int64)
        self.inst_pin_offsets = np.ascontiguousarray(inst_pin_offsets, dtype=np.int64)
        self.cell_types = tuple(cell_types)
        self.inst_area = self.inst_width * self.inst_height

        self.pin_instance = np.ascontiguousarray(pin_instance, dtype=np.int64)
        self.pin_offset_x = np.ascontiguousarray(pin_offset_x, dtype=np.float64)
        self.pin_offset_y = np.ascontiguousarray(pin_offset_y, dtype=np.float64)
        self.pin_net = np.ascontiguousarray(pin_net, dtype=np.int64)
        self.pin_capacitance = np.ascontiguousarray(pin_capacitance, dtype=np.float64)
        self.pin_is_driver = np.ascontiguousarray(pin_is_driver, dtype=bool)
        self.pin_is_clock = np.ascontiguousarray(pin_is_clock, dtype=bool)
        self.pin_is_input = np.ascontiguousarray(pin_is_input, dtype=bool)
        self.pin_is_output = np.ascontiguousarray(pin_is_output, dtype=bool)

        self.net_pin_offsets = np.ascontiguousarray(net_pin_offsets, dtype=np.int64)
        self.net_pin_index = np.ascontiguousarray(net_pin_index, dtype=np.int64)
        self.net_weight = np.ascontiguousarray(net_weight, dtype=np.float64)

        self.num_instances = int(self.x.size)
        self.num_pins = int(self.pin_instance.size)
        self.num_nets = int(self.net_pin_offsets.size - 1)

        self.movable_mask = ~self.inst_fixed
        self.movable_index = np.nonzero(self.movable_mask)[0]

        self._rows_cache: Optional[List[Row]] = None
        self._rows_cache_key: Optional[Tuple[float, ...]] = None
        self._csr_net: Optional[np.ndarray] = None
        self._net_driver_pin: Optional[np.ndarray] = None
        self._hpwl_plan: Optional[Tuple[np.ndarray, ...]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tables(
        cls,
        *,
        name: str,
        die: Rect,
        row_height: float,
        site_width: float,
        wire_resistance_per_unit: float,
        wire_capacitance_per_unit: float,
        cell_types: Tuple["CellType", ...],
        inst_cell_id: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        inst_fixed: np.ndarray,
        inst_is_port: np.ndarray,
        net_pin_offsets: np.ndarray,
        net_pin_index: np.ndarray,
        net_weight: np.ndarray,
    ) -> "DesignCore":
        """Build a core from its instance and net tables.

        Every per-instance geometry field and every per-pin field is
        gathered from small per-cell-type tables through ``inst_cell_id``:
        the pins of instance ``i`` are its master's pins in declaration
        order, so pin ``p`` is row ``p - inst_pin_offsets[i]`` of its
        master's pin table.  ``pin_net`` inverts the net CSR.  The arrays
        are adopted as given (no copy when the dtype already matches).
        """
        cell_types = tuple(cell_types)
        inst_cell_id = np.asarray(inst_cell_id, dtype=np.int64)
        num_instances = inst_cell_id.size

        pin_count = np.array([len(c.pins) for c in cell_types], dtype=np.int64)
        lib_pins = [pin for cell in cell_types for pin in cell.pins.values()]
        cell_pin_start = np.cumsum(pin_count) - pin_count
        inst_pin_count = pin_count[inst_cell_id]
        inst_pin_offsets = np.zeros(num_instances + 1, dtype=np.int64)
        np.cumsum(inst_pin_count, out=inst_pin_offsets[1:])
        num_pins = int(inst_pin_offsets[-1])
        pin_instance = np.repeat(np.arange(num_instances, dtype=np.int64), inst_pin_count)
        # Row of every pin in the flattened master pin table.
        lib_row = np.arange(num_pins, dtype=np.int64) + (
            cell_pin_start[inst_cell_id] - inst_pin_offsets[:-1]
        )[pin_instance]

        def per_cell(values, dtype) -> np.ndarray:
            return np.array(values, dtype=dtype)[inst_cell_id]

        def per_pin(values, dtype) -> np.ndarray:
            return np.array(values, dtype=dtype)[lib_row]

        net_pin_offsets = np.asarray(net_pin_offsets, dtype=np.int64)
        net_pin_index = np.asarray(net_pin_index, dtype=np.int64)
        csr_net = np.repeat(
            np.arange(net_pin_offsets.size - 1, dtype=np.int64), np.diff(net_pin_offsets)
        )
        pin_net = np.full(num_pins, -1, dtype=np.int64)
        pin_net[net_pin_index] = csr_net
        is_output = [p.is_output for p in lib_pins]

        core = cls(
            name=name,
            die=die,
            row_height=row_height,
            site_width=site_width,
            wire_resistance_per_unit=wire_resistance_per_unit,
            wire_capacitance_per_unit=wire_capacitance_per_unit,
            x=x,
            y=y,
            inst_width=per_cell([c.width for c in cell_types], np.float64),
            inst_height=per_cell([c.height for c in cell_types], np.float64),
            inst_fixed=inst_fixed,
            inst_is_port=inst_is_port,
            inst_is_sequential=per_cell([c.is_sequential for c in cell_types], bool),
            inst_cell_id=inst_cell_id,
            inst_pin_offsets=inst_pin_offsets,
            cell_types=cell_types,
            pin_instance=pin_instance,
            pin_offset_x=per_pin([p.offset_x for p in lib_pins], np.float64),
            pin_offset_y=per_pin([p.offset_y for p in lib_pins], np.float64),
            pin_net=pin_net,
            pin_capacitance=per_pin([p.capacitance for p in lib_pins], np.float64),
            pin_is_driver=per_pin(is_output, bool),
            pin_is_clock=per_pin([p.is_clock for p in lib_pins], bool),
            pin_is_input=per_pin([p.is_input for p in lib_pins], bool),
            pin_is_output=per_pin(is_output, bool),
            net_pin_offsets=net_pin_offsets,
            net_pin_index=net_pin_index,
            net_weight=net_weight,
        )
        core._csr_net = csr_net
        return core

    # ------------------------------------------------------------------
    # Positions
    # ------------------------------------------------------------------
    def positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the instance lower-left coordinates.

        Copies, not views: callers (optimizers, legalizers) treat the result
        as scratch space, and the core's state must only change through
        :meth:`set_positions` or per-instance view writes.
        """
        return self.x.copy(), self.y.copy()

    def set_positions(self, x: np.ndarray, y: np.ndarray) -> None:
        """Write back positions for movable instances (fixed cells kept)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != (self.num_instances,) or y.shape != (self.num_instances,):
            raise ValueError("Position arrays must have one entry per instance")
        np.copyto(self.x, x, where=self.movable_mask)
        np.copyto(self.y, y, where=self.movable_mask)

    def pin_positions(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Absolute pin coordinates for instance positions ``(x, y)``."""
        if x is None or y is None:
            x, y = self.x, self.y
        px = x[self.pin_instance] + self.pin_offset_x
        py = y[self.pin_instance] + self.pin_offset_y
        return px, py

    # ------------------------------------------------------------------
    # Connectivity helpers
    # ------------------------------------------------------------------
    def net_pins(self, net_index: int) -> np.ndarray:
        start = self.net_pin_offsets[net_index]
        end = self.net_pin_offsets[net_index + 1]
        return self.net_pin_index[start:end]

    @property
    def csr_net(self) -> np.ndarray:
        """Net id of every ``net_pin_index`` entry (net-major CSR expansion).

        Cached: the topology is frozen, and the timing graph, wire-RC model,
        and smooth-wirelength model all consume this same array.
        """
        if self._csr_net is None:
            self._csr_net = np.repeat(
                np.arange(self.num_nets, dtype=np.int64),
                np.diff(self.net_pin_offsets),
            )
        return self._csr_net

    @property
    def net_driver_pin(self) -> np.ndarray:
        """Driver pin index per net (-1 when undriven); cached, do not mutate.

        Well defined after finalize: multi-driver nets are rejected there.
        """
        if self._net_driver_pin is None:
            driver = np.full(self.num_nets, -1, dtype=np.int64)
            mask = self.pin_is_driver[self.net_pin_index]
            driver[self.csr_net[mask]] = self.net_pin_index[mask]
            self._net_driver_pin = driver
        return self._net_driver_pin

    # ------------------------------------------------------------------
    # Geometry kernels
    # ------------------------------------------------------------------
    def _hpwl_scatter_plan(self) -> Tuple[np.ndarray, ...]:
        """Cached scatter plan for :meth:`hpwl_per_net` (topology-only).

        ``valid_ids`` are the nets with at least two pins; ``pins`` is the
        valid subset of ``net_pin_index`` (net-contiguous, because the CSR
        expansion is net-major); ``seg`` maps each such pin to its compact
        valid-net id.  ``legacy_clean`` records which valid nets the old
        ``reduceat``-over-raw-offsets formulation could evaluate without its
        per-net fallback — the two code paths grouped the four extrema
        differently (``((xmax-xmin)+ymax)-ymin`` vs
        ``(xmax-xmin)+(ymax-ymin)``), and the vectorized pass replays that
        split so per-net values stay bitwise-stable across the rewrite.
        """
        if self._hpwl_plan is None:
            offsets = self.net_pin_offsets
            counts = np.diff(offsets)
            valid_ids = np.nonzero(counts >= 2)[0]
            pins = self.net_pin_index[counts[self.csr_net] >= 2]
            seg = np.repeat(
                np.arange(valid_ids.size, dtype=np.int64), counts[valid_ids]
            )
            starts = offsets[:-1][valid_ids]
            spans = np.append(starts[1:], self.net_pin_index.size) - starts
            legacy_clean = spans == counts[valid_ids]
            self._hpwl_plan = (valid_ids, pins, seg, legacy_clean)
        return self._hpwl_plan

    def hpwl_per_net(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        *,
        pin_x: Optional[np.ndarray] = None,
        pin_y: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Exact HPWL of every net in one vectorized pass (0 for degenerate nets).

        ``pin_x``/``pin_y`` may carry precomputed absolute pin coordinates to
        skip the gather (the placer shares one gather per iteration).

        Per-net extrema run through ``np.maximum.at``/``np.minimum.at`` over
        the compact valid-net segments of the cached scatter plan — min/max
        folds are order-independent in IEEE arithmetic, so every net's value
        is bitwise identical to :meth:`_reference_hpwl_per_net`, without that
        path's Python-level fallback loop over nets that share a ``reduceat``
        span with a degenerate neighbour.
        """
        if pin_x is None or pin_y is None:
            pin_x, pin_y = self.pin_positions(x, y)
        result = np.zeros(self.num_nets, dtype=np.float64)
        valid_ids, pins, seg, legacy_clean = self._hpwl_scatter_plan()
        if valid_ids.size == 0:
            return result
        vx = pin_x[pins]
        vy = pin_y[pins]
        num_valid = valid_ids.size
        xmax = np.full(num_valid, -np.inf)
        xmin = np.full(num_valid, np.inf)
        ymax = np.full(num_valid, -np.inf)
        ymin = np.full(num_valid, np.inf)
        np.maximum.at(xmax, seg, vx)
        np.minimum.at(xmin, seg, vx)
        np.maximum.at(ymax, seg, vy)
        np.minimum.at(ymin, seg, vy)
        # Replay the historical grouping split (see _hpwl_scatter_plan).
        result[valid_ids] = np.where(
            legacy_clean,
            xmax - xmin + ymax - ymin,
            (xmax - xmin) + (ymax - ymin),
        )
        return result

    def _reference_hpwl_per_net(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        *,
        pin_x: Optional[np.ndarray] = None,
        pin_y: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pre-plan HPWL pass (kept for bitwise property tests and benches).

        ``reduceat`` over the raw CSR offsets, plus a per-net Python fallback
        for every valid net whose segment spans a degenerate neighbour — that
        loop is the cost the planned :meth:`hpwl_per_net` removes.
        """
        if pin_x is None or pin_y is None:
            pin_x, pin_y = self.pin_positions(x, y)
        num_nets = self.num_nets
        result = np.zeros(num_nets, dtype=np.float64)
        offsets = self.net_pin_offsets
        csr = self.net_pin_index
        counts = np.diff(offsets)
        valid = counts >= 2
        if not np.any(valid):
            return result
        # reduceat needs non-empty segments; operate on valid nets only.
        valid_ids = np.nonzero(valid)[0]
        starts = offsets[:-1][valid_ids]
        xmax = np.maximum.reduceat(pin_x[csr], starts)
        xmin = np.minimum.reduceat(pin_x[csr], starts)
        ymax = np.maximum.reduceat(pin_y[csr], starts)
        ymin = np.minimum.reduceat(pin_y[csr], starts)
        # reduceat with ``starts`` reduces from each start to the next start
        # (or the end), which may span nets when invalid nets sit between
        # valid ones.  That only happens for nets with <2 pins, which
        # contribute their single pin; including it in the neighbouring
        # segment would corrupt the result, so recompute those rare cases.
        spans = np.append(starts[1:], csr.size) - starts
        clean = spans == counts[valid_ids]
        result[valid_ids[clean]] = (xmax - xmin + ymax - ymin)[clean]
        for net_id in valid_ids[~clean]:
            pins = self.net_pins(int(net_id))
            px = pin_x[pins]
            py = pin_y[pins]
            result[net_id] = (px.max() - px.min()) + (py.max() - py.min())
        return result

    def total_hpwl(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        *,
        net_weights: Optional[np.ndarray] = None,
        pin_x: Optional[np.ndarray] = None,
        pin_y: Optional[np.ndarray] = None,
    ) -> float:
        """Total (optionally net-weighted) HPWL at positions ``(x, y)``."""
        per_net = self.hpwl_per_net(x, y, pin_x=pin_x, pin_y=pin_y)
        if net_weights is not None:
            per_net = per_net * net_weights
        return float(per_net.sum())

    def utilization(self) -> float:
        """Total non-port cell area divided by die area."""
        if self.die.area <= 0:
            return 0.0
        return float(self.inst_area[~self.inst_is_port].sum()) / self.die.area

    # ------------------------------------------------------------------
    # Floorplan
    # ------------------------------------------------------------------
    def set_floorplan(
        self,
        *,
        die: Optional[Rect | Tuple[float, float, float, float]] = None,
        row_height: Optional[float] = None,
        site_width: Optional[float] = None,
    ) -> None:
        """Update floorplan parameters (invalidates the cached rows).

        The rows cache keys on the *values* of the floorplan, so both this
        method and a direct attribute assignment invalidate it on the next
        :meth:`rows` call.  Tuples are normalized to :class:`Rect` so the
        cache key never sees a malformed die.
        """
        if die is not None:
            self.die = die if isinstance(die, Rect) else Rect(*die)
        if row_height is not None:
            self.row_height = float(row_height)
        if site_width is not None:
            self.site_width = float(site_width)

    def _floorplan_key(self) -> Tuple[float, ...]:
        die = self.die
        return (die.xl, die.yl, die.xh, die.yh, self.row_height, self.site_width)

    def rows(self) -> List[Row]:
        """Placement rows, cached until the floorplan changes."""
        key = self._floorplan_key()
        if self._rows_cache is None or self._rows_cache_key != key:
            self._rows_cache = build_rows(self.die, self.row_height, self.site_width)
            self._rows_cache_key = key
        return self._rows_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DesignCore({self.name}, instances={self.num_instances}, "
            f"nets={self.num_nets}, pins={self.num_pins})"
        )
