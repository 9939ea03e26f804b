"""Pin-level timing graph.

The graph follows the standard STA formulation the paper relies on
(Sec. II-B): nodes are design pins, directed edges ("timing arcs") are either

* **net arcs** — from a net's driver pin to each of its sink pins, whose delay
  is the Elmore wire delay and therefore depends on the placement, or
* **cell arcs** — from an input pin to an output pin of the same instance,
  whose delay follows the library characterization and the driven load.

Clock distribution is treated as ideal: nets feeding flip-flop clock pins are
excluded from the data graph and every clock pin gets arrival time zero, so
register-to-register paths start at clock-to-q arcs and end at D pins.

Construction is array-first: arcs are derived from the design core's CSR
connectivity and per-master arc tables with vectorized kernels — the object
netlist is never walked.  Arc ordering is deterministic and identical to the
historical object walk (net arcs in net/CSR order, then cell arcs in instance
order with each master's declared arc order), which keeps path extraction
tie-breaking stable across code generations.  :class:`Arc` objects are
materialized lazily for reporting/debugging only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.netlist.design import Design
from repro.netlist.library import TimingArcSpec


class ArcKind(enum.IntEnum):
    """Type of a timing arc."""

    CELL = 0
    NET = 1


def csr_gather(
    offsets: np.ndarray, sorted_items: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR ranges ``[offsets[i], offsets[i+1])`` for ``i in idx``.

    Returns ``(flat_items, lengths)``: the payload of every requested row
    back to back, and each row's count (possibly zero).
    """
    starts = offsets[idx]
    lengths = offsets[idx + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=sorted_items.dtype), lengths
    cum = np.cumsum(lengths) - lengths
    positions = np.repeat(starts - cum, lengths) + np.arange(total, dtype=np.int64)
    return sorted_items[positions], lengths


@dataclass(frozen=True)
class Arc:
    """One timing arc (edge) of the graph."""

    index: int
    from_pin: int
    to_pin: int
    kind: ArcKind
    net_index: int = -1
    spec: Optional[TimingArcSpec] = None

    @property
    def is_net_arc(self) -> bool:
        return self.kind is ArcKind.NET


class TimingGraph:
    """Levelized timing DAG over the pins of a finalized design."""

    def __init__(self, design: Design) -> None:
        if not design.finalized:
            raise ValueError("TimingGraph requires a finalized design")
        self.design = design
        self.num_pins = design.num_pins

        self._build_arcs()
        self._build_adjacency()
        self.level = self._levelize()
        self.max_level = int(self.level.max()) if self.num_pins else 0

        self.startpoints = self._find_startpoints()
        self.endpoints = self._find_endpoints()
        self._arcs_cache: Optional[List[Arc]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _identify_clock_nets(
        self, csr_net: np.ndarray, driver_pin: np.ndarray
    ) -> np.ndarray:
        """Boolean mask over nets: feeds a clock pin or is the clock root."""
        core = self.design.core
        csr_pins = core.net_pin_index
        clock_mask = np.zeros(core.num_nets, dtype=bool)
        sink_is_clock = core.pin_is_clock[csr_pins] & ~core.pin_is_driver[csr_pins]
        clock_mask[csr_net[sink_is_clock]] = True

        clock_port = self.design.clock_port
        names = self.design.instance_names
        if clock_port in names:
            port_index = names.index(clock_port)
            if core.inst_is_port[port_index]:
                has_driver = driver_pin >= 0
                driven_by_port = has_driver & (
                    core.pin_instance[np.maximum(driver_pin, 0)] == port_index
                )
                clock_mask |= driven_by_port
        return clock_mask

    def _build_arcs(self) -> None:
        core = self.design.core
        csr_pins = core.net_pin_index
        csr_net = core.csr_net
        driver_pin = core.net_driver_pin

        clock_mask = self._identify_clock_nets(csr_net, driver_pin)
        self.clock_nets: Set[int] = set(np.nonzero(clock_mask)[0].tolist())

        # Net arcs: driver -> each sink, in net-major CSR (connection) order.
        valid_net = (driver_pin >= 0) & ~clock_mask
        sel = valid_net[csr_net] & ~core.pin_is_driver[csr_pins]
        net_arc_to = csr_pins[sel]
        net_arc_net = csr_net[sel]
        net_arc_from = driver_pin[net_arc_net]

        # Cell arcs: grouped per master with vectorized index math, then
        # restored to instance order (stable sort), which reproduces the
        # historical per-instance walk exactly.
        froms: List[np.ndarray] = []
        tos: List[np.ndarray] = []
        owners: List[np.ndarray] = []
        intr: List[np.ndarray] = []
        slope: List[np.ndarray] = []
        type_ids: List[np.ndarray] = []
        spec_local: List[np.ndarray] = []
        for type_id, cell in enumerate(core.cell_types):
            arcs = cell.arcs
            if not arcs:
                continue
            insts_t = np.nonzero(
                (core.inst_cell_id == type_id) & ~core.inst_is_port
            )[0]
            if insts_t.size == 0:
                continue
            local = {pin_name: j for j, pin_name in enumerate(cell.pins)}
            local_from = np.array([local[a.from_pin] for a in arcs], dtype=np.int64)
            local_to = np.array([local[a.to_pin] for a in arcs], dtype=np.int64)
            base = core.inst_pin_offsets[insts_t]
            froms.append((base[:, None] + local_from[None, :]).ravel())
            tos.append((base[:, None] + local_to[None, :]).ravel())
            owners.append(np.repeat(insts_t, len(arcs)))
            intr.append(
                np.tile(np.array([a.intrinsic for a in arcs], dtype=np.float64), insts_t.size)
            )
            slope.append(
                np.tile(np.array([a.load_slope for a in arcs], dtype=np.float64), insts_t.size)
            )
            type_ids.append(np.full(insts_t.size * len(arcs), type_id, dtype=np.int64))
            spec_local.append(np.tile(np.arange(len(arcs), dtype=np.int64), insts_t.size))

        if froms:
            cell_from = np.concatenate(froms)
            cell_to = np.concatenate(tos)
            owner = np.concatenate(owners)
            cell_intrinsic = np.concatenate(intr)
            cell_slope = np.concatenate(slope)
            cell_type_id = np.concatenate(type_ids)
            cell_spec_local = np.concatenate(spec_local)
            order = np.argsort(owner, kind="stable")
            cell_from = cell_from[order]
            cell_to = cell_to[order]
            cell_intrinsic = cell_intrinsic[order]
            cell_slope = cell_slope[order]
            cell_type_id = cell_type_id[order]
            cell_spec_local = cell_spec_local[order]
        else:
            cell_from = cell_to = np.zeros(0, dtype=np.int64)
            cell_intrinsic = cell_slope = np.zeros(0, dtype=np.float64)
            cell_type_id = cell_spec_local = np.zeros(0, dtype=np.int64)

        num_net_arcs = int(net_arc_from.size)
        num_cell_arcs = int(cell_from.size)
        self.arc_from = np.concatenate([net_arc_from, cell_from]).astype(np.int64)
        self.arc_to = np.concatenate([net_arc_to, cell_to]).astype(np.int64)
        self.arc_kind = np.concatenate(
            [
                np.full(num_net_arcs, int(ArcKind.NET), dtype=np.int8),
                np.full(num_cell_arcs, int(ArcKind.CELL), dtype=np.int8),
            ]
        )
        self.arc_net = np.concatenate(
            [net_arc_net, np.full(num_cell_arcs, -1, dtype=np.int64)]
        ).astype(np.int64)

        # Per-cell-arc delay characterization (consumed by CellDelayModel).
        self.cell_arc_index = num_net_arcs + np.arange(num_cell_arcs, dtype=np.int64)
        self.cell_intrinsic = cell_intrinsic
        self.cell_slope = cell_slope
        self._cell_type_id = cell_type_id
        self._cell_spec_local = cell_spec_local
        # Lookup-table arcs (rare): (local cell-arc position, spec) pairs.
        self.cell_table_specs: List[Tuple[int, TimingArcSpec]] = []
        for type_id, cell in enumerate(core.cell_types):
            for j, spec in enumerate(cell.arcs):
                if spec.load_table:
                    positions = np.nonzero(
                        (cell_type_id == type_id) & (cell_spec_local == j)
                    )[0]
                    self.cell_table_specs.extend((int(p), spec) for p in positions)
        self.cell_table_specs.sort(key=lambda item: item[0])

    def arc_spec_of(self, arc_index: int) -> Optional[TimingArcSpec]:
        """The library spec behind a cell arc (``None`` for net arcs)."""
        if self.cell_arc_index.size == 0:
            return None
        local = arc_index - int(self.cell_arc_index[0])
        if local < 0 or local >= self.cell_arc_index.size:
            return None
        cell = self.design.core.cell_types[int(self._cell_type_id[local])]
        return cell.arcs[int(self._cell_spec_local[local])]

    @property
    def arcs(self) -> List[Arc]:
        """Arc objects, materialized lazily (reporting/debug convenience).

        Hot paths (delay evaluation, propagation, path search) work on the
        flat ``arc_from``/``arc_to``/``arc_kind``/``arc_net`` arrays instead.
        """
        if self._arcs_cache is None:
            num_net_arcs = int(np.sum(self.arc_kind == int(ArcKind.NET)))
            cell_types = self.design.core.cell_types
            arcs: List[Arc] = []
            for i in range(self.num_arcs):
                if i < num_net_arcs:
                    spec = None
                    kind = ArcKind.NET
                else:
                    local = i - num_net_arcs
                    cell = cell_types[int(self._cell_type_id[local])]
                    spec = cell.arcs[int(self._cell_spec_local[local])]
                    kind = ArcKind.CELL
                arcs.append(
                    Arc(
                        index=i,
                        from_pin=int(self.arc_from[i]),
                        to_pin=int(self.arc_to[i]),
                        kind=kind,
                        net_index=int(self.arc_net[i]),
                        spec=spec,
                    )
                )
            self._arcs_cache = arcs
        return self._arcs_cache

    def _build_adjacency(self) -> None:
        """CSR fanin/fanout adjacency: arc indices grouped by to/from pin."""
        num_arcs = int(self.arc_from.size)
        fanin_counts = np.bincount(self.arc_to, minlength=self.num_pins) if num_arcs else np.zeros(self.num_pins, dtype=np.int64)
        fanout_counts = np.bincount(self.arc_from, minlength=self.num_pins) if num_arcs else np.zeros(self.num_pins, dtype=np.int64)
        self.fanin_offsets = np.concatenate([[0], np.cumsum(fanin_counts)]).astype(np.int64)
        self.fanout_offsets = np.concatenate([[0], np.cumsum(fanout_counts)]).astype(np.int64)
        self.fanin_arcs = np.argsort(self.arc_to, kind="stable").astype(np.int64) if num_arcs else np.zeros(0, dtype=np.int64)
        self.fanout_arcs = np.argsort(self.arc_from, kind="stable").astype(np.int64) if num_arcs else np.zeros(0, dtype=np.int64)

    def fanin_of(self, pin: int) -> np.ndarray:
        """Indices of arcs whose sink is ``pin``."""
        return self.fanin_arcs[self.fanin_offsets[pin]: self.fanin_offsets[pin + 1]]

    def fanout_of(self, pin: int) -> np.ndarray:
        """Indices of arcs whose source is ``pin``."""
        return self.fanout_arcs[self.fanout_offsets[pin]: self.fanout_offsets[pin + 1]]

    def _levelize(self) -> np.ndarray:
        """Topological levels via wave-parallel Kahn's algorithm; raises on cycles.

        Each wave pops every pin whose indegree reached zero and relaxes all
        of their fanout arcs at once with array ops, so the cost is one numpy
        pass per logic level instead of one Python iteration per pin.
        """
        level = np.zeros(self.num_pins, dtype=np.int64)
        if self.arc_from.size == 0:
            return level
        indegree = np.bincount(self.arc_to, minlength=self.num_pins).astype(np.int64)
        frontier = np.nonzero(indegree == 0)[0]
        processed = int(frontier.size)
        while frontier.size:
            out_arcs, _ = csr_gather(self.fanout_offsets, self.fanout_arcs, frontier)
            if out_arcs.size == 0:
                break
            targets = self.arc_to[out_arcs]
            np.maximum.at(level, targets, level[self.arc_from[out_arcs]] + 1)
            decrement = np.bincount(targets, minlength=self.num_pins)
            indegree -= decrement
            frontier = np.nonzero((decrement > 0) & (indegree == 0))[0]
            processed += int(frontier.size)
        if processed != self.num_pins:
            remaining = int(self.num_pins - processed)
            raise ValueError(
                f"Timing graph contains combinational loops ({remaining} pins unresolved)"
            )
        return level

    def _find_startpoints(self) -> List[int]:
        """Primary-input driver pins and flip-flop clock pins."""
        core = self.design.core
        inst_of = core.pin_instance
        mask = (core.inst_is_port[inst_of] & core.pin_is_driver) | (
            core.pin_is_clock & core.inst_is_sequential[inst_of]
        )
        return np.nonzero(mask)[0].tolist()

    def _find_endpoints(self) -> List[int]:
        """Primary-output pins and flip-flop data (D) pins."""
        core = self.design.core
        inst_of = core.pin_instance
        mask = (core.inst_is_port[inst_of] & ~core.pin_is_driver) | (
            core.inst_is_sequential[inst_of]
            & core.pin_is_input
            & ~core.pin_is_clock
        )
        return np.nonzero(mask)[0].tolist()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_arcs(self) -> int:
        return int(self.arc_from.size)

    @property
    def num_net_arcs(self) -> int:
        return int(np.sum(self.arc_kind == int(ArcKind.NET))) if self.num_arcs else 0

    @property
    def num_cell_arcs(self) -> int:
        return int(np.sum(self.arc_kind == int(ArcKind.CELL))) if self.num_arcs else 0

    def pin_name(self, pin_index: int) -> str:
        return self.design.pins[pin_index].full_name

    def describe(self) -> Dict[str, int]:
        """Summary statistics used in logs and tests."""
        return {
            "num_pins": self.num_pins,
            "num_arcs": self.num_arcs,
            "num_net_arcs": self.num_net_arcs,
            "num_cell_arcs": self.num_cell_arcs,
            "num_startpoints": len(self.startpoints),
            "num_endpoints": len(self.endpoints),
            "num_clock_nets": len(self.clock_nets),
            "max_level": self.max_level,
        }
