"""Vectorized delay models for cell arcs and wire (net) arcs.

Two cooperating models:

* :class:`WireRCModel` evaluates, for every net at once, the Elmore delay from
  the net driver to each sink and the total load capacitance the driver sees.
  It uses the star topology (every pin connected to the pin centroid through
  a wire segment with per-unit resistance/capacitance from the library), the
  same estimate the placement-time timer uses in DREAMPlace-style flows.
  For a uniform RC line the Elmore delay is independent of segmentation, so
  two-pin nets match the exact point-to-point formula
  ``delay = r*L * (c*L/2 + C_pin)`` — quadratic in length, which is what the
  paper's quadratic distance loss is designed to track.

* :class:`CellDelayModel` evaluates every cell arc's delay from the library
  characterization (``intrinsic + slope * load`` or a load lookup table)
  given the per-net loads computed by the wire model.

Both models are array-first: they read the design core's CSR connectivity
and the timing graph's flat arc characterization — no object traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.netlist.core import DesignCore, as_core
from repro.timing.graph import TimingGraph


def stack_corner_rows(rows) -> np.ndarray:
    """Stack per-corner rows into a ``[num_corners, n]`` array.

    A single row is handed over as a view rather than copied: the
    single-corner STA pays no stacking cost for its corner axis.
    """
    return rows[0][np.newaxis] if len(rows) == 1 else np.stack(rows)


@dataclass
class WireDelayResult:
    """Output of one wire-delay evaluation."""

    net_load: np.ndarray        # [num_nets] capacitance seen by each net driver
    sink_delay: np.ndarray      # [num_pins] Elmore delay from driver to this pin
    net_wirelength: np.ndarray  # [num_nets] estimated routed length (star)


@dataclass
class StackedWireDelayResult:
    """Wire delays for several corners at once (corner axis first)."""

    net_load: np.ndarray        # [num_corners, num_nets]
    sink_delay: np.ndarray      # [num_corners, num_pins]
    net_wirelength: np.ndarray  # [num_nets] (corner-independent geometry)

    def corner(self, index: int) -> WireDelayResult:
        return WireDelayResult(
            net_load=self.net_load[index],
            sink_delay=self.sink_delay[index],
            net_wirelength=self.net_wirelength,
        )


@dataclass
class _WireGeometry:
    """Corner-independent per-position quantities shared by all RC corners.

    Everything here depends only on pin positions and pin capacitances —
    never on the per-unit wire RC — so a multi-corner evaluation computes it
    once and reuses it for every corner's :meth:`WireRCModel._combine`.
    """

    csr_net: np.ndarray         # net id per CSR entry
    cx: np.ndarray              # [num_nets] star-center x
    cy: np.ndarray              # [num_nets] star-center y
    seg_len: np.ndarray         # per CSR entry: Manhattan segment length
    pin_cap_sum: np.ndarray     # [num_nets] total pin capacitance
    net_wirelength: np.ndarray  # [num_nets] total star wirelength
    has_driver: np.ndarray      # [num_nets] bool
    driver_cap: np.ndarray      # [num_nets] driver pin capacitance (0 if none)
    driver_seg_len: np.ndarray  # [num_nets] driver-to-center segment length
    sink_pins: np.ndarray       # sink pin indices
    sink_nets: np.ndarray       # net id per sink
    sink_seg_len: np.ndarray    # sink-to-center segment length per sink


class WireRCModel:
    """Star-topology Elmore delay for every net, fully vectorized."""

    def __init__(
        self,
        design,
        *,
        resistance_per_unit: Optional[float] = None,
        capacitance_per_unit: Optional[float] = None,
    ) -> None:
        core: DesignCore = as_core(design)
        self.core = core
        self.resistance_per_unit = (
            core.wire_resistance_per_unit if resistance_per_unit is None else resistance_per_unit
        )
        self.capacitance_per_unit = (
            core.wire_capacitance_per_unit if capacitance_per_unit is None else capacitance_per_unit
        )
        self._num_nets = core.num_nets
        self._num_pins = core.num_pins
        # CSR pin ordering grouped by net (shared, cached on the core).
        self._csr_pins = core.net_pin_index
        self._csr_net = core.csr_net
        self._pin_cap = core.pin_capacitance
        self._pin_is_driver = core.pin_is_driver
        # Driver pin per net (-1 when the net is undriven).
        self._driver_pin = core.net_driver_pin
        self._pin_count = np.bincount(self._csr_net, minlength=self._num_nets)

    def evaluate(
        self,
        pin_x: np.ndarray,
        pin_y: np.ndarray,
        *,
        rc_scale: float = 1.0,
    ) -> WireDelayResult:
        """Compute loads and Elmore sink delays for pin positions ``(pin_x, pin_y)``.

        ``rc_scale`` scales both per-unit resistance and capacitance (PVT
        corner derating); the identity scale multiplies by exactly 1.0 and
        therefore changes no bit.
        """
        return self._combine(self._geometry(pin_x, pin_y), rc_scale)

    def evaluate_stacked(
        self,
        pin_x: np.ndarray,
        pin_y: np.ndarray,
        rc_scales,
    ) -> StackedWireDelayResult:
        """Evaluate several RC corners at once, sharing the geometry pass.

        Each corner's per-net values are bitwise identical to a standalone
        :meth:`evaluate` call with the same ``rc_scale`` — the per-corner
        combine executes the same arithmetic on the shared geometry.
        """
        geometry = self._geometry(pin_x, pin_y)
        per_corner = [self._combine(geometry, float(scale)) for scale in rc_scales]
        return StackedWireDelayResult(
            net_load=stack_corner_rows([res.net_load for res in per_corner]),
            sink_delay=stack_corner_rows([res.sink_delay for res in per_corner]),
            net_wirelength=geometry.net_wirelength,
        )

    def _geometry(self, pin_x: np.ndarray, pin_y: np.ndarray) -> _WireGeometry:
        """Position-dependent, RC-independent quantities (the bincount pass)."""
        csr_pins = self._csr_pins
        csr_net = self._csr_net
        num_nets = self._num_nets

        # Star center: centroid of the net's pins.
        count = np.maximum(self._pin_count, 1)
        cx = np.bincount(csr_net, weights=pin_x[csr_pins], minlength=num_nets) / count
        cy = np.bincount(csr_net, weights=pin_y[csr_pins], minlength=num_nets) / count

        # Manhattan length of each pin's segment to the star center.
        seg_len = np.abs(pin_x[csr_pins] - cx[csr_net]) + np.abs(pin_y[csr_pins] - cy[csr_net])

        pin_cap_sum = np.bincount(
            csr_net, weights=self._pin_cap[csr_pins], minlength=num_nets
        )
        net_wirelength = np.bincount(csr_net, weights=seg_len, minlength=num_nets)

        driver = self._driver_pin
        has_driver = driver >= 0
        driver_cap = np.where(has_driver, self._pin_cap[np.maximum(driver, 0)], 0.0)
        driver_seg_len = np.where(
            has_driver,
            np.abs(pin_x[np.maximum(driver, 0)] - cx) + np.abs(pin_y[np.maximum(driver, 0)] - cy),
            0.0,
        )

        sink_mask = ~self._pin_is_driver[csr_pins]
        return _WireGeometry(
            csr_net=csr_net,
            cx=cx,
            cy=cy,
            seg_len=seg_len,
            pin_cap_sum=pin_cap_sum,
            net_wirelength=net_wirelength,
            has_driver=has_driver,
            driver_cap=driver_cap,
            driver_seg_len=driver_seg_len,
            sink_pins=csr_pins[sink_mask],
            sink_nets=csr_net[sink_mask],
            sink_seg_len=seg_len[sink_mask],
        )

    def _combine(self, geometry: _WireGeometry, rc_scale: float) -> WireDelayResult:
        """Fold one corner's per-unit RC into the shared geometry."""
        r = self.resistance_per_unit * rc_scale
        c = self.capacitance_per_unit * rc_scale
        csr_net = geometry.csr_net
        num_nets = self._num_nets
        seg_cap = c * geometry.seg_len

        # Total wire capacitance + pin capacitance per net.
        wire_cap = np.bincount(csr_net, weights=seg_cap, minlength=num_nets)
        total_cap = wire_cap + geometry.pin_cap_sum

        # Load seen by the driver: everything except its own pin capacitance.
        net_load = np.where(
            geometry.has_driver, total_cap - geometry.driver_cap, total_cap
        )
        # Degenerate single-pin nets drive nothing.
        net_load = np.where(self._pin_count >= 2, net_load, 0.0)

        # Elmore delay components:
        #   driver segment:  R_drv * (total_cap - node_cap(driver))
        #   sink segment:    R_sink * (c*L_sink/2 + C_pin(sink))
        driver_seg_len = geometry.driver_seg_len
        driver_node_cap = c * driver_seg_len * 0.5 + geometry.driver_cap
        driver_stage_delay = r * driver_seg_len * np.maximum(total_cap - driver_node_cap, 0.0)
        driver_stage_delay = np.where(self._pin_count >= 2, driver_stage_delay, 0.0)

        sink_delay = np.zeros(self._num_pins, dtype=np.float64)
        sink_pins = geometry.sink_pins
        sink_seg_len = geometry.sink_seg_len
        sink_own_delay = r * sink_seg_len * (c * sink_seg_len * 0.5 + self._pin_cap[sink_pins])
        sink_delay[sink_pins] = driver_stage_delay[geometry.sink_nets] + sink_own_delay

        return WireDelayResult(
            net_load=net_load,
            sink_delay=sink_delay,
            net_wirelength=geometry.net_wirelength,
        )


class CellDelayModel:
    """Vectorized evaluation of cell-arc delays for a timing graph.

    Consumes the graph's precomputed flat characterization
    (``cell_arc_index`` / ``cell_intrinsic`` / ``cell_slope`` /
    ``cell_table_specs``) — no per-arc object iteration.
    """

    def __init__(self, graph: TimingGraph) -> None:
        self.graph = graph
        core = graph.design.core
        self._cell_arc_indices = graph.cell_arc_index
        self._intrinsic = graph.cell_intrinsic
        self._slope = graph.cell_slope
        self._table_arcs = graph.cell_table_specs
        # The net driven by each cell arc's output pin determines its load.
        if self._cell_arc_indices.size:
            to_pins = graph.arc_to[self._cell_arc_indices]
            self._driven_net = core.pin_net[to_pins]
        else:
            self._driven_net = np.zeros(0, dtype=np.int64)

    def evaluate(self, net_load: np.ndarray, *, derate: float = 1.0) -> np.ndarray:
        """Return a delay for every arc of the graph (net arcs left at 0).

        ``derate`` multiplies every cell-arc delay (PVT corner derating); the
        identity derate multiplies by exactly 1.0 and changes no bit.
        """
        delays = np.zeros(self.graph.num_arcs, dtype=np.float64)
        if self._cell_arc_indices.size == 0:
            return delays
        load = np.where(self._driven_net >= 0, net_load[np.maximum(self._driven_net, 0)], 0.0)
        arc_delay = self._intrinsic + self._slope * load
        for local_idx, spec in self._table_arcs:
            arc_delay[local_idx] = spec.delay(float(load[local_idx]))
        delays[self._cell_arc_indices] = arc_delay * derate
        return delays
