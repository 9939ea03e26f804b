"""Frozen, array-only design snapshots.

A :class:`CompiledDesign` is a snapshot of a finalized
:class:`repro.netlist.design.Design`: flat NumPy arrays plus name tables and
the (small) cell library — no ``Instance``/``PinRef``/``Net`` object graph,
no circular references.  :func:`compile_design` takes one from any design,
which makes it the design's fingerprint (hash its fields to compare two
designs); a snapshot pickles as a plain dataclass.

Reconstruction (:meth:`CompiledDesign.to_design`) builds the
:class:`repro.netlist.core.DesignCore` straight from the snapshot's tables
(:meth:`DesignCore.from_tables`) and wraps it with its name tables
(:meth:`Design.from_core`), so the rebuilt design is index-for-index and
bit-for-bit identical to the original: same instance, pin, and net indices,
same CSR pin ordering, same positions.  No ``Instance``/``PinRef``/``Net``
object is created until code asks for one.  The benchmark generators emit
their designs the same way: they fill a snapshot and call ``to_design``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.netlist.core import DesignCore
from repro.netlist.design import Design
from repro.netlist.library import CellType, Library
from repro.utils.geometry import Rect


@dataclass(frozen=True, eq=False)
class CompiledDesign:
    """Array-only snapshot of a finalized design (no object graph)."""

    name: str
    die: Tuple[float, float, float, float]
    row_height: float
    site_width: float
    clock_period: Optional[float]
    clock_name: str
    clock_port: Optional[str]
    input_delays: Dict[str, float]
    output_delays: Dict[str, float]
    # MCMM corner specs (tuple of repro.timing Corner objects or None);
    # carried so a rebuilt design keeps the same analysis setup.
    corners: Optional[Tuple[object, ...]]
    library: Library
    cell_types: Tuple[CellType, ...]
    instance_names: Tuple[str, ...]
    net_names: Tuple[str, ...]
    orientations: Optional[Tuple[str, ...]]
    x: np.ndarray
    y: np.ndarray
    inst_cell_id: np.ndarray
    inst_fixed: np.ndarray
    inst_is_port: np.ndarray
    inst_pin_offsets: np.ndarray
    net_pin_offsets: np.ndarray
    net_pin_index: np.ndarray
    net_weight: np.ndarray

    @property
    def num_instances(self) -> int:
        return len(self.instance_names)

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def num_pins(self) -> int:
        return int(self.inst_pin_offsets[-1])

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def to_design(self) -> Design:
        """Build a finalized :class:`Design` identical to the compiled one.

        Every array is copied, so the design never aliases the snapshot:
        :func:`compile_design` shares the source design's index arrays, and
        one snapshot may be rebuilt many times, so a placement run must not
        write through to either.
        """
        core = DesignCore.from_tables(
            name=self.name,
            die=Rect(*self.die),
            row_height=self.row_height,
            site_width=self.site_width,
            wire_resistance_per_unit=self.library.wire_resistance_per_unit,
            wire_capacitance_per_unit=self.library.wire_capacitance_per_unit,
            cell_types=self.cell_types,
            inst_cell_id=np.array(self.inst_cell_id, dtype=np.int64),
            x=np.array(self.x, dtype=np.float64),
            y=np.array(self.y, dtype=np.float64),
            inst_fixed=np.array(self.inst_fixed, dtype=bool),
            inst_is_port=np.array(self.inst_is_port, dtype=bool),
            net_pin_offsets=np.array(self.net_pin_offsets, dtype=np.int64),
            net_pin_index=np.array(self.net_pin_index, dtype=np.int64),
            net_weight=np.array(self.net_weight, dtype=np.float64),
        )
        if not np.array_equal(core.inst_pin_offsets, self.inst_pin_offsets) or (
            core.num_pins
            and np.bincount(core.net_pin_index, minlength=core.num_pins).max() > 1
        ):
            raise RuntimeError(
                f"CompiledDesign {self.name}: the snapshot's pin/net layout is "
                "inconsistent (pin offsets differ from the cell masters', or a pin "
                "sits on two nets)"
            )
        design = Design.from_core(
            core,
            self.library,
            instance_names=self.instance_names,
            net_names=self.net_names,
            orientations=self.orientations,
        )
        design.clock_period = self.clock_period
        design.clock_name = self.clock_name
        design.clock_port = self.clock_port
        design.input_delays = dict(self.input_delays)
        design.output_delays = dict(self.output_delays)
        design.corners = self.corners
        return design


def compile_design(design: Design) -> CompiledDesign:
    """Snapshot a finalized design into a :class:`CompiledDesign`."""
    core = design.core
    corners = design.corners
    if corners is not None:
        # Normalize spec strings ("fast,typ,slow") into Corner tuples so the
        # snapshot is self-contained (lazy import: netlist must not depend on
        # timing at module load).
        from repro.timing.mcmm import resolve_corners

        corners = resolve_corners(corners)
    die = design.die
    return CompiledDesign(
        name=design.name,
        die=(die.xl, die.yl, die.xh, die.yh),
        row_height=design.row_height,
        site_width=design.site_width,
        clock_period=design.clock_period,
        clock_name=design.clock_name,
        clock_port=design.clock_port,
        input_delays=dict(design.input_delays),
        output_delays=dict(design.output_delays),
        corners=corners,
        library=design.library,
        cell_types=core.cell_types,
        instance_names=design.instance_names,
        net_names=design.net_names,
        # None when every instance is "N": the common case costs nothing.
        orientations=design.orientations,
        x=core.x.copy(),
        y=core.y.copy(),
        inst_cell_id=core.inst_cell_id,
        inst_fixed=core.inst_fixed,
        inst_is_port=core.inst_is_port,
        inst_pin_offsets=core.inst_pin_offsets,
        net_pin_offsets=core.net_pin_offsets,
        net_pin_index=core.net_pin_index,
        net_weight=core.net_weight.copy(),
    )

