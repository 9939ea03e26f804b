"""Flat gate-level design (netlist + floorplan + placement state).

The :class:`Design` is the central data structure shared by every other
subsystem:

* the placement engine reads cell sizes and pin offsets as flat NumPy arrays
  and writes cell locations back;
* the STA engine builds its timing graph from the same arrays plus the
  library timing arcs;
* parsers/writers translate between on-disk formats and this model.

Every finalized design is one thing: a
:class:`repro.netlist.core.DesignCore` (the array-first single source of
truth for floorplan, positions, net weights and topology), its instance and
net name tables, and object views built on first use.  There is one
construction path into that state.  The benchmark generators and
:meth:`repro.netlist.compiled.CompiledDesign.to_design` fill the tables as
arrays and call :meth:`Design.from_core`; the parsers, the examples and the
tests append table rows with ``add_instance`` / ``add_port`` / ``add_net`` /
``connect``, and :meth:`Design.finalize` turns those rows into the same
arrays and adopts the core the same way.  Before ``finalize()`` a design has
only those rows, so every read of its floorplan, positions, counts, views or
core needs ``finalize()`` first.

No ``Instance`` / ``PinRef`` / ``Net`` object exists until code asks for
``instances``, ``nets``, ``pins``, a name lookup or ``pin()``; the first
such access builds all of them at once and caches them.  They are thin
index-backed views: reading or writing ``inst.x`` reads or writes
``core.x[inst.index]``.  Bulk operations (``positions``, ``set_positions``,
``total_hpwl``, pin positions), counts, :meth:`Design.summary` and the name
tables (:attr:`Design.instance_names`, :attr:`Design.net_names`) read the
arrays and never build the views.  Cell positions and net weights remain
mutable after finalization (placement would be pointless otherwise) but the
netlist topology does not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.core import DesignCore, Row
from repro.netlist.library import CellType, Library, LibraryPin, PinDirection
from repro.utils.geometry import Rect

__all__ = [
    "Design",
    "DesignCore",
    "Instance",
    "MultipleDriversError",
    "Net",
    "PinRef",
    "Row",
]

# Cell masters used to model top-level IO ports as zero-area fixed instances.
_PORT_INPUT = CellType("__PORT_IN__", width=0.0, height=0.0)
_PORT_INPUT.add_pin(LibraryPin("o", PinDirection.OUTPUT, capacitance=0.0))
_PORT_OUTPUT = CellType("__PORT_OUT__", width=0.0, height=0.0)
_PORT_OUTPUT.add_pin(LibraryPin("i", PinDirection.INPUT, capacitance=0.01))


def port_cell(direction: PinDirection) -> CellType:
    """Master of a top-level port of ``direction``.

    From the netlist's point of view an *input* port drives a net, so its
    single pin is an output pin (and vice versa).
    """
    return _PORT_INPUT if direction is PinDirection.INPUT else _PORT_OUTPUT


class MultipleDriversError(ValueError):
    """A net with more than one driver pin, rejected when a design is finalized.

    ``net`` is the net's name and ``drivers`` the full names of its driver
    pins in connection order.
    """

    def __init__(self, net: str, drivers: Tuple[str, ...]) -> None:
        super().__init__(net, drivers)
        self.net = net
        self.drivers = drivers

    def __str__(self) -> str:
        return f"Net {self.net} has multiple drivers: {', '.join(self.drivers)}"


class Instance:
    """A placed occurrence of a library cell (or a top-level IO port).

    A view of row ``index`` of the design core: position and fixedness are
    ``core.x[index]`` etc., so per-instance access and bulk array access
    always agree.
    """

    __slots__ = ("name", "cell", "orientation", "index", "is_port", "_core")

    def __init__(
        self,
        name: str,
        cell: CellType,
        index: int,
        core: DesignCore,
        *,
        orientation: str = "N",
        is_port: bool = False,
    ) -> None:
        self.name = name
        self.cell = cell
        self.orientation = orientation
        self.index = index
        self.is_port = is_port
        self._core = core

    @property
    def x(self) -> float:
        return float(self._core.x[self.index])

    @x.setter
    def x(self, value: float) -> None:
        self._core.x[self.index] = value

    @property
    def y(self) -> float:
        return float(self._core.y[self.index])

    @y.setter
    def y(self, value: float) -> None:
        self._core.y[self.index] = value

    @property
    def fixed(self) -> bool:
        return bool(self._core.inst_fixed[self.index])

    @fixed.setter
    def fixed(self, value: bool) -> None:
        raise RuntimeError(
            "Instance fixedness is frozen after finalize() (the movable "
            "mask is part of the design core)"
        )

    @property
    def width(self) -> float:
        return self.cell.width

    @property
    def height(self) -> float:
        return self.cell.height

    @property
    def is_sequential(self) -> bool:
        return self.cell.is_sequential

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "port" if self.is_port else self.cell.name
        return f"Instance({self.name}, {kind}, x={self.x:.1f}, y={self.y:.1f})"


class PinRef:
    """One physical pin of one instance (or port), possibly connected to a net."""

    __slots__ = ("index", "instance", "lib_pin", "net")

    def __init__(self, instance: Instance, lib_pin: LibraryPin) -> None:
        self.index = -1
        self.instance = instance
        self.lib_pin = lib_pin
        self.net: Optional["Net"] = None

    @property
    def name(self) -> str:
        return self.lib_pin.name

    @property
    def full_name(self) -> str:
        if self.instance.is_port:
            return self.instance.name
        return f"{self.instance.name}/{self.lib_pin.name}"

    @property
    def is_driver(self) -> bool:
        """True when this pin drives its net (cell output or input port)."""
        return self.lib_pin.is_output

    @property
    def capacitance(self) -> float:
        return self.lib_pin.capacitance

    def position(self) -> Tuple[float, float]:
        """Current absolute location of the pin."""
        return (
            self.instance.x + self.lib_pin.offset_x,
            self.instance.y + self.lib_pin.offset_y,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PinRef({self.full_name})"


class Net:
    """A signal net connecting one driver pin to zero or more sink pins.

    A view of row ``index`` of the design core: ``weight`` is
    ``core.net_weight[index]``.
    """

    __slots__ = ("name", "index", "pins", "_core")

    def __init__(self, name: str, index: int, core: DesignCore) -> None:
        self.name = name
        self.index = index
        self.pins: List[PinRef] = []
        self._core = core

    @property
    def weight(self) -> float:
        return float(self._core.net_weight[self.index])

    @weight.setter
    def weight(self, value: float) -> None:
        self._core.net_weight[self.index] = value

    @property
    def driver(self) -> Optional[PinRef]:
        for pin in self.pins:
            if pin.is_driver:
                return pin
        return None

    @property
    def sinks(self) -> List[PinRef]:
        return [p for p in self.pins if not p.is_driver]

    def hpwl(self) -> float:
        """Half-perimeter wirelength of the net at current pin positions."""
        if len(self.pins) < 2:
            return 0.0
        xs, ys = zip(*(p.position() for p in self.pins))
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Net({self.name}, degree={len(self.pins)})"


def _check_single_drivers(
    core: DesignCore, instance_names: Sequence[str], net_names: Sequence[str]
) -> None:
    """Reject nets of ``core`` with more than one driver pin, naming them."""
    driven = core.csr_net[core.pin_is_driver[core.net_pin_index]]
    bad = np.flatnonzero(np.bincount(driven, minlength=core.num_nets) > 1)
    if bad.size:
        pins = core.net_pins(int(bad[0]))
        drivers = []
        for pin in pins[core.pin_is_driver[pins]].tolist():
            inst = int(core.pin_instance[pin])
            name = instance_names[inst]
            if not core.inst_is_port[inst]:
                cell = core.cell_types[core.inst_cell_id[inst]]
                name += "/" + list(cell.pins)[pin - core.inst_pin_offsets[inst]]
            drivers.append(name)
        raise MultipleDriversError(net_names[int(bad[0])], tuple(drivers))


class Design:
    """A gate-level design: floorplan, instances, nets, and connectivity."""

    def __init__(
        self,
        name: str,
        *,
        die: Rect | Tuple[float, float, float, float],
        library: Library,
        row_height: float = 12.0,
        site_width: float = 1.0,
    ) -> None:
        self.name = name
        self.library = library
        # The floorplan and the table rows that add_* appends, until
        # finalize() hands them to the core: per instance
        # (master, x, y, fixed, is_port, orientation, first pin row), per net
        # its pin rows in connection order, and the net of every connected pin.
        self._floorplan = (die if isinstance(die, Rect) else Rect(*die), row_height, site_width)
        self._inst_rows: Dict[str, tuple] = {}
        self._net_rows: Dict[str, List[int]] = {}
        self._pin_nets: Dict[int, str] = {}
        self._num_pins = 0
        self._core: Optional[DesignCore] = None
        self._finalized = False

        # Name tables of the finalized design; handed to the views (and
        # emptied) when those are built.
        self._instance_names: Tuple[str, ...] = ()
        self._net_names: Tuple[str, ...] = ()
        self._orientations: Optional[Tuple[str, ...]] = None

        # Object views: None until first use.
        self._instances: Optional[List[Instance]] = None
        self._nets: Optional[List[Net]] = None
        self._pins: Optional[List[PinRef]] = None
        self._instance_by_name: Dict[str, Instance] = {}
        self._net_by_name: Dict[str, Net] = {}
        self._pins_by_instance: Dict[str, Dict[str, PinRef]] = {}

        # Timing constraints are attached by the SDC parser / benchmark
        # generator; kept here so a design file is self-contained.
        self.clock_period: Optional[float] = None
        self.clock_name: str = "clk"
        self.clock_port: Optional[str] = None
        self.input_delays: Dict[str, float] = {}
        self.output_delays: Dict[str, float] = {}
        # Optional MCMM analysis corners (tuple of repro.timing Corner
        # objects, or a preset spec string).  Carried by CompiledDesign
        # snapshots so a rebuilt design keeps the same analysis setup; flows
        # fall back to these when no corners are configured explicitly.
        self.corners: Optional[Tuple[object, ...]] = None

    @classmethod
    def from_core(
        cls,
        core: DesignCore,
        library: Library,
        *,
        instance_names: Tuple[str, ...],
        net_names: Tuple[str, ...],
        orientations: Optional[Tuple[str, ...]] = None,
    ) -> "Design":
        """Wrap an array-built core in a finalized design.

        ``orientations`` is None when every instance is ``"N"``.  The
        object views are built on first use; multi-driver nets are
        rejected here, as :meth:`finalize` rejects them.
        """
        if len(instance_names) != core.num_instances or len(net_names) != core.num_nets:
            raise ValueError(
                f"Design {core.name}: {len(instance_names)} instance / {len(net_names)} "
                f"net names for {core.num_instances} instances / {core.num_nets} nets"
            )
        design = cls(
            core.name,
            die=core.die,
            library=library,
            row_height=core.row_height,
            site_width=core.site_width,
        )
        design._adopt(core, tuple(instance_names), tuple(net_names), orientations)
        return design

    def _adopt(
        self,
        core: DesignCore,
        instance_names: Tuple[str, ...],
        net_names: Tuple[str, ...],
        orientations: Optional[Tuple[str, ...]],
    ) -> None:
        """Make ``core`` and its name tables this design's finalized state."""
        _check_single_drivers(core, instance_names, net_names)
        self._core = core
        self._instance_names = instance_names
        self._net_names = net_names
        self._orientations = orientations
        self._inst_rows, self._net_rows, self._pin_nets = {}, {}, {}
        self._finalized = True

    # ------------------------------------------------------------------
    # Floorplan parameters (held by the core, whose rows cache invalidates
    # itself when the floorplan changes)
    # ------------------------------------------------------------------
    @property
    def die(self) -> Rect:
        return self.core.die

    @die.setter
    def die(self, value: Rect | Tuple[float, float, float, float]) -> None:
        self.core.set_floorplan(die=value)

    @property
    def row_height(self) -> float:
        return self.core.row_height

    @row_height.setter
    def row_height(self, value: float) -> None:
        self.core.set_floorplan(row_height=value)

    @property
    def site_width(self) -> float:
        return self.core.site_width

    @site_width.setter
    def site_width(self, value: float) -> None:
        self.core.set_floorplan(site_width=value)

    # ------------------------------------------------------------------
    # Object views
    # ------------------------------------------------------------------
    @property
    def instances(self) -> List[Instance]:
        self._ensure_views()
        return self._instances

    @property
    def nets(self) -> List[Net]:
        self._ensure_views()
        return self._nets

    @property
    def pins(self) -> List[PinRef]:
        self._ensure_views()
        return self._pins

    @property
    def views_built(self) -> bool:
        """True once the ``Instance`` / ``Net`` / ``PinRef`` objects exist."""
        return self._instances is not None

    def _ensure_views(self) -> None:
        """Create every index-backed view of the finalized design, once."""
        if self._instances is not None:
            return
        core = self.core
        instances: List[Instance] = []
        pins: List[PinRef] = []
        cell_types = core.cell_types
        orientations = self._orientations or ("N",) * core.num_instances
        for index, (name, cell_id, is_port, orientation) in enumerate(
            zip(
                self._instance_names,
                core.inst_cell_id.tolist(),
                core.inst_is_port.tolist(),
                orientations,
            )
        ):
            inst = Instance(
                name, cell_types[cell_id], index, core, orientation=orientation, is_port=is_port
            )
            instances.append(inst)
            self._instance_by_name[name] = inst
            pin_map: Dict[str, PinRef] = {}
            for lib_pin in inst.cell.pins.values():
                pin = PinRef(inst, lib_pin)
                pin.index = len(pins)
                pins.append(pin)
                pin_map[lib_pin.name] = pin
            self._pins_by_instance[name] = pin_map
        nets: List[Net] = []
        pin_index = core.net_pin_index.tolist()
        bounds = core.net_pin_offsets.tolist()
        for index, name in enumerate(self._net_names):
            net = Net(name, index, core)
            net.pins = [pins[p] for p in pin_index[bounds[index]:bounds[index + 1]]]
            for pin in net.pins:
                pin.net = net
            nets.append(net)
            self._net_by_name[name] = net
        self._instances, self._nets, self._pins = instances, nets, pins
        self._instance_names = self._net_names = ()
        self._orientations = None

    # ------------------------------------------------------------------
    # Construction (appends table rows; finalize() builds the core)
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._finalized:
            raise RuntimeError("Design topology is frozen after finalize()")

    def _new_row(self, name: str, rows: dict, kind: str) -> None:
        self._check_mutable()
        if name in rows:
            raise ValueError(f"Duplicate {kind} name {name!r}")

    def _add_row(self, name, cell, x, y, fixed, is_port, orientation) -> str:
        row = (cell, float(x), float(y), bool(fixed), is_port, orientation, self._num_pins)
        self._inst_rows[name] = row
        self._num_pins += len(cell.pins)
        return name

    def add_instance(
        self,
        name: str,
        cell: CellType | str,
        *,
        x: float = 0.0,
        y: float = 0.0,
        fixed: bool = False,
        orientation: str = "N",
    ) -> str:
        """Add an instance of ``cell`` named ``name``; returns ``name``."""
        self._new_row(name, self._inst_rows, "instance")
        master = self.library.cell(cell) if isinstance(cell, str) else cell
        return self._add_row(name, master, x, y, fixed, False, orientation)

    def add_port(
        self,
        name: str,
        direction: PinDirection | str,
        *,
        x: float = 0.0,
        y: float = 0.0,
    ) -> str:
        """Add a top-level IO port, modeled as a fixed zero-area instance."""
        self._new_row(name, self._inst_rows, "instance/port")
        if not isinstance(direction, PinDirection):
            direction = PinDirection.from_string(direction)
        return self._add_row(name, port_cell(direction), x, y, True, True, "N")

    def add_net(self, name: str) -> str:
        """Add an unconnected net named ``name``; returns ``name``."""
        self._new_row(name, self._net_rows, "net")
        self._net_rows[name] = []
        return name

    def connect(self, net: str, instance: str, pin_name: str | None = None) -> str:
        """Attach ``instance``'s pin ``pin_name`` to ``net``; returns the pin's name.

        For ports (single-pin instances) ``pin_name`` may be omitted.  The
        returned ``inst/pin`` name (the port's name for a port) is the one
        :meth:`pin` looks up after :meth:`finalize`.
        """
        self._check_mutable()
        if net not in self._net_rows:
            raise KeyError(f"Design {self.name} has no net {net!r}")
        if instance not in self._inst_rows:
            raise KeyError(f"Design {self.name} has no instance {instance!r}")
        cell, _, _, _, is_port, _, first_pin = self._inst_rows[instance]
        if pin_name is None:
            if len(cell.pins) != 1:
                raise ValueError(f"pin_name required for multi-pin instance {instance}")
            pin_name = next(iter(cell.pins))
        elif pin_name not in cell.pins:
            raise KeyError(f"Instance {instance} ({cell.name}) has no pin {pin_name!r}")
        full_name = instance if is_port else f"{instance}/{pin_name}"
        pin = first_pin + list(cell.pins).index(pin_name)
        if pin in self._pin_nets:
            raise ValueError(f"Pin {full_name} is already connected to {self._pin_nets[pin]}")
        self._pin_nets[pin] = net
        self._net_rows[net].append(pin)
        return full_name

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def instance(self, name: str) -> Instance:
        self._ensure_views()
        try:
            return self._instance_by_name[name]
        except KeyError as exc:
            raise KeyError(f"Design {self.name} has no instance {name!r}") from exc

    def net(self, name: str) -> Net:
        self._ensure_views()
        try:
            return self._net_by_name[name]
        except KeyError as exc:
            raise KeyError(f"Design {self.name} has no net {name!r}") from exc

    def pin(self, instance_name: str, pin_name: str | None = None) -> PinRef:
        """Look up a pin by ``inst`` + ``pin`` names or by ``"inst/pin"``."""
        self._ensure_views()
        if pin_name is None:
            if "/" in instance_name:
                instance_name, pin_name = instance_name.rsplit("/", 1)
            else:
                pin_map = self._pins_by_instance[instance_name]
                if len(pin_map) != 1:
                    raise ValueError(f"Ambiguous pin reference {instance_name!r}")
                return next(iter(pin_map.values()))
        return self._pins_by_instance[instance_name][pin_name]

    def has_instance(self, name: str) -> bool:
        self._ensure_views()
        return name in self._instance_by_name

    @property
    def instance_names(self) -> Tuple[str, ...]:
        """Instance names in index order (never builds the views)."""
        if self._instances is None:
            return self._instance_names
        return tuple(inst.name for inst in self._instances)

    @property
    def net_names(self) -> Tuple[str, ...]:
        """Net names in index order (never builds the views)."""
        if self._nets is None:
            return self._net_names
        return tuple(net.name for net in self._nets)

    @property
    def orientations(self) -> Optional[Tuple[str, ...]]:
        """Instance orientations in index order; None when all are ``"N"``."""
        if self._instances is None:
            return self._orientations
        orientations = tuple(inst.orientation for inst in self._instances)
        return None if all(o == "N" for o in orientations) else orientations

    @property
    def ports(self) -> List[Instance]:
        return [i for i in self.instances if i.is_port]

    @property
    def cells(self) -> List[Instance]:
        """All non-port instances."""
        return [i for i in self.instances if not i.is_port]

    @property
    def num_instances(self) -> int:
        return self.core.num_instances

    @property
    def num_nets(self) -> int:
        return self.core.num_nets

    @property
    def num_pins(self) -> int:
        return self.core.num_pins

    # ------------------------------------------------------------------
    # Finalization and the array core
    # ------------------------------------------------------------------
    def finalize(self) -> "Design":
        """Validate connectivity, freeze the topology, and build the core.

        The appended rows become a :class:`DesignCore` through
        :meth:`DesignCore.from_tables`, adopted exactly as
        :meth:`from_core` adopts one.  A multi-driver net raises
        :class:`MultipleDriversError` and leaves the design unfinalized.
        """
        if self._finalized:
            return self
        columns = tuple(zip(*self._inst_rows.values())) or ((),) * 7
        cells, x, y, fixed, is_port, orientations, _ = columns
        cell_types = tuple({id(cell): cell for cell in cells}.values())
        cell_id = {id(cell): index for index, cell in enumerate(cell_types)}
        nets = self._net_rows.values()
        die, row_height, site_width = self._floorplan
        core = DesignCore.from_tables(
            name=self.name,
            die=die,
            row_height=row_height,
            site_width=site_width,
            wire_resistance_per_unit=self.library.wire_resistance_per_unit,
            wire_capacitance_per_unit=self.library.wire_capacitance_per_unit,
            cell_types=cell_types,
            inst_cell_id=np.array([cell_id[id(cell)] for cell in cells], dtype=np.int64),
            x=np.array(x, dtype=np.float64),
            y=np.array(y, dtype=np.float64),
            inst_fixed=np.array(fixed, dtype=bool),
            inst_is_port=np.array(is_port, dtype=bool),
            net_pin_offsets=np.cumsum([0] + [len(pins) for pins in nets], dtype=np.int64),
            net_pin_index=np.array([pin for pins in nets for pin in pins], dtype=np.int64),
            net_weight=np.ones(len(nets), dtype=np.float64),
        )
        all_north = all(o == "N" for o in orientations)
        self._adopt(
            core,
            tuple(self._inst_rows),
            tuple(self._net_rows),
            None if all_north else orientations,
        )
        return self

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def core(self) -> DesignCore:
        """The array-first design core (requires ``finalize()``)."""
        if not self._finalized:
            raise RuntimeError("Design must be finalized before accessing the core")
        return self._core

    @property
    def arrays(self) -> DesignCore:
        """Alias of :attr:`core`."""
        return self.core

    def positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return instance lower-left coordinates as two float arrays."""
        return self.core.positions()

    def set_positions(self, x: Sequence[float], y: Sequence[float]) -> None:
        """Write instance positions back from flat arrays (fixed cells kept)."""
        self.core.set_positions(x, y)

    def pin_positions(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Absolute pin coordinates for instance positions ``(x, y)``.

        When ``x``/``y`` are omitted the core's stored positions are used.
        """
        return self.core.pin_positions(x, y)

    # ------------------------------------------------------------------
    # Floorplan helpers
    # ------------------------------------------------------------------
    def rows(self) -> List[Row]:
        """Placement rows filling the die from bottom to top.

        Cached on the core; the cache invalidates itself when the floorplan
        (die, row height, site width) changes.
        """
        return self.core.rows()

    def utilization(self) -> float:
        """Total movable + fixed cell area divided by die area."""
        return self.core.utilization()

    def total_hpwl(self) -> float:
        """Half-perimeter wirelength summed over all nets at current positions."""
        return self.core.total_hpwl()

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Compact description used in logs and experiment reports."""
        core = self.core
        is_cell = ~core.inst_is_port
        num_cells = int(is_cell.sum())
        return {
            "name": self.name,
            "num_instances": self.num_instances,
            "num_cells": num_cells,
            "num_ports": self.num_instances - num_cells,
            "num_nets": self.num_nets,
            "num_pins": self.num_pins,
            "num_sequential": int((core.inst_is_sequential & is_cell).sum()),
            "die_width": self.die.width,
            "die_height": self.die.height,
            "utilization": round(self.utilization(), 4),
            "clock_period": self.clock_period,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._finalized:
            return f"Design({self.name}, not finalized)"
        return (
            f"Design({self.name}, instances={self.num_instances}, nets={self.num_nets}, "
            f"pins={self.num_pins})"
        )
