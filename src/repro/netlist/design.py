"""Flat gate-level design (netlist + floorplan + placement state).

The :class:`Design` is the central data structure shared by every other
subsystem:

* the placement engine reads cell sizes and pin offsets as flat NumPy arrays
  and writes cell locations back;
* the STA engine builds its timing graph from the same arrays plus the
  library timing arcs;
* parsers/writers translate between on-disk formats and this model.

The :class:`repro.netlist.core.DesignCore` is the array-first single source
of truth.  A design gets one in either of two ways:

* **incrementally** (parsers, tests): ``add_instance`` / ``add_net`` /
  ``connect`` build the object graph, and :meth:`Design.finalize` validates
  connectivity, freezes the topology and collects the core from it;
* **from arrays** (the benchmark generators and
  :meth:`repro.netlist.compiled.CompiledDesign.to_design`):
  :meth:`Design.from_core` wraps a ready core plus its name tables.  No
  ``Instance`` / ``PinRef`` / ``Net`` object exists until code asks for
  ``instances``, ``nets``, ``pins``, a name lookup or ``pin()``; the first
  such access builds all of them at once and caches them.

Either way, after finalization ``Instance``/``PinRef``/``Net`` are thin
index-backed views: reading or writing ``inst.x`` reads or writes
``core.x[inst.index]``, so bulk operations (``positions``, ``set_positions``,
``total_hpwl``, pin positions) are O(1) views or single vectorized kernels
with no per-object Python loops.  Counts, :meth:`Design.summary` and the
name tables (:attr:`Design.instance_names`, :attr:`Design.net_names`) read
the arrays and never build the views.  Cell positions remain
mutable after finalization (placement would be pointless otherwise) but the
netlist topology does not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.core import DesignCore, Row, build_rows
from repro.netlist.library import CellType, Library, LibraryPin, PinDirection
from repro.utils.geometry import Rect

__all__ = [
    "Design",
    "DesignCore",
    "Instance",
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


class Instance:
    """A placed occurrence of a library cell (or a top-level IO port).

    Before finalize, position and fixedness live on the instance; afterwards
    they are views into the design core's arrays (``core.x[index]`` etc.), so
    per-instance access and bulk array access always agree.
    """

    __slots__ = ("name", "cell", "orientation", "index", "is_port", "_x", "_y", "_fixed", "_core")

    def __init__(
        self,
        name: str,
        cell: CellType,
        *,
        x: float = 0.0,
        y: float = 0.0,
        fixed: bool = False,
        orientation: str = "N",
        is_port: bool = False,
    ) -> None:
        self.name = name
        self.cell = cell
        self._x = float(x)
        self._y = float(y)
        self._fixed = bool(fixed)
        self.orientation = orientation
        self.index = -1
        self.is_port = is_port
        self._core: Optional[DesignCore] = None

    @property
    def x(self) -> float:
        core = self._core
        return float(core.x[self.index]) if core is not None else self._x

    @x.setter
    def x(self, value: float) -> None:
        core = self._core
        if core is not None:
            core.x[self.index] = value
        else:
            self._x = float(value)

    @property
    def y(self) -> float:
        core = self._core
        return float(core.y[self.index]) if core is not None else self._y

    @y.setter
    def y(self, value: float) -> None:
        core = self._core
        if core is not None:
            core.y[self.index] = value
        else:
            self._y = float(value)

    @property
    def fixed(self) -> bool:
        core = self._core
        return bool(core.inst_fixed[self.index]) if core is not None else self._fixed

    @fixed.setter
    def fixed(self, value: bool) -> None:
        if self._core is not None:
            raise RuntimeError(
                "Instance fixedness is frozen after finalize() (the movable "
                "mask is part of the design core)"
            )
        self._fixed = bool(value)

    @property
    def width(self) -> float:
        return self.cell.width

    @property
    def height(self) -> float:
        return self.cell.height

    @property
    def area(self) -> float:
        return self.cell.area

    @property
    def is_sequential(self) -> bool:
        return self.cell.is_sequential

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + 0.5 * self.width, self.y + 0.5 * self.height)

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
    def direction(self) -> PinDirection:
        return self.lib_pin.direction

    @property
    def is_driver(self) -> bool:
        """True when this pin drives its net (cell output or input port)."""
        return self.lib_pin.is_output

    @property
    def capacitance(self) -> float:
        return self.lib_pin.capacitance

    @property
    def offset(self) -> Tuple[float, float]:
        return (self.lib_pin.offset_x, self.lib_pin.offset_y)

    def position(self) -> Tuple[float, float]:
        """Current absolute location of the pin."""
        return (
            self.instance.x + self.lib_pin.offset_x,
            self.instance.y + self.lib_pin.offset_y,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PinRef({self.full_name})"


class Net:
    """A signal net connecting one driver pin to zero or more sink pins."""

    __slots__ = ("name", "index", "pins", "_weight", "_core")

    def __init__(self, name: str) -> None:
        self.name = name
        self.index = -1
        self.pins: List[PinRef] = []
        self._weight = 1.0
        self._core: Optional[DesignCore] = None

    @property
    def weight(self) -> float:
        core = self._core
        return float(core.net_weight[self.index]) if core is not None else self._weight

    @weight.setter
    def weight(self, value: float) -> None:
        core = self._core
        if core is not None:
            core.net_weight[self.index] = value
        else:
            self._weight = float(value)

    @property
    def driver(self) -> Optional[PinRef]:
        for pin in self.pins:
            if pin.is_driver:
                return pin
        return None

    @property
    def sinks(self) -> List[PinRef]:
        return [p for p in self.pins if not p.is_driver]

    @property
    def degree(self) -> int:
        return len(self.pins)

    def hpwl(self) -> float:
        """Half-perimeter wirelength of the net at current pin positions."""
        if len(self.pins) < 2:
            return 0.0
        xs, ys = zip(*(p.position() for p in self.pins))
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Net({self.name}, degree={self.degree})"


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
        self._die = die if isinstance(die, Rect) else Rect(*die)
        self.library = library
        self._row_height = float(row_height)
        self._site_width = float(site_width)

        # Object views.  None on an array-built design until first use; the
        # name tables below then hold the names (see from_core).
        self._instances: Optional[List[Instance]] = []
        self._nets: Optional[List[Net]] = []
        self._pins: Optional[List[PinRef]] = []
        self._instance_names: Tuple[str, ...] = ()
        self._net_names: Tuple[str, ...] = ()
        self._orientations: Optional[Tuple[str, ...]] = None

        self._instance_by_name: Dict[str, Instance] = {}
        self._net_by_name: Dict[str, Net] = {}
        self._pins_by_instance: Dict[str, Dict[str, PinRef]] = {}
        self._finalized = False
        self._core: Optional[DesignCore] = None

        # Timing constraints are attached by the SDC parser / benchmark
        # generator; kept here so a design file is self-contained.
        self.clock_period: Optional[float] = None
        self.clock_name: str = "clk"
        self.clock_port: Optional[str] = None
        self.input_delays: Dict[str, float] = {}
        self.output_delays: Dict[str, float] = {}
        # Optional MCMM analysis corners (tuple of repro.timing Corner
        # objects, or a preset spec string).  Carried by CompiledDesign
        # snapshots so batch workers rebuild the same analysis setup; flows
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
        design._instances = design._nets = design._pins = None
        design._instance_names = tuple(instance_names)
        design._net_names = tuple(net_names)
        design._orientations = orientations
        design._core = core
        design._check_single_drivers(core)
        design._finalized = True
        return design

    # ------------------------------------------------------------------
    # Floorplan parameters (synced to the core so its rows cache can
    # invalidate itself when the floorplan changes)
    # ------------------------------------------------------------------
    @property
    def die(self) -> Rect:
        return self._die

    @die.setter
    def die(self, value: Rect | Tuple[float, float, float, float]) -> None:
        self._die = value if isinstance(value, Rect) else Rect(*value)
        if self._core is not None:
            self._core.set_floorplan(die=self._die)

    @property
    def row_height(self) -> float:
        return self._row_height

    @row_height.setter
    def row_height(self, value: float) -> None:
        self._row_height = float(value)
        if self._core is not None:
            self._core.set_floorplan(row_height=self._row_height)

    @property
    def site_width(self) -> float:
        return self._site_width

    @site_width.setter
    def site_width(self, value: float) -> None:
        self._site_width = float(value)
        if self._core is not None:
            self._core.set_floorplan(site_width=self._site_width)

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
        """Create every index-backed view of an array-built design, once."""
        if self._instances is not None:
            return
        core = self._core
        self._instances, self._nets, self._pins = [], [], []
        cell_types = core.cell_types
        orientations = self._orientations or ("N",) * core.num_instances
        for name, cell_id, is_port, orientation in zip(
            self._instance_names,
            core.inst_cell_id.tolist(),
            core.inst_is_port.tolist(),
            orientations,
        ):
            inst = Instance(name, cell_types[cell_id], orientation=orientation, is_port=is_port)
            inst._core = core
            self._register_instance(inst)
        pins = self._pins
        pin_index = core.net_pin_index.tolist()
        bounds = core.net_pin_offsets.tolist()
        for index, name in enumerate(self._net_names):
            net = Net(name)
            net.index = index
            net._core = core
            net.pins = [pins[p] for p in pin_index[bounds[index]:bounds[index + 1]]]
            for pin in net.pins:
                pin.net = net
            self._nets.append(net)
            self._net_by_name[name] = net
        self._instance_names = self._net_names = ()
        self._orientations = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._finalized:
            raise RuntimeError("Design topology is frozen after finalize()")

    def add_instance(
        self,
        name: str,
        cell: CellType | str,
        *,
        x: float = 0.0,
        y: float = 0.0,
        fixed: bool = False,
        orientation: str = "N",
    ) -> Instance:
        """Create an instance of ``cell`` named ``name``."""
        self._check_mutable()
        if name in self._instance_by_name:
            raise ValueError(f"Duplicate instance name {name!r}")
        master = self.library.cell(cell) if isinstance(cell, str) else cell
        inst = Instance(name, master, x=x, y=y, fixed=fixed, orientation=orientation)
        self._register_instance(inst)
        return inst

    def add_port(
        self,
        name: str,
        direction: PinDirection | str,
        *,
        x: float = 0.0,
        y: float = 0.0,
    ) -> Instance:
        """Create a top-level IO port, modeled as a fixed zero-area instance."""
        self._check_mutable()
        if name in self._instance_by_name:
            raise ValueError(f"Duplicate instance/port name {name!r}")
        direction = (
            direction
            if isinstance(direction, PinDirection)
            else PinDirection.from_string(direction)
        )
        inst = Instance(name, port_cell(direction), x=x, y=y, fixed=True, is_port=True)
        self._register_instance(inst)
        return inst

    def _register_instance(self, inst: Instance) -> None:
        inst.index = len(self._instances)
        self._instances.append(inst)
        self._instance_by_name[inst.name] = inst
        pin_map: Dict[str, PinRef] = {}
        for lib_pin in inst.cell.pins.values():
            pin = PinRef(inst, lib_pin)
            pin.index = len(self._pins)
            self._pins.append(pin)
            pin_map[lib_pin.name] = pin
        self._pins_by_instance[inst.name] = pin_map

    def add_net(self, name: str) -> Net:
        self._check_mutable()
        if name in self._net_by_name:
            raise ValueError(f"Duplicate net name {name!r}")
        net = Net(name)
        net.index = len(self._nets)
        self._nets.append(net)
        self._net_by_name[name] = net
        return net

    def connect(self, net: Net | str, instance: Instance | str, pin_name: str | None = None) -> PinRef:
        """Attach ``instance``'s pin ``pin_name`` to ``net``.

        For ports (single-pin instances) ``pin_name`` may be omitted.
        """
        self._check_mutable()
        net_obj = self._net_by_name[net] if isinstance(net, str) else net
        inst_obj = (
            self._instance_by_name[instance] if isinstance(instance, str) else instance
        )
        pin_map = self._pins_by_instance[inst_obj.name]
        if pin_name is None:
            if len(pin_map) != 1:
                raise ValueError(
                    f"pin_name required for multi-pin instance {inst_obj.name}"
                )
            pin = next(iter(pin_map.values()))
        else:
            try:
                pin = pin_map[pin_name]
            except KeyError as exc:
                raise KeyError(
                    f"Instance {inst_obj.name} ({inst_obj.cell.name}) has no pin {pin_name!r}"
                ) from exc
        if pin.net is not None:
            raise ValueError(f"Pin {pin.full_name} is already connected to {pin.net.name}")
        pin.net = net_obj
        net_obj.pins.append(pin)
        return pin

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

    def has_net(self, name: str) -> bool:
        self._ensure_views()
        return name in self._net_by_name

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
    def movable_instances(self) -> List[Instance]:
        return [i for i in self.instances if not i.fixed]

    @property
    def num_instances(self) -> int:
        return self._core.num_instances if self._core is not None else len(self._instances)

    @property
    def num_movable(self) -> int:
        if self._core is not None:
            return int(self._core.movable_index.size)
        return sum(1 for i in self._instances if not i.fixed)

    @property
    def num_nets(self) -> int:
        return self._core.num_nets if self._core is not None else len(self._nets)

    @property
    def num_pins(self) -> int:
        return self._core.num_pins if self._core is not None else len(self._pins)

    # ------------------------------------------------------------------
    # Finalization and the array core
    # ------------------------------------------------------------------
    def finalize(self) -> "Design":
        """Validate connectivity, freeze the topology, and build the core.

        After this call the NumPy arrays in :attr:`core` are the single
        source of truth for positions and net weights; the Python objects
        become index-backed views onto them.
        """
        if self._finalized:
            return self
        core = DesignCore.from_design(self)
        self._check_single_drivers(core)
        self._core = core
        self._finalized = True
        # Flip the objects into view mode (one-time pass at finalize).
        for inst in self._instances:
            inst._core = core
        for net in self._nets:
            net._core = core
        return self

    def _check_single_drivers(self, core: DesignCore) -> None:
        """Reject nets of ``core`` with more than one driver pin."""
        driven = core.csr_net[core.pin_is_driver[core.net_pin_index]]
        bad = np.flatnonzero(np.bincount(driven, minlength=core.num_nets) > 1)
        if bad.size:
            self._ensure_views()  # error path: name the pins through the views
            net = self._nets[int(bad[0])]
            names = ", ".join(p.full_name for p in net.pins if p.is_driver)
            raise ValueError(f"Net {net.name} has multiple drivers: {names}")

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def core(self) -> DesignCore:
        """The array-first design core (requires ``finalize()``)."""
        if not self._finalized or self._core is None:
            raise RuntimeError("Design must be finalized before accessing the core")
        return self._core

    @property
    def arrays(self) -> DesignCore:
        """Alias of :attr:`core`."""
        return self.core

    def positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return instance lower-left coordinates as two float arrays."""
        if self._core is not None:
            return self._core.positions()
        x = np.array([i.x for i in self._instances], dtype=np.float64)
        y = np.array([i.y for i in self._instances], dtype=np.float64)
        return x, y

    def set_positions(self, x: Sequence[float], y: Sequence[float]) -> None:
        """Write instance positions back from flat arrays (fixed cells kept)."""
        if self._core is not None:
            self._core.set_positions(
                np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
            )
            return
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != (len(self._instances),) or y.shape != (len(self._instances),):
            raise ValueError("Position arrays must have one entry per instance")
        for inst, xi, yi in zip(self._instances, x, y):
            if not inst.fixed:
                inst.x = float(xi)
                inst.y = float(yi)

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

        Cached on the core after finalize; the cache invalidates itself when
        the floorplan (die, row height, site width) changes.
        """
        if self._core is not None:
            return self._core.rows()
        return build_rows(self._die, self._row_height, self._site_width)

    def utilization(self) -> float:
        """Total movable + fixed cell area divided by die area."""
        if self._core is not None:
            return self._core.utilization()
        total_area = sum(i.area for i in self._instances if not i.is_port)
        return total_area / self._die.area if self._die.area > 0 else 0.0

    def total_hpwl(self) -> float:
        """Half-perimeter wirelength summed over all nets at current positions."""
        if self._core is not None:
            return self._core.total_hpwl()
        return sum(net.hpwl() for net in self._nets)

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
        return (
            f"Design({self.name}, instances={self.num_instances}, nets={self.num_nets}, "
            f"pins={self.num_pins})"
        )
