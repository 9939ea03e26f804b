"""Standard-cell library model.

A :class:`Library` is a collection of :class:`CellType` masters (the LEF/Liberty
view of a cell): physical size, pin geometry, pin direction and capacitance,
and a per-arc delay model description.  Instances in a :class:`repro.netlist.Design`
reference these masters by name.

The delay information stored here intentionally mirrors a (heavily simplified)
Liberty non-linear delay model: each input->output timing arc carries either a
linear ``intrinsic + slope * load`` characterization, or a small lookup table
over load capacitance.  The STA engine in :mod:`repro.timing` consumes either
form through :class:`repro.timing.delay_model.CellDelayModel`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class PinDirection(enum.Enum):
    """Signal direction of a library pin."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"

    @classmethod
    def from_string(cls, text: str) -> "PinDirection":
        normalized = text.strip().lower()
        for member in cls:
            if member.value == normalized:
                return member
        # LEF/Liberty spellings
        aliases = {"in": cls.INPUT, "out": cls.OUTPUT, "output tristate": cls.OUTPUT}
        if normalized in aliases:
            return aliases[normalized]
        raise ValueError(f"Unknown pin direction: {text!r}")


@dataclass(frozen=True)
class TimingArcSpec:
    """Delay characterization of one input->output arc of a cell.

    ``intrinsic`` is the load-independent delay and ``load_slope`` the delay
    per unit of driven capacitance (both in the library's time unit,
    conventionally picoseconds here).  When ``load_table`` is provided it
    overrides the linear model: it is a sequence of ``(load_cap, delay)``
    breakpoints interpolated piecewise-linearly by the STA engine.
    """

    from_pin: str
    to_pin: str
    intrinsic: float = 0.0
    load_slope: float = 0.0
    load_table: Optional[Tuple[Tuple[float, float], ...]] = None
    is_clock_to_q: bool = False

    def delay(self, load_cap: float) -> float:
        """Evaluate the arc delay for a given driven capacitance."""
        if self.load_table:
            return _interpolate(self.load_table, load_cap)
        return self.intrinsic + self.load_slope * load_cap


def _interpolate(table: Sequence[Tuple[float, float]], x: float) -> float:
    """Piecewise-linear interpolation with flat extrapolation slopes at the ends."""
    if not table:
        raise ValueError("Empty lookup table")
    points = sorted(table)
    if len(points) == 1:
        return points[0][1]
    if x <= points[0][0]:
        lo, hi = points[0], points[1]
    elif x >= points[-1][0]:
        lo, hi = points[-2], points[-1]
    else:
        lo = points[0]
        hi = points[-1]
        for i in range(1, len(points)):
            if x <= points[i][0]:
                lo, hi = points[i - 1], points[i]
                break
    x0, y0 = lo
    x1, y1 = hi
    if x1 == x0:
        return y0
    t = (x - x0) / (x1 - x0)
    return y0 + t * (y1 - y0)


@dataclass(frozen=True)
class LibraryPin:
    """A pin on a cell master."""

    name: str
    direction: PinDirection
    capacitance: float = 0.0
    offset_x: float = 0.0
    offset_y: float = 0.0
    is_clock: bool = False

    @property
    def is_input(self) -> bool:
        return self.direction is PinDirection.INPUT

    @property
    def is_output(self) -> bool:
        return self.direction is PinDirection.OUTPUT


@dataclass
class CellType:
    """A standard-cell master: physical footprint plus timing arcs."""

    name: str
    width: float
    height: float
    pins: Dict[str, LibraryPin] = field(default_factory=dict)
    arcs: List[TimingArcSpec] = field(default_factory=list)
    is_sequential: bool = False
    is_macro: bool = False

    def add_pin(self, pin: LibraryPin) -> None:
        if pin.name in self.pins:
            raise ValueError(f"Cell {self.name} already has pin {pin.name}")
        self.pins[pin.name] = pin

    def add_arc(self, arc: TimingArcSpec) -> None:
        if arc.from_pin not in self.pins:
            raise ValueError(f"Arc references unknown pin {arc.from_pin} on {self.name}")
        if arc.to_pin not in self.pins:
            raise ValueError(f"Arc references unknown pin {arc.to_pin} on {self.name}")
        self.arcs.append(arc)

    def pin(self, name: str) -> LibraryPin:
        try:
            return self.pins[name]
        except KeyError as exc:
            raise KeyError(f"Cell {self.name} has no pin {name!r}") from exc

    @property
    def input_pins(self) -> List[LibraryPin]:
        return [p for p in self.pins.values() if p.is_input]

    @property
    def output_pins(self) -> List[LibraryPin]:
        return [p for p in self.pins.values() if p.is_output]

    @property
    def area(self) -> float:
        return self.width * self.height


class Library:
    """A named collection of :class:`CellType` masters."""

    def __init__(self, name: str = "library") -> None:
        self.name = name
        self._cells: Dict[str, CellType] = {}
        # Default RC characteristics of routing wire, used to build RC trees.
        self.wire_resistance_per_unit: float = 1.0e-3
        self.wire_capacitance_per_unit: float = 2.0e-4

    def add_cell(self, cell: CellType) -> CellType:
        if cell.name in self._cells:
            raise ValueError(f"Library already contains cell {cell.name}")
        self._cells[cell.name] = cell
        return cell

    def cell(self, name: str) -> CellType:
        try:
            return self._cells[name]
        except KeyError as exc:
            raise KeyError(f"Library {self.name} has no cell {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterator[CellType]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cell_names(self) -> List[str]:
        return list(self._cells.keys())

    def merge(self, other: "Library", *, overwrite: bool = False) -> None:
        """Add all cells of ``other`` into this library."""
        for cell in other:
            if cell.name in self._cells:
                if not overwrite:
                    raise ValueError(f"Duplicate cell {cell.name} while merging")
                self._cells[cell.name] = cell
            else:
                self._cells[cell.name] = cell


def make_generic_library(
    *,
    row_height: float = 12.0,
    site_width: float = 1.0,
    name: str = "generic",
) -> Library:
    """Build a small generic standard-cell library.

    The library contains the masters used by the synthetic benchmark
    generator and the unit tests: an inverter, 2-input NAND/NOR/AND/OR/XOR,
    a buffer in three drive strengths, a 2:1 mux, and a D flip-flop.  Delay
    numbers are loosely modeled on a generic 45nm-class library with
    picosecond delays and femtofarad-scale pin capacitances, which is enough
    to give the RC-dominated behaviour the paper's quadratic loss relies on.
    """

    lib = Library(name)
    lib.wire_resistance_per_unit = 2.0e-3   # ohm per DBU
    lib.wire_capacitance_per_unit = 1.6e-4  # pF per DBU

    def combinational(
        cell_name: str,
        n_inputs: int,
        width_sites: float,
        intrinsic: float,
        slope: float,
        input_cap: float,
    ) -> CellType:
        cell = CellType(cell_name, width=width_sites * site_width, height=row_height)
        input_names = [chr(ord("a") + i) for i in range(n_inputs)]
        for i, pin_name in enumerate(input_names):
            cell.add_pin(
                LibraryPin(
                    pin_name,
                    PinDirection.INPUT,
                    capacitance=input_cap,
                    offset_x=cell.width * (i + 1) / (n_inputs + 2),
                    offset_y=row_height * 0.25,
                )
            )
        cell.add_pin(
            LibraryPin(
                "o",
                PinDirection.OUTPUT,
                capacitance=0.0,
                offset_x=cell.width * (n_inputs + 1) / (n_inputs + 2),
                offset_y=row_height * 0.75,
            )
        )
        for pin_name in input_names:
            cell.add_arc(
                TimingArcSpec(pin_name, "o", intrinsic=intrinsic, load_slope=slope)
            )
        return lib.add_cell(cell)

    combinational("INV_X1", 1, 2, intrinsic=10.0, slope=350.0, input_cap=0.0015)
    combinational("INV_X2", 1, 3, intrinsic=9.0, slope=180.0, input_cap=0.0028)
    combinational("BUF_X1", 1, 3, intrinsic=18.0, slope=340.0, input_cap=0.0016)
    combinational("BUF_X2", 1, 4, intrinsic=16.0, slope=175.0, input_cap=0.0030)
    combinational("BUF_X4", 1, 6, intrinsic=15.0, slope=95.0, input_cap=0.0058)
    combinational("NAND2_X1", 2, 3, intrinsic=14.0, slope=380.0, input_cap=0.0017)
    combinational("NOR2_X1", 2, 3, intrinsic=16.0, slope=420.0, input_cap=0.0017)
    combinational("AND2_X1", 2, 4, intrinsic=22.0, slope=360.0, input_cap=0.0016)
    combinational("OR2_X1", 2, 4, intrinsic=23.0, slope=370.0, input_cap=0.0016)
    combinational("XOR2_X1", 2, 5, intrinsic=30.0, slope=430.0, input_cap=0.0021)
    combinational("MUX2_X1", 3, 6, intrinsic=28.0, slope=400.0, input_cap=0.0019)

    # D flip-flop: clock -> q launch arc, d is captured (no combinational arc).
    dff = CellType("DFF_X1", width=10 * site_width, height=row_height, is_sequential=True)
    dff.add_pin(LibraryPin("d", PinDirection.INPUT, capacitance=0.0018,
                           offset_x=1.0 * site_width, offset_y=row_height * 0.3))
    dff.add_pin(LibraryPin("ck", PinDirection.INPUT, capacitance=0.0012, is_clock=True,
                           offset_x=2.0 * site_width, offset_y=row_height * 0.7))
    dff.add_pin(LibraryPin("q", PinDirection.OUTPUT, capacitance=0.0,
                           offset_x=8.0 * site_width, offset_y=row_height * 0.5))
    dff.add_arc(TimingArcSpec("ck", "q", intrinsic=55.0, load_slope=300.0,
                              is_clock_to_q=True))
    lib.add_cell(dff)

    return lib
