"""Circuit data model and file I/O.

Public API:

* :class:`Library`, :class:`CellType`, :class:`LibraryPin`, :class:`PinDirection`,
  :class:`TimingArcSpec` — standard-cell library model.
* :class:`Design`, :class:`Instance`, :class:`Net`, :class:`PinRef`, :class:`Row` —
  flat gate-level design with floorplan and placement state.
* :class:`DesignCore` — the array-first core every compute layer reads.
  Every design builds it through :meth:`DesignCore.from_tables`, from
  arrays (:meth:`Design.from_core`) or from the rows ``Design.add_*``
  appends (:meth:`Design.finalize`); ``Instance``/``Net`` are index-backed
  views onto it, created on first use.
* :class:`CompiledDesign` / :func:`compile_design` — frozen, array-only
  snapshots: a design's fingerprint, and the tables generators build from.
* :func:`make_generic_library` — small generic library used by the synthetic
  benchmarks and tests.
* Parsers/writers for simplified LEF/DEF/Verilog/Liberty/SDC views live in
  :mod:`repro.netlist.parsers` and :mod:`repro.netlist.writers`.
"""

from repro.netlist.library import (
    CellType,
    Library,
    LibraryPin,
    PinDirection,
    TimingArcSpec,
    make_generic_library,
)
from repro.netlist.core import DesignCore, Row, as_core
from repro.netlist.design import Design, Instance, Net, PinRef
from repro.netlist.compiled import CompiledDesign, compile_design

__all__ = [
    "CellType",
    "Library",
    "LibraryPin",
    "PinDirection",
    "TimingArcSpec",
    "make_generic_library",
    "Design",
    "DesignCore",
    "as_core",
    "CompiledDesign",
    "compile_design",
    "Instance",
    "Net",
    "PinRef",
    "Row",
]
