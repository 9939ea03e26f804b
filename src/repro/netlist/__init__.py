"""Circuit data model and file I/O.

Public API:

* :class:`Library`, :class:`CellType`, :class:`LibraryPin`, :class:`PinDirection`,
  :class:`TimingArcSpec` — standard-cell library model.
* :class:`Design`, :class:`Instance`, :class:`Net`, :class:`PinRef`, :class:`Row` —
  flat gate-level design with floorplan and placement state.
* :class:`DesignCore` — the array-first core every compute layer reads
  (``Instance``/``Net`` are index-backed views onto it after ``finalize()``;
  on array-built designs they are created on first use).
* :class:`CompiledDesign` / :func:`compile_design` — frozen, picklable,
  array-only snapshots for shipping designs across processes (with an
  opt-in :class:`SharedDesignPack` shared-memory transport).
* :func:`make_generic_library` — small generic library used by the synthetic
  benchmarks and tests.
* Parsers/writers for simplified LEF/DEF/Verilog/Liberty/SDC/Bookshelf views
  live in :mod:`repro.netlist.parsers` and :mod:`repro.netlist.writers`.
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
from repro.netlist.compiled import (
    CompiledDesign,
    SharedDesignHandle,
    SharedDesignPack,
    compile_design,
)

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
    "SharedDesignHandle",
    "SharedDesignPack",
    "compile_design",
    "Instance",
    "Net",
    "PinRef",
    "Row",
]
