"""Lightweight parsers for the simplified physical-design file formats.

These parsers accept the subset of each format that the library's own
writers emit (plus a little slack for hand-written fixtures).  They are not
full industrial parsers — the goal is that a design can be dumped to text,
inspected, edited, and read back, mirroring the LEF/DEF/.v/.lib/.sdc flow in
Fig. 1 of the paper.  Each parser takes text; :func:`parse_sdc_file` is the
one file entry point.  DEF, Verilog and SDC reject a malformed or
inconsistent statement with a :class:`ParseError` naming its line.
"""

from repro.netlist.parsers.errors import ParseError
from repro.netlist.parsers.lef import parse_lef
from repro.netlist.parsers.liberty import parse_liberty
from repro.netlist.parsers.def_ import parse_def
from repro.netlist.parsers.verilog import parse_verilog
from repro.netlist.parsers.sdc import parse_sdc, parse_sdc_file, apply_sdc

__all__ = [
    "ParseError",
    "parse_lef",
    "parse_liberty",
    "parse_def",
    "parse_verilog",
    "parse_sdc",
    "parse_sdc_file",
    "apply_sdc",
]
