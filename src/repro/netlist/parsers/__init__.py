"""Lightweight parsers for the simplified physical-design file formats.

These parsers accept the subset of each format that the library's own
writers emit (plus a little slack for hand-written fixtures).  They are not
full industrial parsers — the goal is that a design can be dumped to disk,
inspected, edited, and read back, mirroring the LEF/DEF/.v/.lib/.sdc flow in
Fig. 1 of the paper.
"""

from repro.netlist.parsers.errors import ParseError
from repro.netlist.parsers.lef import parse_lef, parse_lef_file
from repro.netlist.parsers.liberty import parse_liberty, parse_liberty_file
from repro.netlist.parsers.def_ import parse_def, parse_def_file
from repro.netlist.parsers.verilog import parse_verilog, parse_verilog_file
from repro.netlist.parsers.sdc import parse_sdc, parse_sdc_file, apply_sdc
from repro.netlist.parsers.bookshelf import parse_bookshelf_pl, parse_bookshelf_nodes

__all__ = [
    "ParseError",
    "parse_lef",
    "parse_lef_file",
    "parse_liberty",
    "parse_liberty_file",
    "parse_def",
    "parse_def_file",
    "parse_verilog",
    "parse_verilog_file",
    "parse_sdc",
    "parse_sdc_file",
    "apply_sdc",
    "parse_bookshelf_pl",
    "parse_bookshelf_nodes",
]
