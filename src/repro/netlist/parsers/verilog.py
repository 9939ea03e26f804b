"""Structural (gate-level) Verilog parser.

Supported subset::

    module top (a, b, y);
      input a, b;
      output y;
      wire n1, n2;

      NAND2_X1 u1 (.a(a), .b(b), .o(n1));
      INV_X1   u2 (.a(n1), .o(y));
    endmodule

Only named port connections are supported for instances (the style the
library's own Verilog writer produces).  The parser returns an *unplaced*
:class:`Design`: ports are placed on the die boundary evenly and instances at
the die center; run a placer to obtain real locations.  An instance statement
that repeats an instance name, names an unknown pin, connects a pin twice or
adds a second driver to a net raises a
:class:`~repro.netlist.parsers.errors.ParseError` naming the statement's line;
instances of cells the library lacks are skipped.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.netlist.design import Design, MultipleDriversError
from repro.netlist.library import Library
from repro.netlist.parsers.errors import ParseError, located
from repro.utils.geometry import Rect

_MODULE_RE = re.compile(r"module\s+(\w+)\s*\(([^)]*)\)\s*;", re.DOTALL)
_DECL_RE = re.compile(r"(input|output|inout|wire)\s+([^;]+);")
_INSTANCE_RE = re.compile(r"(\w+)\s+(\w+)\s*\(([^;]*)\)\s*;", re.DOTALL)
_CONNECTION_RE = re.compile(r"\.(\w+)\s*\(\s*([\w\[\]]+)\s*\)")


def parse_verilog(
    text: str,
    library: Library,
    *,
    die: Optional[Tuple[float, float, float, float]] = None,
) -> Design:
    """Parse structural Verilog into an unplaced, finalized :class:`Design`."""
    text = _strip_comments(text)
    module = _MODULE_RE.search(text)
    if module is None:
        raise ValueError("No module definition found in Verilog source")
    name = module.group(1)
    port_order = [p.strip() for p in module.group(2).split(",") if p.strip()]

    directions: Dict[str, str] = {}
    wires: List[str] = []
    for decl_match in _DECL_RE.finditer(text):
        kind = decl_match.group(1)
        names = [n.strip() for n in decl_match.group(2).split(",") if n.strip()]
        for signal in names:
            if kind == "wire":
                wires.append(signal)
            else:
                directions[signal] = kind

    # (line, instance, cell, connections) of every instance statement.
    instances: List[Tuple[int, str, str, List[Tuple[str, str]]]] = []
    for inst_match in _INSTANCE_RE.finditer(text, module.end()):
        cell_name, inst_name, conn_text = inst_match.groups()
        if cell_name in {"module", "endmodule", "input", "output", "wire", "assign"}:
            continue
        if cell_name not in library:
            continue
        connections = _CONNECTION_RE.findall(conn_text)
        line = text.count("\n", 0, inst_match.start()) + 1
        instances.append((line, inst_name, cell_name, connections))

    if die is None:
        # Size the die for ~70% utilization of the parsed cells.
        total_area = sum(library.cell(c).area for _, _, c, _ in instances) or 100.0
        side = max(100.0, (total_area / 0.7) ** 0.5)
        die = (0.0, 0.0, side, side)
    die_rect = Rect(*die)

    row_height = max((c.height for c in library if c.height > 0), default=12.0)
    design = Design(name, die=die_rect, library=library, row_height=row_height)

    # Ports spread along the die boundary.
    ports = [p for p in port_order if p in directions]
    for i, port in enumerate(ports):
        x, y = _boundary_position(die_rect, i, max(len(ports), 1))
        design.add_port(port, directions[port], x=x, y=y)

    center_x = die_rect.xl + 0.5 * die_rect.width
    center_y = die_rect.yl + 0.5 * die_rect.height
    for line, inst_name, cell_name, _ in instances:
        located(line, design.add_instance, inst_name, cell_name, x=center_x, y=center_y)

    # Signals become nets; the port of the same name joins its net.
    signals = set(wires) | set(directions)
    for _, _, _, connections in instances:
        signals.update(sig for _, sig in connections)
    for signal in sorted(signals):
        design.add_net(signal)
        if signal in directions:
            design.connect(signal, signal)
    for line, inst_name, _, connections in instances:
        for pin_name, signal in connections:
            located(line, design.connect, signal, inst_name, pin_name)
    try:
        return design.finalize()
    except MultipleDriversError as exc:
        # Ports connect first, so the second driver is an instance pin.
        second = exc.drivers[1].rsplit("/", 1)[0]
        line = next(ln for ln, name, _, _ in instances if name == second)
        raise ParseError(line, str(exc)) from exc


def _strip_comments(text: str) -> str:
    """Blank out comments, keeping their line breaks so line numbers hold."""
    text = re.sub(
        r"/\*.*?\*/", lambda m: " " + "\n" * m.group().count("\n"), text, flags=re.DOTALL
    )
    text = re.sub(r"//[^\n]*", " ", text)
    return text


def _boundary_position(die: Rect, index: int, count: int) -> Tuple[float, float]:
    """Evenly distribute ``count`` points around the die boundary."""
    perimeter = 2.0 * (die.width + die.height)
    distance = (index + 0.5) * perimeter / count
    if distance < die.width:
        return (die.xl + distance, die.yl)
    distance -= die.width
    if distance < die.height:
        return (die.xh, die.yl + distance)
    distance -= die.height
    if distance < die.width:
        return (die.xh - distance, die.yh)
    distance -= die.width
    return (die.xl, die.yh - distance)
