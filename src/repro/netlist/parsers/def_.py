"""Simplified DEF (Design Exchange Format) parser.

Supported subset (matching :func:`repro.netlist.writers.write_def`)::

    VERSION 5.8 ;
    DESIGN <name> ;
    UNITS DISTANCE MICRONS 1000 ;
    DIEAREA ( xl yl ) ( xh yh ) ;
    ROW <name> <site> x y N DO n BY 1 STEP sw 0 ;
    COMPONENTS n ;
      - <inst> <cell> + PLACED ( x y ) N ;
      - <inst> <cell> + FIXED ( x y ) N ;
    END COMPONENTS
    PINS n ;
      - <port> + NET <net> + DIRECTION INPUT|OUTPUT + PLACED ( x y ) N ;
    END PINS
    NETS n ;
      - <net> ( <inst> <pin> ) ( PIN <port> ) ... ;
    END NETS
    END DESIGN

The parser needs a :class:`Library` that declares every referenced cell.  A
statement that is truncated or names an unknown cell, instance or pin, a pin
on two nets, and a net with two drivers raise a
:class:`~repro.netlist.parsers.errors.ParseError` naming the statement's line.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.netlist.design import Design, MultipleDriversError
from repro.netlist.library import Library
from repro.netlist.parsers.errors import ParseError, located
from repro.utils.geometry import Rect


def parse_def(text: str, library: Library) -> Design:
    """Parse DEF text into a finalized :class:`Design`."""
    statements = _split_statements(text)
    name = "design"
    die: Optional[Rect] = None
    row_height = 12.0
    site_width = 1.0
    # Section entries, each with the line of its statement.
    entries: Dict[str, List[Tuple[int, tuple]]] = {section: [] for section in _SECTIONS}

    section: Optional[str] = None
    for line, stmt in statements:
        tokens = stmt.split()
        if not tokens:
            continue
        head = tokens[0].upper()
        if head == "DESIGN" and len(tokens) >= 2 and section is None:
            name = tokens[1]
        elif head == "DIEAREA":
            coords = _extract_numbers(stmt)
            if len(coords) >= 4:
                die = Rect(coords[0], coords[1], coords[2], coords[3])
        elif head == "ROW":
            numbers = _extract_numbers(stmt)
            # ROW name site x y orient DO n BY 1 STEP sw sh
            if len(numbers) >= 2:
                row_height_candidate = None
                if "STEP" in stmt.upper():
                    step_numbers = numbers[-2:]
                    if step_numbers[0] > 0:
                        site_width = step_numbers[0]
                if row_height_candidate:
                    row_height = row_height_candidate
        elif head == "COMPONENTS":
            section = "COMPONENTS"
        elif head == "PINS":
            section = "PINS"
        elif head == "NETS":
            section = "NETS"
        elif head == "END":
            if len(tokens) >= 2 and tokens[1].upper() in {"COMPONENTS", "PINS", "NETS", "DESIGN"}:
                section = None
        elif (head == "-" or stmt.startswith("-")) and section is not None:
            body = stmt[1:].strip()
            try:
                entries[section].append((line, _SECTIONS[section](body)))
            except IndexError:
                raise ParseError(line, f"{section}: truncated statement '{stmt}'") from None

    if die is None:
        die = Rect(0.0, 0.0, 1000.0, 1000.0)

    # Derive the row height from the library's tallest core cell when rows
    # were not explicit; keeps legalization consistent with the masters.
    core_heights = [c.height for c in library if c.height > 0]
    if core_heights:
        row_height = max(set(core_heights), key=core_heights.count)

    design = Design(name, die=die, library=library, row_height=row_height, site_width=site_width)
    for line, (inst_name, cell_name, x, y, fixed) in entries["COMPONENTS"]:
        located(line, design.add_instance, inst_name, cell_name, x=x, y=y, fixed=fixed)
    for line, (port_name, _net_name, direction, x, y) in entries["PINS"]:
        located(line, design.add_port, port_name, direction, x=x, y=y)
    net_lines: Dict[str, int] = {}
    for line, (net_name, connections) in entries["NETS"]:
        located(line, design.add_net, net_name)
        net_lines[net_name] = line
        for inst_name, pin_name in connections:
            located(line, design.connect, net_name, inst_name, pin_name)
    try:
        return design.finalize()
    except MultipleDriversError as exc:
        raise ParseError(net_lines[exc.net], str(exc)) from exc


def _split_statements(text: str) -> List[Tuple[int, str]]:
    """Non-empty statements with the 1-based line each one starts on."""
    # DEF statements terminate with ';'. Remove comments first.  Section
    # terminators ("END COMPONENTS" etc.) carry no semicolon in DEF, so give
    # them one to keep the statement split uniform.
    text = re.sub(r"#[^\n]*", " ", text)
    text = re.sub(r"\bEND\s+(COMPONENTS|PINS|NETS|DESIGN)\b", r" ; END \1 ; ", text)
    statements: List[Tuple[int, str]] = []
    line = 1
    for part in text.split(";"):
        stmt = part.strip()
        if stmt:
            lead = len(part) - len(part.lstrip())
            statements.append((line + part.count("\n", 0, lead), stmt))
        line += part.count("\n")
    return statements


def _extract_numbers(stmt: str) -> List[float]:
    return [float(v) for v in re.findall(r"-?\d+\.?\d*", stmt)]


def _parse_component(body: str) -> Tuple[str, str, float, float, bool]:
    tokens = body.replace("(", " ").replace(")", " ").split()
    inst_name, cell_name = tokens[0], tokens[1]
    fixed = "FIXED" in (t.upper() for t in tokens)
    # The location is the "( x y )" group; instance/cell names may themselves
    # contain digits, so only numbers inside the parentheses count.
    location = re.search(r"\(\s*(-?\d+\.?\d*)\s+(-?\d+\.?\d*)\s*\)", body)
    x, y = (float(location.group(1)), float(location.group(2))) if location else (0.0, 0.0)
    return inst_name, cell_name, x, y, fixed


def _parse_pin(body: str) -> Tuple[str, str, str, float, float]:
    tokens = body.replace("(", " ").replace(")", " ").split()
    port_name = tokens[0]
    net_name = port_name
    direction = "input"
    upper = [t.upper() for t in tokens]
    if "NET" in upper:
        net_name = tokens[upper.index("NET") + 1]
    if "DIRECTION" in upper:
        direction = tokens[upper.index("DIRECTION") + 1].lower()
    numbers = _extract_numbers(body)
    x, y = (numbers[-2], numbers[-1]) if len(numbers) >= 2 else (0.0, 0.0)
    return port_name, net_name, direction, x, y


def _parse_net(body: str) -> Tuple[str, List[Tuple[str, Optional[str]]]]:
    tokens = body.split()
    net_name = tokens[0]
    connections: List[Tuple[str, Optional[str]]] = []
    for group in re.findall(r"\(([^)]*)\)", body):
        parts = group.split()
        if not parts:
            continue
        if parts[0].upper() == "PIN":
            connections.append((parts[1], None))
        elif len(parts) >= 2:
            connections.append((parts[0], parts[1]))
    return net_name, connections


# Entry parser of every section, by section keyword.
_SECTIONS = {"COMPONENTS": _parse_component, "PINS": _parse_pin, "NETS": _parse_net}
