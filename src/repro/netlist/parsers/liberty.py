"""Simplified Liberty (.lib) parser.

Supported subset (a tiny slice of the real format, enough for the RC/NLDM
style delays used by the STA engine)::

    library (name) {
      wire_resistance : 0.002 ;
      wire_capacitance : 0.00016 ;
      cell (INV_X1) {
        area : 2.0 ;
        ff (...) { }                      /* marks the cell sequential */
        pin (a) {
          direction : input ;
          capacitance : 0.0015 ;
          clock : true ;                  /* optional */
        }
        pin (o) {
          direction : output ;
          timing () {
            related_pin : "a" ;
            intrinsic : 10.0 ;            /* simplified linear model */
            load_slope : 350.0 ;
            /* or a lookup table: */
            cell_delay (lut) {
              index_1 ("0.001, 0.01, 0.1");
              values  ("12.0, 20.0, 95.0");
            }
          }
        }
      }
    }

Delays populate :class:`repro.netlist.TimingArcSpec`, either as the
``intrinsic``/``load_slope`` linear form or as a load->delay table.
Cell width/height are not Liberty concepts; cells parsed from Liberty get a
square footprint of ``sqrt(area)`` unless merged with a LEF-parsed library.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from repro.netlist.library import (
    CellType,
    Library,
    LibraryPin,
    PinDirection,
    TimingArcSpec,
)


def parse_liberty(text: str, library: Optional[Library] = None) -> Library:
    """Parse Liberty text into a :class:`Library`."""
    text = _strip_comments(text)
    root = _parse_group(text)
    lib_name = root.args[0] if root.args else "liberty"
    lib = library if library is not None else Library(lib_name)
    if "wire_resistance" in root.attributes:
        lib.wire_resistance_per_unit = float(root.attributes["wire_resistance"])
    if "wire_capacitance" in root.attributes:
        lib.wire_capacitance_per_unit = float(root.attributes["wire_capacitance"])
    for group in root.children:
        if group.name == "cell":
            cell = _build_cell(group)
            lib.add_cell(cell)
    return lib


class _Group:
    """Generic Liberty group: ``name (args) { attributes / children }``."""

    def __init__(self, name: str, args: List[str]) -> None:
        self.name = name
        self.args = args
        self.attributes: Dict[str, str] = {}
        self.children: List["_Group"] = []

    def find(self, name: str) -> List["_Group"]:
        return [c for c in self.children if c.name == name]


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    return text


# Note: these patterns are used with ``pattern.match(text, pos)`` /
# ``pattern.search(text, pos)``, so they must not carry a '^' anchor (which
# would only match at the very start of the string).
_GROUP_RE = re.compile(r"\s*([\w]+)\s*\(([^)]*)\)\s*\{")
_ATTR_RE = re.compile(r"\s*([\w]+)\s*:\s*([^;]+);")
_COMPLEX_ATTR_RE = re.compile(r"\s*([\w]+)\s*\(([^)]*)\)\s*;")


def _parse_group(text: str, start: int = 0) -> _Group:
    match = _GROUP_RE.search(text, start)
    if match is None:
        raise ValueError("No Liberty group found")
    name = match.group(1)
    args = [a.strip().strip('"') for a in match.group(2).split(",") if a.strip()]
    group = _Group(name, args)
    pos = match.end()
    _parse_body(text, pos, group)
    return group


def _parse_body(text: str, pos: int, group: _Group) -> int:
    """Parse the body of ``group`` starting right after its '{'; return the
    index just past the matching '}'."""
    while pos < len(text):
        # Skip whitespace.
        while pos < len(text) and text[pos] in " \t\r\n":
            pos += 1
        if pos >= len(text):
            break
        if text[pos] == "}":
            return pos + 1
        nested = _GROUP_RE.match(text, pos)
        if nested is not None:
            child = _Group(
                nested.group(1),
                [a.strip().strip('"') for a in nested.group(2).split(",") if a.strip()],
            )
            group.children.append(child)
            pos = _parse_body(text, nested.end(), child)
            continue
        attr = _ATTR_RE.match(text, pos)
        if attr is not None:
            group.attributes[attr.group(1)] = attr.group(2).strip().strip('"')
            pos = attr.end()
            continue
        complex_attr = _COMPLEX_ATTR_RE.match(text, pos)
        if complex_attr is not None:
            group.attributes[complex_attr.group(1)] = complex_attr.group(2).strip().strip('"')
            pos = complex_attr.end()
            continue
        # Unknown token: skip to end of line to stay robust.
        newline = text.find("\n", pos)
        pos = len(text) if newline == -1 else newline + 1
    return pos


def _build_cell(group: _Group) -> CellType:
    name = group.args[0] if group.args else "unnamed"
    area = float(group.attributes.get("area", 1.0))
    side = math.sqrt(max(area, 1e-12))
    is_sequential = bool(group.find("ff")) or bool(group.find("latch"))
    cell = CellType(name, width=side, height=side, is_sequential=is_sequential)

    arcs: List[Tuple[str, str, TimingArcSpec]] = []
    for pin_group in group.find("pin"):
        pin_name = pin_group.args[0]
        direction = PinDirection.from_string(pin_group.attributes.get("direction", "input"))
        capacitance = float(pin_group.attributes.get("capacitance", 0.0))
        is_clock = pin_group.attributes.get("clock", "false").lower() == "true"
        cell.add_pin(
            LibraryPin(pin_name, direction, capacitance=capacitance, is_clock=is_clock)
        )
        for timing in pin_group.find("timing"):
            related = timing.attributes.get("related_pin", "").strip('"')
            if not related:
                continue
            table = _extract_table(timing)
            arc = TimingArcSpec(
                from_pin=related,
                to_pin=pin_name,
                intrinsic=float(timing.attributes.get("intrinsic", 0.0)),
                load_slope=float(timing.attributes.get("load_slope", 0.0)),
                load_table=table,
                is_clock_to_q=is_sequential,
            )
            arcs.append((related, pin_name, arc))
    for _, _, arc in arcs:
        if arc.from_pin in cell.pins and arc.to_pin in cell.pins:
            cell.add_arc(arc)
    return cell


def _extract_table(timing: _Group) -> Optional[Tuple[Tuple[float, float], ...]]:
    for lut in timing.find("cell_delay") + timing.find("cell_rise") + timing.find("cell_fall"):
        index = lut.attributes.get("index_1")
        values = lut.attributes.get("values")
        if index is None or values is None:
            continue
        loads = [float(v) for v in index.replace('"', "").split(",") if v.strip()]
        delays = [float(v) for v in values.replace('"', "").split(",") if v.strip()]
        if len(loads) == len(delays) and loads:
            return tuple(zip(loads, delays))
    return None
