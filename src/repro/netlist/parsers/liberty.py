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

A numeric attribute that is not a finite number, an ``area`` that is not
> 0, a ``capacitance`` below 0 and a group missing its closing ``}`` each
raise a :class:`~repro.netlist.parsers.errors.ParseError` naming the
statement's line.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.netlist.library import (
    CellType,
    Library,
    LibraryPin,
    PinDirection,
    TimingArcSpec,
)
from repro.netlist.parsers.errors import ParseError

# Attributes with a bound beyond finiteness: (test, the bound in the error
# message's words).
_BOUNDS = {
    "area": (lambda value: value > 0.0, "> 0"),
    "capacitance": (lambda value: value >= 0.0, ">= 0"),
}


def parse_liberty(text: str, library: Optional[Library] = None) -> Library:
    """Parse Liberty text into a :class:`Library`."""
    text = _strip_comments(text)
    root = _parse_group(text)
    lib_name = root.args[0] if root.args else "liberty"
    lib = library if library is not None else Library(lib_name)
    lib.wire_resistance_per_unit = _number(
        root, "wire_resistance", lib.wire_resistance_per_unit
    )
    lib.wire_capacitance_per_unit = _number(
        root, "wire_capacitance", lib.wire_capacitance_per_unit
    )
    for group in root.children:
        if group.name == "cell":
            cell = _build_cell(group)
            lib.add_cell(cell)
    return lib


class _Group:
    """Generic Liberty group: ``name (args) { attributes / children }``."""

    def __init__(self, name: str, args: List[str], line: int) -> None:
        self.name = name
        self.args = args
        self.line = line
        self.attributes: Dict[str, str] = {}
        self.lines: Dict[str, int] = {}
        self.children: List["_Group"] = []

    def find(self, name: str) -> List["_Group"]:
        return [c for c in self.children if c.name == name]


def _strip_comments(text: str) -> str:
    """Blank out comments, keeping their newlines so line numbers hold."""
    text = re.sub(
        r"/\*.*?\*/", lambda m: "\n" * m.group().count("\n") or " ", text, flags=re.DOTALL
    )
    text = re.sub(r"//[^\n]*", " ", text)
    return text


def _finite(line: int, what: str, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line, f"{what} {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(line, f"{what} must be finite, got {token}")
    return value


def _number(group: _Group, key: str, default: float) -> float:
    """``group``'s numeric attribute ``key`` (``default`` when absent)."""
    raw = group.attributes.get(key)
    if raw is None:
        return default
    value = _finite(group.lines[key], key, raw)
    test, words = _BOUNDS.get(key, (None, ""))
    if test is not None and not test(value):
        raise ParseError(group.lines[key], f"{key} must be {words}, got {raw}")
    return value


def _numbers(group: _Group, key: str) -> List[float]:
    """The numbers of a quoted, comma-separated list attribute."""
    tokens = group.attributes[key].replace('"', "").split(",")
    return [
        _finite(group.lines[key], f"{key} entry", token.strip())
        for token in tokens
        if token.strip()
    ]


# Note: these patterns are used with ``pattern.match(text, pos)`` /
# ``pattern.search(text, pos)``, so they must not carry a '^' anchor (which
# would only match at the very start of the string).
_GROUP_RE = re.compile(r"\s*([\w]+)\s*\(([^)]*)\)\s*\{")
_ATTR_RE = re.compile(r"\s*([\w]+)\s*:\s*([^;]+);")
_COMPLEX_ATTR_RE = re.compile(r"\s*([\w]+)\s*\(([^)]*)\)\s*;")


def _parse_group(text: str) -> _Group:
    newlines = [m.start() for m in re.finditer("\n", text)]

    def line_of(pos: int) -> int:
        return bisect.bisect_right(newlines, pos) + 1

    match = _GROUP_RE.search(text)
    if match is None:
        raise ParseError(1, "no Liberty group found")
    group = _Group(match.group(1), _args(match.group(2)), line_of(match.start(1)))
    _parse_body(text, match.end(), group, line_of)
    return group


def _args(text: str) -> List[str]:
    return [a.strip().strip('"') for a in text.split(",") if a.strip()]


def _parse_body(
    text: str, pos: int, group: _Group, line_of: Callable[[int], int]
) -> int:
    """Parse the body of ``group`` starting right after its '{'; return the
    index just past the matching '}' (a body that runs out raises)."""
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
            child = _Group(nested.group(1), _args(nested.group(2)), line_of(pos))
            group.children.append(child)
            pos = _parse_body(text, nested.end(), child, line_of)
            continue
        attr = _ATTR_RE.match(text, pos) or _COMPLEX_ATTR_RE.match(text, pos)
        if attr is not None:
            group.attributes[attr.group(1)] = attr.group(2).strip().strip('"')
            group.lines[attr.group(1)] = line_of(pos)
            pos = attr.end()
            continue
        # Unknown token: skip to end of line to stay robust.
        newline = text.find("\n", pos)
        pos = len(text) if newline == -1 else newline + 1
    raise ParseError(
        group.line, f"{group.name} ({', '.join(group.args)}) is not closed by '}}'"
    )


def _build_cell(group: _Group) -> CellType:
    name = group.args[0] if group.args else "unnamed"
    side = math.sqrt(_number(group, "area", 1.0))
    is_sequential = bool(group.find("ff")) or bool(group.find("latch"))
    cell = CellType(name, width=side, height=side, is_sequential=is_sequential)

    arcs: List[Tuple[str, str, TimingArcSpec]] = []
    for pin_group in group.find("pin"):
        pin_name = pin_group.args[0]
        direction = PinDirection.from_string(pin_group.attributes.get("direction", "input"))
        capacitance = _number(pin_group, "capacitance", 0.0)
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
                intrinsic=_number(timing, "intrinsic", 0.0),
                load_slope=_number(timing, "load_slope", 0.0),
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
        if "index_1" not in lut.attributes or "values" not in lut.attributes:
            continue
        loads = _numbers(lut, "index_1")
        delays = _numbers(lut, "values")
        if len(loads) == len(delays) and loads:
            return tuple(zip(loads, delays))
    return None
