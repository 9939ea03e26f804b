"""Simplified LEF (Library Exchange Format) parser.

Supported constructs::

    UNITS ... END UNITS            (ignored)
    SITE <name> ... END <name>     (SIZE w BY h captured as the default site)
    MACRO <name>
        CLASS CORE ;
        SIZE <w> BY <h> ;
        PIN <pin>
            DIRECTION INPUT|OUTPUT|INOUT ;
            USE SIGNAL|CLOCK ;
            CAPACITANCE <value> ;          (non-standard but convenient)
            PORT ... RECT xl yl xh yh ... END
        END <pin>
    END <name>

The parser produces a :class:`repro.netlist.Library`.  Pin offsets are taken
from the center of the first RECT of the pin's PORT when present, otherwise 0.
Timing arcs are *not* described by LEF; combine with a Liberty file via
:func:`repro.netlist.parsers.liberty.parse_liberty` and ``Library.merge`` or
attach arcs programmatically.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.netlist.library import CellType, Library, LibraryPin, PinDirection


def parse_lef(text: str, library: Optional[Library] = None) -> Library:
    """Parse LEF text into a :class:`Library` (a new one unless provided)."""
    lib = library if library is not None else Library("lef")
    tokens = _tokenize(text)
    i = 0
    site_size: Tuple[float, float] | None = None
    while i < len(tokens):
        tok = tokens[i].upper()
        if tok == "SITE":
            i, site_size = _parse_site(tokens, i)
        elif tok == "MACRO":
            i = _parse_macro(tokens, i, lib)
        else:
            i += 1
    if site_size is not None:
        # Stash the default site on the library for floorplan construction.
        lib.default_site_width = site_size[0]  # type: ignore[attr-defined]
        lib.default_site_height = site_size[1]  # type: ignore[attr-defined]
    return lib


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens.extend(line.replace(";", " ; ").split())
    return tokens


def _parse_site(tokens: List[str], i: int) -> Tuple[int, Tuple[float, float] | None]:
    # SITE <name> ... SIZE w BY h ; ... END <name>
    name = tokens[i + 1]
    i += 2
    size: Tuple[float, float] | None = None
    while i < len(tokens):
        tok = tokens[i].upper()
        if tok == "SIZE":
            size = (float(tokens[i + 1]), float(tokens[i + 3]))
            i += 4
        elif tok == "END" and i + 1 < len(tokens) and tokens[i + 1] == name:
            return i + 2, size
        else:
            i += 1
    return i, size


def _parse_macro(tokens: List[str], i: int, lib: Library) -> int:
    name = tokens[i + 1]
    i += 2
    width = height = 0.0
    pins: List[LibraryPin] = []
    is_macro_class = False
    while i < len(tokens):
        tok = tokens[i].upper()
        if tok == "SIZE":
            width = float(tokens[i + 1])
            height = float(tokens[i + 3])
            i += 4
        elif tok == "CLASS":
            is_macro_class = tokens[i + 1].upper() == "BLOCK"
            i += 2
        elif tok == "PIN":
            i, pin = _parse_pin(tokens, i)
            pins.append(pin)
        elif tok == "END" and i + 1 < len(tokens) and tokens[i + 1] == name:
            i += 2
            break
        else:
            i += 1
    cell = CellType(name, width=width, height=height, is_macro=is_macro_class)
    for pin in pins:
        cell.add_pin(pin)
    lib.add_cell(cell)
    return i


def _parse_pin(tokens: List[str], i: int) -> Tuple[int, LibraryPin]:
    name = tokens[i + 1]
    i += 2
    direction = PinDirection.INPUT
    capacitance = 0.0
    is_clock = False
    rect: Tuple[float, float, float, float] | None = None
    while i < len(tokens):
        tok = tokens[i].upper()
        if tok == "DIRECTION":
            direction = PinDirection.from_string(tokens[i + 1])
            i += 2
        elif tok == "USE":
            is_clock = tokens[i + 1].upper() == "CLOCK"
            i += 2
        elif tok == "CAPACITANCE":
            capacitance = float(tokens[i + 1])
            i += 2
        elif tok == "RECT":
            if rect is None:
                rect = (
                    float(tokens[i + 1]),
                    float(tokens[i + 2]),
                    float(tokens[i + 3]),
                    float(tokens[i + 4]),
                )
            i += 5
        elif tok == "END" and i + 1 < len(tokens) and tokens[i + 1] == name:
            i += 2
            break
        else:
            i += 1
    if rect is not None:
        offset_x = 0.5 * (rect[0] + rect[2])
        offset_y = 0.5 * (rect[1] + rect[3])
    else:
        offset_x = offset_y = 0.0
    pin = LibraryPin(
        name,
        direction,
        capacitance=capacitance,
        offset_x=offset_x,
        offset_y=offset_y,
        is_clock=is_clock,
    )
    return i, pin
