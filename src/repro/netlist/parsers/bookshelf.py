"""Bookshelf placement format helpers (.nodes / .pl).

The Bookshelf format is used by many academic placement benchmarks.  Only the
two files relevant to exchanging placements are supported:

* ``.nodes`` — node name, width, height, optional ``terminal`` keyword.
* ``.pl`` — node name, x, y, ``: N`` orientation, optional ``/FIXED``.

These are primarily useful for exporting a placement produced by this
library to external visualization or evaluation scripts, and for loading
externally produced placements back onto a :class:`repro.netlist.Design`
(matching by instance name) via :func:`apply_bookshelf_pl`.

A row that is too short or has a non-numeric field raises
:class:`~repro.netlist.parsers.errors.ParseError` instead of being dropped.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netlist.design import Design
from repro.netlist.parsers.errors import ParseError


def _row(lineno: int, line: str, fields: str) -> Tuple[List[str], float, float]:
    """Split a ``name a b ...`` row; ``fields`` names ``a`` and ``b``."""
    tokens = line.split()
    if len(tokens) < 3:
        raise ParseError(lineno, f"expected 'name {fields}', got {line!r}")
    try:
        return tokens, float(tokens[1]), float(tokens[2])
    except ValueError:
        raise ParseError(lineno, f"non-numeric {fields} in {line!r}") from None


def parse_bookshelf_nodes(text: str) -> List[Tuple[str, float, float, bool]]:
    """Parse ``.nodes`` text into ``(name, width, height, is_terminal)`` rows."""
    rows: List[Tuple[str, float, float, bool]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line or line.startswith("UCLA") or ":" in line:
            continue
        tokens, width, height = _row(lineno, line, "width height")
        is_terminal = len(tokens) > 3 and tokens[3].lower().startswith("terminal")
        rows.append((tokens[0], width, height, is_terminal))
    return rows


def parse_bookshelf_pl(text: str) -> Dict[str, Tuple[float, float, bool]]:
    """Parse ``.pl`` text into ``{name: (x, y, fixed)}``."""
    placements: Dict[str, Tuple[float, float, bool]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line or line.startswith("UCLA"):
            continue
        tokens, x, y = _row(lineno, line, "x y")
        placements[tokens[0]] = (x, y, "/FIXED" in line.upper())
    return placements


def parse_bookshelf_pl_file(path: str) -> Dict[str, Tuple[float, float, bool]]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_bookshelf_pl(text)
    except ParseError as exc:
        exc.path = path
        raise


def apply_bookshelf_pl(design: Design, placements: Dict[str, Tuple[float, float, bool]]) -> int:
    """Apply a parsed ``.pl`` placement onto ``design`` by instance name.

    Returns the number of instances whose position was updated.  Fixed
    instances and names absent from the design are skipped.
    """
    applied = 0
    for name, (x, y, _fixed) in placements.items():
        if not design.has_instance(name):
            continue
        inst = design.instance(name)
        if inst.fixed:
            continue
        inst.x = x
        inst.y = y
        applied += 1
    return applied
