"""Independent checks of one flow's output, and the result digest.

The checks read only public ``DesignCore`` arrays and the flow's final
positions.  They never consult ``EvaluationReport.overlap_area`` or a
``LegalizationResult``: a legalizer that misreports its own result must
still fail here.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Optional, Tuple

import numpy as np

# Positions are compared against row and site grids with this slack, so a
# coordinate computed as ``xl + k * site_width`` in float still counts as
# on-grid.  Fixed cells are compared exactly.
_TOL = 1e-6


def fixed_snapshot(core) -> Tuple[np.ndarray, np.ndarray]:
    """Copies of the fixed cells' positions, taken before the flow runs."""
    fixed = ~core.movable_mask
    return core.x[fixed].copy(), core.y[fixed].copy()


def legality_problem(design, x: np.ndarray, y: np.ndarray, fixed_xy) -> Optional[str]:
    """Describe the first legality violation of ``(x, y)``, or ``None``.

    A legal placement keeps every movable cell inside the die, on a row,
    aligned to a site, and free of overlap with the other cells of its
    row, and leaves every fixed cell where it was.
    """
    core = design.arrays
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (core.num_instances,) or y.shape != (core.num_instances,):
        return f"positions have shape {x.shape}/{y.shape}, expected ({core.num_instances},)"

    def cell(index: int) -> str:
        return f"cell {design.instances[index].name} (#{index})"

    fixed = np.nonzero(~core.movable_mask)[0]
    moved = np.nonzero((x[fixed] != fixed_xy[0]) | (y[fixed] != fixed_xy[1]))[0]
    if moved.size:
        return f"fixed {cell(int(fixed[moved[0]]))} moved"

    movable = core.movable_index
    mx, my = x[movable], y[movable]
    width = core.inst_width[movable]
    height = core.inst_height[movable]
    die = core.die

    def first(mask: np.ndarray, what: str) -> Optional[str]:
        hits = np.nonzero(mask)[0]
        if hits.size == 0:
            return None
        i = int(hits[0])
        return f"{cell(int(movable[i]))} at ({float(mx[i])!r}, {float(my[i])!r}) {what}"

    row = (my - die.yl) / core.row_height
    site = (mx - die.xl) / core.site_width
    for mask, what in (
        (~np.isfinite(mx) | ~np.isfinite(my), "has a non-finite position"),
        (np.abs(height - core.row_height) > _TOL, "is not one row tall"),
        (
            (mx < die.xl - _TOL) | (mx + width > die.xh + _TOL)
            | (my < die.yl - _TOL) | (my + height > die.yh + _TOL),
            "lies outside the die",
        ),
        (np.abs(row - np.rint(row)) > _TOL, "is not on a row"),
        (np.abs(site - np.rint(site)) > _TOL, "is not site-aligned"),
    ):
        problem = first(mask, what)
        if problem:
            return problem

    row_index = np.rint(row).astype(np.int64)
    order = np.lexsort((mx, row_index))
    same_row = row_index[order[1:]] == row_index[order[:-1]]
    overlap = same_row & (mx[order[:-1]] + width[order[:-1]] > mx[order[1:]] + _TOL)
    hits = np.nonzero(overlap)[0]
    if hits.size:
        a, b = (int(movable[order[hits[0]]]), int(movable[order[hits[0] + 1]]))
        return f"{cell(a)} overlaps {cell(b)} in row {int(row_index[order[hits[0]]])}"
    return None


def quality_problem(**values: float) -> Optional[str]:
    """Name the first metric that is not a finite number, or ``None``."""
    for name, value in values.items():
        if not math.isfinite(value):
            return f"{name} is {value!r}"
    return None


def position_digest(x: np.ndarray, y: np.ndarray) -> str:
    """SHA-256 of the final float64 x then y position bytes."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())
    return digest.hexdigest()


def combine_digests(digests: Iterable[str]) -> str:
    """One digest for a workload: SHA-256 over its flows' digests in order."""
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
