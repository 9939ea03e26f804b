"""Greedy (Tetris-style) legalizer.

A simple, very robust fallback: cells are processed left-to-right and packed
into the nearest row at the first free site.  Displacement is worse than
Abacus but the algorithm cannot fail while total cell area fits in the rows,
so it is used by tests and as a safety net when Abacus reports failures.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.netlist.core import as_core
from repro.obs import traced
from repro.placement.legalization.abacus import LegalizationResult


class GreedyLegalizer:
    """First-fit row packing ordered by global-placement x coordinate."""

    def __init__(self, design) -> None:
        self.core = as_core(design)
        self.rows = self.core.rows()
        if not self.rows:
            raise ValueError("Design has no placement rows (die too short?)")

    @traced("legalize.greedy")
    def legalize(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> LegalizationResult:
        arrays = self.core
        if x is None or y is None:
            x, y = arrays.positions()
        x = np.asarray(x, dtype=np.float64).copy()
        y = np.asarray(y, dtype=np.float64).copy()

        movable = arrays.movable_index
        widths = arrays.inst_width
        order = movable[np.argsort(x[movable], kind="stable")]

        row_y = np.array([r.y for r in self.rows])
        # Next free x position in each row.
        cursor = np.array([r.xl for r in self.rows], dtype=np.float64)
        row_end = np.array([r.xh for r in self.rows], dtype=np.float64)
        site = self.core.site_width

        legal_x = x.copy()
        legal_y = y.copy()
        num_failed = 0

        for cell in order:
            cell = int(cell)
            width = float(widths[cell])
            candidate_rows = np.argsort(np.abs(row_y - y[cell]))
            placed = False
            for row_idx in candidate_rows:
                row_idx = int(row_idx)
                start = max(cursor[row_idx], x[cell])
                start = self.rows[row_idx].xl + round(
                    (start - self.rows[row_idx].xl) / site
                ) * site
                start = max(start, cursor[row_idx])
                if start + width <= row_end[row_idx] + 1e-9:
                    legal_x[cell] = start
                    legal_y[cell] = row_y[row_idx]
                    cursor[row_idx] = start + width
                    placed = True
                    break
            if not placed:
                num_failed += 1

        displacement = np.abs(legal_x[movable] - x[movable]) + np.abs(
            legal_y[movable] - y[movable]
        )
        return LegalizationResult(
            x=legal_x,
            y=legal_y,
            total_displacement=float(displacement.sum()),
            max_displacement=float(displacement.max()) if displacement.size else 0.0,
            num_failed=num_failed,
        )

    def apply(self, result: LegalizationResult) -> None:
        self.core.set_positions(result.x, result.y)
