"""Abacus legalization (Spindler, Schlichtmann, Johannes, ISPD'08).

Cells are processed in order of their global-placement x coordinate and
inserted into the row that minimizes displacement.  Within a row, cells are
kept in clusters; when the newly inserted cell's cluster overlaps its
predecessor, the clusters are merged and the merged cluster is re-placed at
its quadratic-optimal position (the weighted mean of its members' desired
positions minus their offsets), clamped to the row.  The paper's flow runs
Abacus after global placement before writing the DEF (Fig. 1).

Array-backed hot path (PR 10)
-----------------------------

:meth:`AbacusLegalizer.legalize` no longer mutates per-row ``List[_Cluster]``
object lists.  Each row keeps *flat stacks* — parallel ``float64`` arrays for
the cluster ``weight``/``width``/``q`` terms, an ``int32`` array of each
cluster's first-cell slot, and an ``int32`` cell-order buffer — so the
collapse loop works on array slots with the exact arithmetic order of the
reference, and the final cluster→cell unroll is a per-cluster ``cumsum``
over widths (the same sequential left fold as the scalar loop, so the
positions are bitwise identical).

The per-cell candidate search no longer ``argsort``s all row distances for
every cell.  ``row_y`` is sorted ascending (rows are built bottom-up), so
:func:`_legalize_rowband` seeds a two-pointer expansion with
``searchsorted`` and emits the ``max_candidate_rows`` nearest rows per cell
in increasing |row_y - y| order.  Tie-break: equidistant rows resolve to the
*lower* row index, matching a stable argsort of the distances (the
``_reference_legalize`` twin uses exactly that, and the parity suite asserts
bitwise equality).

``_reference_legalize`` keeps the original object-based implementation as
the bitwise twin for property tests and the legalization benches.

Row-overflow surfacing (PR 10 bugfix): ``_Cluster.optimal_x`` clamps a
cluster to ``max(row.xl, row.xh - width)``, which silently lets a cluster
wider than its row (reachable with ``capacity_slack > 0``, and guarded
against float drift in the stock checks) spill past ``row.xh``.  Both paths
now measure each row's rightmost occupied edge after placement and report
``LegalizationResult.num_overfull_rows``; overfull rows fail ``success``
exactly like unplaced cells do, so the flow's greedy fallback sees them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.netlist.core import Row, as_core
from repro.obs import span

# Rightmost-edge tolerance for the row-overflow check (same magnitude the
# geometry tests use for die/site assertions).
_OVERFLOW_TOL = 1e-6


def _legalize_rowband(row_y: np.ndarray, cell_y: np.ndarray, k: int) -> np.ndarray:
    """Flat ``(n*k,)`` int32 nearest-row candidate bands for ``cell_y``.

    For each cell (in the legalizer's x-sorted processing order) this emits
    the ``k`` placement rows nearest to the cell's desired y, in increasing
    |row_y - y| order — the row band Abacus walks when it looks for a row
    with free capacity.  ``row_y`` is sorted ascending (rows are built
    bottom-up), so a ``searchsorted`` seed plus a two-pointer expansion
    replaces the all-rows ``argsort`` of the reference path.

    Tie-break (documented, parity-tested): when a cell sits exactly midway
    between two rows the *lower* row index is emitted first — the same
    order a stable argsort of ``|row_y - y|`` produces.  Slots past the row
    count (``k > num_rows``) are filled with ``-1``.
    """
    num_rows = int(row_y.size)
    m = int(cell_y.size)
    out = np.empty(m * k, dtype=np.int32)
    # searchsorted(left): row_y[hi-1] < y <= row_y[hi], so the band starts
    # at the tightest bracketing pair (lo, hi) = (hi-1, hi).
    hi = np.searchsorted(row_y, cell_y, side="left").astype(np.int64)
    lo = hi - 1
    slots = np.arange(m, dtype=np.int64) * k
    for j in range(k):
        lo_valid = lo >= 0
        hi_valid = hi < num_rows
        # |row_y - y| without np.abs: the pointers never cross, so the
        # bracketing differences are the nonnegative distances directly.
        d_lo = np.where(lo_valid, cell_y - row_y[np.where(lo_valid, lo, 0)], np.inf)
        d_hi = np.where(
            hi_valid, row_y[np.where(hi_valid, hi, num_rows - 1)] - cell_y, np.inf
        )
        # <= : equidistant rows resolve to the lower index (stable order).
        take_lo = d_lo <= d_hi
        exhausted = ~lo_valid & ~hi_valid
        choice = np.where(take_lo, lo, hi)
        choice[exhausted] = -1
        out[slots + j] = choice
        advance = ~exhausted
        lo = np.where(take_lo & advance, lo - 1, lo)
        hi = np.where(~take_lo & advance, hi + 1, hi)
    return out


@dataclass
class _Cluster:
    """A maximal group of abutting cells in one row (Abacus bookkeeping)."""

    weight: float = 0.0   # e_c: sum of cell weights
    width: float = 0.0    # w_c: sum of cell widths
    q: float = 0.0        # q_c: sum of weight * (desired_x - offset_in_cluster)
    cells: List[int] = field(default_factory=list)

    def add_cell(self, cell: int, desired_x: float, cell_width: float, cell_weight: float = 1.0) -> None:
        self.cells.append(cell)
        self.q += cell_weight * (desired_x - self.width)
        self.weight += cell_weight
        self.width += cell_width

    def add_cluster(self, other: "_Cluster") -> None:
        self.cells.extend(other.cells)
        self.q += other.q - other.weight * self.width
        self.weight += other.weight
        self.width += other.width

    def optimal_x(self, row: Row) -> float:
        x = self.q / max(self.weight, 1e-12)
        return float(np.clip(x, row.xl, max(row.xl, row.xh - self.width)))


@dataclass
class LegalizationResult:
    """Outcome of a legalization pass."""

    x: np.ndarray
    y: np.ndarray
    total_displacement: float
    max_displacement: float
    num_failed: int
    # Rows whose rightmost occupied edge spills past row.xh (over-wide
    # clusters let through by capacity_slack, or float drift in the
    # capacity bookkeeping).  Counted into the success/fallback semantics
    # exactly like unplaced cells.
    num_overfull_rows: int = 0

    @property
    def success(self) -> bool:
        return self.num_failed == 0 and self.num_overfull_rows == 0


class AbacusLegalizer:
    """Row-based Abacus legalizer for standard cells.

    ``capacity_slack`` admits cells into a row up to
    ``row.width * (1 + capacity_slack)`` total width.  The default (0.0)
    reproduces the strict capacity check bitwise; a positive slack trades
    silent placement failures on overfilled dies (cells abandoned at their
    illegal global-placement positions) for measurable row overflow, which
    is then surfaced via ``num_overfull_rows``.
    """

    def __init__(
        self,
        design,
        *,
        site_aligned: bool = True,
        max_candidate_rows: int = 24,
        capacity_slack: float = 0.0,
    ) -> None:
        self.core = as_core(design)
        self.site_aligned = site_aligned
        self.max_candidate_rows = max_candidate_rows
        self.capacity_slack = float(capacity_slack)
        self.rows = self.core.rows()
        if not self.rows:
            raise ValueError("Design has no placement rows (die too short?)")
        self._row_y = np.array([r.y for r in self.rows], dtype=np.float64)

    # ------------------------------------------------------------------
    # Array-backed hot path
    # ------------------------------------------------------------------
    def legalize(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> LegalizationResult:
        """Legalize movable cells; returns legal positions for all instances.

        Bitwise identical to :meth:`_reference_legalize` (property-tested):
        the flat-stack collapse performs the exact scalar arithmetic of the
        ``_Cluster`` methods in the same order, the candidate bands replay
        the stable-argsort row order, and the ``cumsum`` unroll is the same
        sequential fold as the reference cursor walk.
        """
        arrays = self.core
        if x is None or y is None:
            x, y = arrays.positions()
        x = np.asarray(x, dtype=np.float64).copy()
        y = np.asarray(y, dtype=np.float64).copy()

        movable = arrays.movable_index
        widths = arrays.inst_width
        order = movable[np.argsort(x[movable], kind="stable")]
        num_rows = len(self.rows)
        n = int(order.size)
        k = min(self.max_candidate_rows, num_rows)

        with span("legalize.abacus", cells=n, rows=num_rows):
            with span("legalize.candidates"):
                cand = _legalize_rowband(self._row_y, y[order], k).reshape(n, k).tolist()

            # Per-row flat stacks: cluster weight/width/q + first-cell slot,
            # plus the row's cell-order buffer.  Capacities grow by doubling;
            # lengths live in plain lists (the loop below is scalar-hot).
            stack_w = [np.empty(16, dtype=np.float64) for _ in range(num_rows)]
            stack_wd = [np.empty(16, dtype=np.float64) for _ in range(num_rows)]
            stack_q = [np.empty(16, dtype=np.float64) for _ in range(num_rows)]
            stack_first = [np.empty(16, dtype=np.int32) for _ in range(num_rows)]
            stack_len = [0] * num_rows
            row_cells = [np.empty(16, dtype=np.int32) for _ in range(num_rows)]
            row_ncells = [0] * num_rows
            used = [0.0] * num_rows

            row_xl = [r.xl for r in self.rows]
            row_xh = [r.xh for r in self.rows]
            # Same float expression as the reference capacity check
            # (`row.width * 1.0` is exact, so slack=0 reproduces it bitwise).
            slack = 1.0 + self.capacity_slack
            row_cap = [r.width * slack + 1e-9 for r in self.rows]

            # Lazily-refreshed min-heap over (used, row): the fallback argmin.
            # One entry per row; an entry whose stored value no longer matches
            # ``used`` is stale (rows only fill up) and gets refreshed in
            # place.  (value, row) ordering makes ties resolve to the lowest
            # row index — the same row ``np.argmin(row_used)`` returns.
            heap = [(0.0, r) for r in range(num_rows)]
            heapreplace = heapq.heapreplace

            xs = x[order].tolist()
            ws = widths[order].tolist()

            legal_x = x.copy()
            legal_y = y.copy()
            # Row assignment per ordered cell (-1 = failed); y is written
            # back vectorized after the loop.
            assigned = [-1] * n
            num_failed = 0
            insert = self._insert_cell

            for i in range(n):
                desired_x = xs[i]
                width = ws[i]
                placed = False
                for r in cand[i]:
                    if r < 0:
                        break
                    if used[r] + width > row_cap[r]:
                        continue
                    insert(
                        i, desired_x, width, r, row_xl[r], row_xh[r],
                        stack_w, stack_wd, stack_q, stack_first, stack_len,
                        row_cells, row_ncells,
                    )
                    used[r] += width
                    assigned[i] = r
                    placed = True
                    break
                if not placed:
                    # Last resort: least-filled row, even if far away
                    # (first minimum wins, like np.argmin).
                    while True:
                        u, r = heap[0]
                        if u == used[r]:
                            break
                        heapreplace(heap, (used[r], r))
                    if used[r] + width <= row_cap[r]:
                        insert(
                            i, desired_x, width, r, row_xl[r], row_xh[r],
                            stack_w, stack_wd, stack_q, stack_first, stack_len,
                            row_cells, row_ncells,
                        )
                        used[r] += width
                        assigned[i] = r
                    else:
                        num_failed += 1

            assigned_arr = np.asarray(assigned, dtype=np.int64)
            ok = assigned_arr >= 0
            legal_y[order[ok]] = self._row_y[assigned_arr[ok]]

            num_overfull = self._unroll(
                legal_x, order, widths,
                stack_w, stack_wd, stack_q, stack_first, stack_len,
                row_cells, row_ncells,
            )

        displacement = np.abs(legal_x[movable] - x[movable]) + np.abs(
            legal_y[movable] - y[movable]
        )
        return LegalizationResult(
            x=legal_x,
            y=legal_y,
            total_displacement=float(displacement.sum()),
            max_displacement=float(displacement.max()) if displacement.size else 0.0,
            num_failed=num_failed,
            num_overfull_rows=num_overfull,
        )

    def _insert_cell(
        self,
        slot: int,
        desired_x: float,
        width: float,
        r: int,
        xl: float,
        xh: float,
        stack_w: List[np.ndarray],
        stack_wd: List[np.ndarray],
        stack_q: List[np.ndarray],
        stack_first: List[np.ndarray],
        stack_len: List[int],
        row_cells: List[np.ndarray],
        row_ncells: List[int],
    ) -> None:
        """Append cell ``slot`` to row ``r`` and collapse overlapping clusters.

        The scalar arithmetic replays ``_Cluster.add_cell`` /
        ``add_cluster`` / ``optimal_x`` term for term (including the
        ``0.0 + 1.0 * (x - 0.0)`` fresh-cluster form), so every merged
        cluster carries bitwise the same ``weight/width/q`` as the
        reference object path.
        """
        nc = row_ncells[r]
        buf = row_cells[r]
        if nc == len(buf):
            buf = self._grow_i32(buf, r, row_cells)
        buf[nc] = slot
        row_ncells[r] = nc + 1

        # The four stacks are created and doubled in lockstep, so one
        # capacity check covers all of them.
        m = stack_len[r]
        sw = stack_w[r]
        if m == len(sw):
            sw = self._grow_f64(sw, r, stack_w)
            self._grow_f64(stack_wd[r], r, stack_wd)
            self._grow_f64(stack_q[r], r, stack_q)
            self._grow_i32(stack_first[r], r, stack_first)
        swd = stack_wd[r]
        sq = stack_q[r]
        sf = stack_first[r]

        # Fresh single-cell cluster (held in locals while collapsing).
        top_w = 0.0 + 1.0
        top_wd = 0.0 + width
        top_q = 0.0 + 1.0 * (desired_x - 0.0)
        top_first = nc

        # Collapse: while the top cluster overlaps its predecessor, merge.
        # Reads convert to Python floats once — the arithmetic is the same
        # IEEE double op either way, but scalar np.float64 math is slower.
        while m >= 1:
            p_w = float(sw[m - 1])
            p_wd = float(swd[m - 1])
            p_q = float(sq[m - 1])
            t = p_q / (p_w if p_w >= 1e-12 else 1e-12)
            hi = xh - p_wd
            if hi < xl:
                hi = xl
            prev_x = t if t > xl else xl
            if prev_x > hi:
                prev_x = hi
            t = top_q / (top_w if top_w >= 1e-12 else 1e-12)
            hi = xh - top_wd
            if hi < xl:
                hi = xl
            top_x = t if t > xl else xl
            if top_x > hi:
                top_x = hi
            if prev_x + p_wd <= top_x + 1e-9:
                break
            # prev.add_cluster(top): prev becomes the new top cluster.
            top_q = p_q + (top_q - top_w * p_wd)
            top_w = p_w + top_w
            top_wd = p_wd + top_wd
            top_first = sf[m - 1]
            m -= 1

        sw[m] = top_w
        swd[m] = top_wd
        sq[m] = top_q
        sf[m] = top_first
        stack_len[r] = m + 1

    @staticmethod
    def _grow_i32(buf: np.ndarray, r: int, store: List[np.ndarray]) -> np.ndarray:
        grown = np.empty(2 * len(buf), dtype=np.int32)
        grown[: len(buf)] = buf
        store[r] = grown
        return grown

    @staticmethod
    def _grow_f64(buf: np.ndarray, r: int, store: List[np.ndarray]) -> np.ndarray:
        grown = np.empty(2 * len(buf), dtype=np.float64)
        grown[: len(buf)] = buf
        store[r] = grown
        return grown

    def _unroll(
        self,
        legal_x: np.ndarray,
        order: np.ndarray,
        widths: np.ndarray,
        stack_w: List[np.ndarray],
        stack_wd: List[np.ndarray],
        stack_q: List[np.ndarray],
        stack_first: List[np.ndarray],
        stack_len: List[int],
        row_cells: List[np.ndarray],
        row_ncells: List[int],
    ) -> int:
        """Write final positions (cumsum per cluster) and count overfull rows.

        ``cumsum`` over ``[cursor, w_0, ..., w_{last-1}]`` is the identical
        sequential left fold as the reference's ``cursor += width`` walk, so
        positions — and the measured row end — match it bitwise.
        """
        num_overfull = 0
        site_aligned = self.site_aligned
        for r, row in enumerate(self.rows):
            m = stack_len[r]
            if m == 0:
                continue
            nc = row_ncells[r]
            slots = row_cells[r][:nc]
            cell_ids = order[slots]
            w_r = widths[cell_ids]
            sw = stack_w[r]
            swd = stack_wd[r]
            sq = stack_q[r]
            sf = stack_first[r]
            xl = row.xl
            xh = row.xh
            site = row.site_width
            row_end = xl
            for c in range(m):
                e_c = float(sw[c])
                wd = float(swd[c])
                q = float(sq[c])
                t = q / max(e_c, 1e-12)
                cursor = float(np.clip(t, xl, max(xl, xh - wd)))
                if site_aligned:
                    cursor = xl + round((cursor - xl) / site) * site
                    cursor = max(xl, min(cursor, xh - wd))
                a = int(sf[c])
                b = int(sf[c + 1]) if c + 1 < m else nc
                seg = w_r[a:b]
                vals = np.empty(b - a, dtype=np.float64)
                vals[0] = cursor
                vals[1:] = seg[:-1]
                np.cumsum(vals, out=vals)
                legal_x[cell_ids[a:b]] = vals
                end = float(vals[-1]) + float(seg[-1])
                if end > row_end:
                    row_end = end
            if row_end > xh + _OVERFLOW_TOL:
                num_overfull += 1
        return num_overfull

    # ------------------------------------------------------------------
    # Reference twin (object-based; kept for parity tests and benches)
    # ------------------------------------------------------------------
    def _reference_legalize(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> LegalizationResult:
        """The pre-PR-10 object-based implementation (bitwise twin).

        One documented behavior pin relative to the original: the candidate
        rows use a *stable* argsort of |row_y - desired_y|, so equidistant
        rows resolve to the lower row index — the order the two-pointer
        band expansion produces.  (The original used the default introsort,
        whose tie order was unspecified; exact distance ties require a cell
        exactly midway between two rows.)
        """
        arrays = self.core
        if x is None or y is None:
            x, y = arrays.positions()
        x = np.asarray(x, dtype=np.float64).copy()
        y = np.asarray(y, dtype=np.float64).copy()

        movable = arrays.movable_index
        widths = arrays.inst_width
        order = movable[np.argsort(x[movable], kind="stable")]

        row_clusters: List[List[_Cluster]] = [[] for _ in self.rows]
        row_used = np.zeros(len(self.rows), dtype=np.float64)
        row_y = np.array([r.y for r in self.rows])
        slack = 1.0 + self.capacity_slack

        legal_x = x.copy()
        legal_y = y.copy()
        num_failed = 0

        for cell in order:
            cell = int(cell)
            desired_x = float(x[cell])
            desired_y = float(y[cell])
            width = float(widths[cell])
            candidate_rows = np.argsort(np.abs(row_y - desired_y), kind="stable")
            placed = False
            for row_idx in candidate_rows[: self.max_candidate_rows]:
                row_idx = int(row_idx)
                row = self.rows[row_idx]
                if row_used[row_idx] + width > row.width * slack + 1e-9:
                    continue
                self._insert_into_row(cell, desired_x, width, row, row_clusters[row_idx])
                row_used[row_idx] += width
                legal_y[cell] = row.y
                placed = True
                break
            if not placed:
                # Last resort: least-filled row, even if far away.
                row_idx = int(np.argmin(row_used))
                row = self.rows[row_idx]
                if row_used[row_idx] + width <= row.width * slack + 1e-9:
                    self._insert_into_row(cell, desired_x, width, row, row_clusters[row_idx])
                    row_used[row_idx] += width
                    legal_y[cell] = row.y
                else:
                    num_failed += 1

        num_overfull = 0
        for row, clusters in zip(self.rows, row_clusters):
            row_end = row.xl
            for cluster in clusters:
                cursor = cluster.optimal_x(row)
                if self.site_aligned:
                    cursor = row.xl + round((cursor - row.xl) / row.site_width) * row.site_width
                    cursor = max(row.xl, min(cursor, row.xh - cluster.width))
                for cell in cluster.cells:
                    legal_x[cell] = cursor
                    cursor += widths[cell]
                if cursor > row_end:
                    row_end = cursor
            if clusters and row_end > row.xh + _OVERFLOW_TOL:
                num_overfull += 1

        displacement = np.abs(legal_x[movable] - x[movable]) + np.abs(
            legal_y[movable] - y[movable]
        )
        return LegalizationResult(
            x=legal_x,
            y=legal_y,
            total_displacement=float(displacement.sum()),
            max_displacement=float(displacement.max()) if displacement.size else 0.0,
            num_failed=num_failed,
            num_overfull_rows=num_overfull,
        )

    def _insert_into_row(
        self,
        cell: int,
        desired_x: float,
        width: float,
        row: Row,
        clusters: List[_Cluster],
    ) -> None:
        cluster = _Cluster()
        cluster.add_cell(cell, desired_x, width)
        clusters.append(cluster)
        # Collapse: while the last cluster overlaps its predecessor, merge.
        while len(clusters) >= 2:
            last = clusters[-1]
            prev = clusters[-2]
            if prev.optimal_x(row) + prev.width <= last.optimal_x(row) + 1e-9:
                break
            prev.add_cluster(last)
            clusters.pop()

    def apply(self, result: LegalizationResult) -> None:
        """Write legalized positions back onto the design core."""
        self.core.set_positions(result.x, result.y)
