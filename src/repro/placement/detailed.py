"""Detailed placement: within-row adjacent-cell swapping, delta-HPWL.

After legalization, neighbouring cells in the same row are swapped whenever
the swap reduces total HPWL of the nets touching them.  This is a small
local-search refinement comparable in spirit (not in strength) to the
independent-set matching used by industrial flows; the paper's evaluation is
about global placement, so detailed placement is deliberately lightweight and
optional.

Delta-HPWL swap engine (PR 10)
------------------------------

The original implementation recomputed ``hpwl_per_net`` over the **entire
design** (plus a full ``x.copy()``) for every candidate swap — O(passes ×
cells × pins).  :meth:`DetailedPlacer.refine` now evaluates each candidate
incrementally:

* the nets touching each instance come from the cached instance→net CSR on
  :class:`~repro.netlist.core.DesignCore` (``instance_nets_plan``);
* a maintained ``per_net`` array carries every net's current HPWL, so
  ``before`` is a lookup; ``after`` recomputes only the touched nets through
  the cached HPWL scatter plan (``np.take`` + ``maximum/minimum.reduceat``
  into preallocated buffers — no full-array copies anywhere);
* pin coordinates live in one ``pin_x`` array updated in place per candidate
  (each instance's pins are a contiguous slice) and restored on rejection.

``_reference_refine`` is the bitwise twin with the pre-PR cost model (full
``hpwl_per_net`` + ``x.copy()`` per candidate): both paths share the same
candidate ordering and merge helper and sum net values left-to-right, so
every accept/reject decision — and therefore the final positions — is
bitwise identical (property-tested).

Behavior changes vs the pre-PR placer (documented, golden-pinned in the
tests; the four flow presets do not run detailed placement, so the preset
goldens are unaffected):

* **Stale-order bugfix:** the old pass iterated ``zip(row_cells,
  row_cells[1:])`` — a pair list frozen at the start of the row pass, so
  after an accepted swap later pairs were evaluated against pre-swap
  neighbours.  Pairs are now re-derived from the maintained row order, so
  each candidate sees the post-swap positions of everything before it.
* **Deterministic ordering:** rows are visited bottom-up (ascending y) and
  cells within a row in ascending x (ties by instance index), instead of
  Python-set iteration order over float y keys.
* **Net sums:** a candidate's before/after totals sum the touched nets'
  HPWL left-to-right over the ascending merged net list (the old path
  summed a ``set``-ordered fancy-index gather pairwise).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.netlist.core import as_core
from repro.obs import span


class DetailedPlacer:
    """Greedy adjacent-swap refinement on a legalized placement."""

    def __init__(self, design, *, max_passes: int = 2) -> None:
        self.core = as_core(design)
        self.max_passes = max_passes
        self._plan_ready = False

    # ------------------------------------------------------------------
    # Topology-derived plan (cached across refine calls)
    # ------------------------------------------------------------------
    def _ensure_plan(self) -> None:
        """Build the swap-evaluation plan and scratch buffers once."""
        if self._plan_ready:
            return
        core = self.core
        offsets, nets = core.instance_nets_plan()
        valid_ids, pins, seg, legacy_clean = core._hpwl_scatter_plan()
        num_nets = core.num_nets

        net_valid = np.zeros(num_nets, dtype=bool)
        net_valid[valid_ids] = True
        net_clean = np.zeros(num_nets, dtype=bool)
        net_clean[valid_ids] = legacy_clean

        # Compact-plan segment bounds per net (only meaningful for valid
        # nets): net t's pins are plan_pins[net_start[t]:net_end[t]].
        counts = np.bincount(seg, minlength=valid_ids.size)
        bounds = np.zeros(valid_ids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        net_start = np.zeros(num_nets, dtype=np.int64)
        net_end = np.zeros(num_nets, dtype=np.int64)
        net_start[valid_ids] = bounds[:-1]
        net_end[valid_ids] = bounds[1:]

        # Python-list mirrors for the scalar-hot merge/sum loops.
        self._inet_offsets = offsets.tolist()
        self._inet_nets = nets.tolist()
        self._net_valid = net_valid.tolist()
        self._net_clean = net_clean.tolist()
        self._net_start = net_start.tolist()
        self._net_end = net_end.tolist()
        self._plan_pins = pins

        # Scratch sized for the widest possible merged candidate: two
        # instances' distinct nets, and all of those nets' plan pins.
        deg = np.diff(offsets)
        max_nets = 2 * int(deg.max()) if deg.size else 0
        valid_counts = np.where(net_valid[nets], net_end[nets] - net_start[nets], 0)
        pin_load = np.zeros(core.num_instances, dtype=np.int64)
        np.add.at(pin_load, np.repeat(np.arange(core.num_instances), deg), valid_counts)
        max_pins = 2 * int(pin_load.max()) if pin_load.size else 0

        m = max(max_nets, 1)
        p = max(max_pins, 1)
        self._starts_buf = np.empty(m, dtype=np.int64)
        self._pin_buf = np.empty(p, dtype=np.int64)
        self._gx_buf = np.empty(p, dtype=np.float64)
        self._gy_buf = np.empty(p, dtype=np.float64)
        self._xmax_buf = np.empty(m, dtype=np.float64)
        self._xmin_buf = np.empty(m, dtype=np.float64)
        self._ymax_buf = np.empty(m, dtype=np.float64)
        self._ymin_buf = np.empty(m, dtype=np.float64)
        self._dx_buf = np.empty(m, dtype=np.float64)
        self._dy_buf = np.empty(m, dtype=np.float64)
        self._clean_val_buf = np.empty(m, dtype=np.float64)
        self._plain_val_buf = np.empty(m, dtype=np.float64)
        self._plan_ready = True

    def _merged_nets(self, left: int, right: int) -> List[int]:
        """Ascending, de-duplicated valid nets touching either instance.

        Shared by the delta path and the reference twin so both evaluate
        candidates over the identical ordered net list.  Degenerate (<2 pin)
        nets are dropped: their HPWL is pinned at +0.0, so they contribute
        nothing to either side of the accept comparison.
        """
        offsets = self._inet_offsets
        nets = self._inet_nets
        valid = self._net_valid
        merged = sorted(
            set(nets[offsets[left] : offsets[left + 1]])
            | set(nets[offsets[right] : offsets[right + 1]])
        )
        return [t for t in merged if valid[t]]

    def _row_order(self, x: np.ndarray, y: np.ndarray) -> List[List[int]]:
        """Movable cells grouped by row, bottom-up; within a row ascending x
        (ties by instance index).  The returned lists are mutated in place
        as swaps are accepted, maintaining the x-order incrementally."""
        movable = self.core.movable_index
        if movable.size == 0:
            return []
        order = np.lexsort((movable, x[movable], y[movable]))
        cells = movable[order]
        ys = y[cells]
        breaks = np.nonzero(ys[1:] != ys[:-1])[0] + 1
        return [part.tolist() for part in np.split(cells, breaks)]

    # ------------------------------------------------------------------
    # Delta-HPWL hot path
    # ------------------------------------------------------------------
    def refine(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        *,
        max_candidates: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Return refined positions and the number of accepted swaps.

        ``max_candidates`` caps the number of evaluated pairs (benches and
        parity tests use it to compare against the per-candidate-priced
        reference twin on large designs); ``None`` means unlimited.
        """
        core = self.core
        if x is None or y is None:
            x, y = core.positions()
        x = np.asarray(x, dtype=np.float64).copy()
        y = np.asarray(y, dtype=np.float64).copy()
        self._ensure_plan()

        pin_x, pin_y = core.pin_positions(x, y)
        per_net = core.hpwl_per_net(pin_x=pin_x, pin_y=pin_y)
        rows = self._row_order(x, y)
        inst_width = core.inst_width
        ipo = core.inst_pin_offsets
        pox = core.pin_offset_x

        accepted = 0
        examined = 0
        budget = -1 if max_candidates is None else int(max_candidates)
        with span("detailed.refine", cells=int(core.movable_index.size)):
            for _ in range(self.max_passes):
                improved_this_pass = 0
                for row_cells in rows:
                    for i in range(len(row_cells) - 1):
                        if examined == budget:
                            break
                        left = row_cells[i]
                        right = row_cells[i + 1]
                        nets = self._merged_nets(left, right)
                        if not nets:
                            continue
                        examined += 1
                        if self._try_swap(
                            left, right, nets, x, pin_x, pin_y,
                            per_net, inst_width, ipo, pox,
                        ):
                            row_cells[i] = right
                            row_cells[i + 1] = left
                            accepted += 1
                            improved_this_pass += 1
                    if examined == budget:
                        break
                if improved_this_pass == 0 or examined == budget:
                    break
        return x, y, accepted

    def _try_swap(
        self,
        left: int,
        right: int,
        nets: List[int],
        x: np.ndarray,
        pin_x: np.ndarray,
        pin_y: np.ndarray,
        per_net: np.ndarray,
        inst_width: np.ndarray,
        ipo: np.ndarray,
        pox: np.ndarray,
    ) -> bool:
        """Evaluate one adjacent swap through the touched nets only.

        Tentatively rewrites both instances' (contiguous) pin slices in
        ``pin_x``, recomputes just the merged nets via the scatter plan into
        preallocated buffers, and either commits (``x``/``per_net``/pin
        slices already consistent) or restores the pin slices from the
        unchanged ``x``.  Zero per-candidate array allocation — this is the
        registered steady-state body.
        """
        before = 0.0
        for t in nets:
            before += per_net[t]

        new_right = x[left]
        new_left = x[left] + inst_width[right]

        llo, lhi = ipo[left], ipo[left + 1]
        rlo, rhi = ipo[right], ipo[right + 1]
        pin_x[llo:lhi] = new_left + pox[llo:lhi]
        pin_x[rlo:rhi] = new_right + pox[rlo:rhi]

        # Gather the touched nets' plan pins into one concatenated segment
        # list, then reduce each segment (IEEE min/max: order-independent,
        # bitwise-identical to the full vectorized pass).
        net_start = self._net_start
        net_end = self._net_end
        starts = self._starts_buf
        pin_buf = self._pin_buf
        m = len(nets)
        total = 0
        for j, t in enumerate(nets):
            starts[j] = total
            cs = net_start[t]
            ce = net_end[t]
            pin_buf[total : total + (ce - cs)] = self._plan_pins[cs:ce]
            total += ce - cs

        gx = self._gx_buf[:total]
        gy = self._gy_buf[:total]
        # Plan pins are valid pin ids; mode="clip" only keeps the take from
        # buffering out= (the default mode="raise" always does).
        np.take(pin_x, pin_buf[:total], out=gx, mode="clip")
        np.take(pin_y, pin_buf[:total], out=gy, mode="clip")
        xmax = self._xmax_buf[:m]
        xmin = self._xmin_buf[:m]
        ymax = self._ymax_buf[:m]
        ymin = self._ymin_buf[:m]
        np.maximum.reduceat(gx, starts[:m], out=xmax)
        np.minimum.reduceat(gx, starts[:m], out=xmin)
        np.maximum.reduceat(gy, starts[:m], out=ymax)
        np.minimum.reduceat(gy, starts[:m], out=ymin)

        # Replay hpwl_per_net's historical grouping split per net:
        # "clean" nets fold left-associated, the rest pair the axes.
        dx = self._dx_buf[:m]
        dy = self._dy_buf[:m]
        np.subtract(xmax, xmin, out=dx)
        np.subtract(ymax, ymin, out=dy)
        clean_val = self._clean_val_buf[:m]
        plain_val = self._plain_val_buf[:m]
        np.add(dx, ymax, out=clean_val)
        np.subtract(clean_val, ymin, out=clean_val)
        np.add(dx, dy, out=plain_val)

        net_clean = self._net_clean
        after = 0.0
        for j, t in enumerate(nets):
            after += clean_val[j] if net_clean[t] else plain_val[j]

        if after + 1e-9 < before:
            x[left] = new_left
            x[right] = new_right
            for j, t in enumerate(nets):
                per_net[t] = clean_val[j] if net_clean[t] else plain_val[j]
            return True

        # Reject: restore the tentative pin slices from the unchanged x —
        # the same gather expression that produced them originally.
        pin_x[llo:lhi] = x[left] + pox[llo:lhi]
        pin_x[rlo:rhi] = x[right] + pox[rlo:rhi]
        return False

    # ------------------------------------------------------------------
    # Reference twin (pre-PR cost model; kept for parity tests and benches)
    # ------------------------------------------------------------------
    def _reference_refine(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        *,
        max_candidates: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Full-recompute twin of :meth:`refine` (bitwise-identical result).

        Same candidate ordering, same merge helper, same left-to-right net
        sums — but every candidate pays a full ``hpwl_per_net`` pass over
        the design for both sides of the comparison plus an ``x.copy()``,
        which is exactly the pre-PR cost model the delta engine replaces.
        """
        core = self.core
        if x is None or y is None:
            x, y = core.positions()
        x = np.asarray(x, dtype=np.float64).copy()
        y = np.asarray(y, dtype=np.float64).copy()
        self._ensure_plan()

        rows = self._row_order(x, y)
        inst_width = core.inst_width

        accepted = 0
        examined = 0
        budget = -1 if max_candidates is None else int(max_candidates)
        for _ in range(self.max_passes):
            improved_this_pass = 0
            for row_cells in rows:
                for i in range(len(row_cells) - 1):
                    if examined == budget:
                        break
                    left = row_cells[i]
                    right = row_cells[i + 1]
                    nets = self._merged_nets(left, right)
                    if not nets:
                        continue
                    examined += 1
                    base = core.hpwl_per_net(x, y)
                    before = 0.0
                    for t in nets:
                        before += base[t]
                    new_x = x.copy()
                    # Swap: right cell takes left's slot, left goes after it.
                    new_x[right] = x[left]
                    new_x[left] = x[left] + inst_width[right]
                    trial = core.hpwl_per_net(new_x, y)
                    after = 0.0
                    for t in nets:
                        after += trial[t]
                    if after + 1e-9 < before:
                        x = new_x
                        row_cells[i] = right
                        row_cells[i + 1] = left
                        accepted += 1
                        improved_this_pass += 1
                if examined == budget:
                    break
            if improved_this_pass == 0 or examined == budget:
                break
        return x, y, accepted

    def apply(self, x: np.ndarray, y: np.ndarray) -> None:
        self.core.set_positions(x, y)
