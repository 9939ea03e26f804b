"""Vectorized RUDY / pin-density congestion estimation.

RUDY (Rectangular Uniform wire DensitY, Spindler & Johannes, DATE 2007) is
the classic placement-time routing-demand model: every net is assumed to
consume its bounding-box wirelength, spread uniformly over the bounding box.
It is crude compared to a global router but captures exactly the hotspots a
router will struggle with, it is differentiable in aggregate (cells moving
out of a hot bin reduce its demand), and — crucially for an inner-loop
estimator — it is O(nets + bins).

This implementation is fully array-based over :class:`~repro.netlist.core.
DesignCore`:

* per-net bounding boxes come from one ``min/max`` reduction over the
  net-major CSR pin arrays;
* each net's demand is deposited on the bins its (bin-snapped) bbox covers
  with the four-corner 2D difference trick — ``np.add.at`` on the corner
  bins followed by a double cumulative sum reconstructs the uniform fill —
  so the map build never loops over nets or bins in Python;
* demand is split into horizontal and vertical components (``x``-extent
  feeds the horizontal layer, ``y``-extent the vertical layer), matching
  the per-layer capacity model real H/V-layered metal stacks have;
* a separate pin-density map counts pins per bin (``np.bincount``); pins
  consume track segments to escape the cell, so a configurable per-pin
  wirelength is added half to each layer's demand.

Capacity comes from the floorplan: ``tracks_per_row`` horizontal tracks fit
in one row height (and the same pitch is used vertically unless overridden),
so a bin of size ``bw x bh`` offers ``bw * bh / pitch`` units of wirelength
per layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.core import DesignCore, as_core
from repro.obs import traced

__all__ = [
    "CongestionConfig",
    "CongestionResult",
    "CongestionEstimator",
    "estimate_congestion",
]


@dataclass
class CongestionConfig:
    """Knobs of the RUDY congestion model.

    The defaults are chosen so a mildly utilized sb_mini design is
    comfortably routable (ratios well below 1) while the congestion-stressed
    generator overflows — mirroring how real designs sit against real track
    capacities.
    """

    # Grid resolution; ``None`` picks a power-of-two grid with roughly 4
    # movable cells per bin (same heuristic as the density model).
    num_bins_x: Optional[int] = None
    num_bins_y: Optional[int] = None
    # Capacity model: horizontal routing tracks per row height.  The track
    # pitch is ``row_height / tracks_per_row`` for the horizontal layer and
    # the same pitch for the vertical layer unless ``v_track_pitch`` is set.
    tracks_per_row: float = 8.0
    v_track_pitch: Optional[float] = None
    # Wirelength (in layout units) each pin adds for escape routing, split
    # evenly between the two layers.  0 disables the pin term.
    pin_wire_length: float = 0.5
    # Nets with more pins than this are skipped (clock / reset meshes are
    # routed on dedicated resources, and their full-die bbox would only add
    # a uniform pedestal to the map).
    max_net_degree: int = 64
    # Reporting.
    top_k_hotspots: int = 10
    ace_fractions: Tuple[float, ...] = (0.005, 0.01, 0.02, 0.05)

    def validate(self) -> None:
        if self.tracks_per_row <= 0:
            raise ValueError("tracks_per_row must be positive")
        if self.v_track_pitch is not None and self.v_track_pitch <= 0:
            raise ValueError("v_track_pitch must be positive")
        if self.pin_wire_length < 0:
            raise ValueError("pin_wire_length must be non-negative")
        if self.max_net_degree < 2:
            raise ValueError("max_net_degree must be at least 2")


@dataclass
class CongestionResult:
    """Demand / capacity / overflow grids plus summary congestion scores.

    All grids are indexed ``[bin_x, bin_y]``.  ``ratio`` is the worst of the
    two layers' demand/capacity ratios per bin — the quantity routers and
    the inflation loop react to.  ``overflow`` is ``max(ratio - 1, 0)``.
    """

    demand_h: np.ndarray
    demand_v: np.ndarray
    capacity_h: float
    capacity_v: float
    pin_density: np.ndarray
    bin_w: float
    bin_h: float
    die_xl: float
    die_yl: float
    # Active-net bounding boxes (xmin, xmax, ymin, ymax) the map build
    # already reduced from the CSR pin arrays; per-net consumers (e.g.
    # congestion net weighting) reuse them instead of repeating the O(pins)
    # reduction on the same positions.
    net_bboxes: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )
    _ratio: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @property
    def num_bins_x(self) -> int:
        return int(self.demand_h.shape[0])

    @property
    def num_bins_y(self) -> int:
        return int(self.demand_h.shape[1])

    @property
    def ratio(self) -> np.ndarray:
        """Per-bin congestion ratio: worst layer demand over capacity."""
        if self._ratio is None:
            self._ratio = np.maximum(
                self.demand_h / self.capacity_h, self.demand_v / self.capacity_v
            )
        return self._ratio

    @property
    def overflow(self) -> np.ndarray:
        """Per-bin overflow: congestion ratio beyond capacity (>= 0)."""
        return np.maximum(self.ratio - 1.0, 0.0)

    @property
    def peak_ratio(self) -> float:
        return float(self.ratio.max()) if self.ratio.size else 0.0

    @property
    def peak_overflow(self) -> float:
        return float(max(self.peak_ratio - 1.0, 0.0))

    @property
    def average_overflow(self) -> float:
        return float(self.overflow.mean()) if self.ratio.size else 0.0

    @property
    def num_hotspots(self) -> int:
        """Number of bins whose demand exceeds capacity."""
        return int(np.count_nonzero(self.ratio > 1.0))

    def hotspots(self, k: int = 10) -> List[Dict[str, float]]:
        """The ``k`` most congested bins, worst first, with coordinates."""
        ratio = self.ratio
        if ratio.size == 0 or k <= 0:
            return []
        flat = ratio.ravel()
        k = min(k, flat.size)
        top = np.argpartition(flat, -k)[-k:]
        top = top[np.argsort(flat[top])[::-1]]
        ix, iy = np.unravel_index(top, ratio.shape)
        return [
            {
                "bin_x": int(i),
                "bin_y": int(j),
                "x": float(self.die_xl + (i + 0.5) * self.bin_w),
                "y": float(self.die_yl + (j + 0.5) * self.bin_h),
                "ratio": float(ratio[i, j]),
                "overflow": float(max(ratio[i, j] - 1.0, 0.0)),
                "pins": int(self.pin_density[i, j]),
            }
            for i, j in zip(ix, iy)
        ]

    def ace(self, fraction: float) -> float:
        """Average Congestion of Edges: mean ratio of the worst ``fraction``
        of bins (the ISPD-2011 contest metric, computed on bins here)."""
        ratio = self.ratio
        if ratio.size == 0:
            return 0.0
        count = max(1, int(round(fraction * ratio.size)))
        flat = ratio.ravel()
        worst = np.partition(flat, flat.size - count)[flat.size - count:]
        return float(worst.mean())

    def ace_scores(self, fractions: Tuple[float, ...] = (0.005, 0.01, 0.02, 0.05)) -> Dict[str, float]:
        return {f"ace_{100 * f:g}pct": self.ace(f) for f in fractions}

    def weighted_congestion(
        self, fractions: Tuple[float, ...] = (0.005, 0.01, 0.02, 0.05)
    ) -> float:
        """Peak-weighted ACE score: mean of the ACE values over ``fractions``
        (each emphasizing the peak more strongly as the fraction shrinks)."""
        if not fractions:
            return 0.0
        return float(np.mean([self.ace(f) for f in fractions]))

    def summary(self) -> Dict[str, float]:
        """Flat JSON-friendly summary of the headline congestion metrics."""
        out = {
            "grid": [self.num_bins_x, self.num_bins_y],
            "peak_ratio": round(self.peak_ratio, 6),
            "peak_overflow": round(self.peak_overflow, 6),
            "average_overflow": round(self.average_overflow, 6),
            "hotspot_bins": self.num_hotspots,
            "weighted_congestion": round(self.weighted_congestion(), 6),
            "max_pin_density": int(self.pin_density.max()) if self.pin_density.size else 0,
        }
        out.update({k: round(v, 6) for k, v in self.ace_scores().items()})
        return out


class CongestionEstimator:
    """Builds RUDY + pin-density maps for one design's positions.

    Construction precomputes everything position-independent (grid geometry,
    the net filter, per-layer capacities); :meth:`estimate` is then a pure
    array pipeline over the positions handed in.
    """

    def __init__(
        self,
        design,
        config: Optional[CongestionConfig] = None,
    ) -> None:
        core = as_core(design)
        self.core: DesignCore = core
        self.config = config if config is not None else CongestionConfig()
        self.config.validate()
        die = core.die
        nbx, nby = self.config.num_bins_x, self.config.num_bins_y
        if nbx is None or nby is None:
            # Same auto-grid heuristic as the density model, shared so the
            # density and congestion grids stay in correspondence.
            from repro.placement.density import auto_bin_count

            bins = auto_bin_count(int(core.movable_mask.sum()))
            nbx = nbx or bins
            nby = nby or bins
        self.num_bins_x = int(nbx)
        self.num_bins_y = int(nby)
        self.bin_w = die.width / self.num_bins_x
        self.bin_h = die.height / self.num_bins_y

        # Per-layer capacity of one bin, in wirelength units: the number of
        # tracks crossing the bin times the bin extent along the track
        # direction, i.e. bin_area / pitch for both layers.
        h_pitch = core.row_height / self.config.tracks_per_row
        v_pitch = (
            float(self.config.v_track_pitch)
            if self.config.v_track_pitch is not None
            else h_pitch
        )
        bin_area = self.bin_w * self.bin_h
        self.capacity_h = bin_area / h_pitch
        self.capacity_v = bin_area / v_pitch

        # Net filter: nets small enough to be routed as ordinary signal nets.
        counts = np.diff(core.net_pin_offsets)
        self._net_active = (counts >= 2) & (counts <= self.config.max_net_degree)
        # CSR rows of the active nets only (bbox reduction never sees the
        # skipped clock-class nets).
        active_csr_mask = self._net_active[core.csr_net]
        self._csr_pins = core.net_pin_index[active_csr_mask]
        self._active_ids = np.nonzero(self._net_active)[0]
        # Active nets are contiguous segments of ``_csr_pins``; these offsets
        # (one row per active net) drive the segmented min/max reductions.
        active_counts = counts[self._active_ids]
        self._active_csr_offsets = np.concatenate(
            ([0], np.cumsum(active_counts))
        ).astype(np.int64)

    @property
    def active_net_ids(self) -> np.ndarray:
        """Net ids the estimator models (degree within ``[2, max_net_degree]``)."""
        return self._active_ids

    # ------------------------------------------------------------------
    def net_bboxes(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        pin_xy: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bounding boxes (xmin, xmax, ymin, ymax) of the active nets.

        ``pin_xy`` lets a caller that already materialized the absolute pin
        coordinates (``estimate`` needs them for the pin-density map too)
        avoid a second O(pins) gather.
        """
        core = self.core
        pin_x, pin_y = pin_xy if pin_xy is not None else core.pin_positions(x, y)
        if self._active_ids.size == 0:
            empty = np.zeros(0, dtype=np.float64)
            return empty, empty.copy(), empty.copy(), empty.copy()
        px = pin_x[self._csr_pins]
        py = pin_y[self._csr_pins]
        # Segmented reduction over the per-net CSR rows.  min/max are exact
        # (order-independent), so this matches the historical
        # ``np.minimum.at`` scatter reduction bit for bit while skipping the
        # slow element-at-a-time ufunc.at path.
        starts = self._active_csr_offsets[:-1]
        xmin = np.minimum.reduceat(px, starts)
        xmax = np.maximum.reduceat(px, starts)
        ymin = np.minimum.reduceat(py, starts)
        ymax = np.maximum.reduceat(py, starts)
        return xmin, xmax, ymin, ymax

    def _bin_range(
        self, lo: np.ndarray, hi: np.ndarray, origin: float, width: float, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Inclusive bin index range covered by the interval [lo, hi]."""
        i0 = np.clip(np.floor((lo - origin) / width).astype(np.int64), 0, count - 1)
        i1 = np.clip(np.floor((hi - origin) / width).astype(np.int64), 0, count - 1)
        return i0, np.maximum(i1, i0)

    def net_bin_spans(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        bboxes: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Inclusive bin-index spans ``(ix0, ix1, iy0, iy1)`` of the active
        nets' bounding boxes — the grid footprint each net's RUDY demand
        covers.  ``bboxes`` lets a caller reuse boxes from :meth:`net_bboxes`.
        """
        die = self.core.die
        xmin, xmax, ymin, ymax = (
            bboxes if bboxes is not None else self.net_bboxes(x, y)
        )
        ix0, ix1 = self._bin_range(xmin, xmax, die.xl, self.bin_w, self.num_bins_x)
        iy0, iy1 = self._bin_range(ymin, ymax, die.yl, self.bin_h, self.num_bins_y)
        return ix0, ix1, iy0, iy1

    @staticmethod
    def _splat(
        shape: Tuple[int, int],
        ix0: np.ndarray,
        ix1: np.ndarray,
        iy0: np.ndarray,
        iy1: np.ndarray,
        value: np.ndarray,
    ) -> np.ndarray:
        """Deposit ``value[e]`` uniformly on bins ``[ix0..ix1] x [iy0..iy1]``.

        Four-corner difference + double cumsum: exact, O(nets + bins), no
        Python loop.  ``value`` is the *per-bin* contribution of each net.
        """
        nbx, nby = shape
        grid = np.zeros((nbx + 1) * (nby + 1), dtype=np.float64)
        stride = nby + 1
        np.add.at(grid, ix0 * stride + iy0, value)
        np.add.at(grid, ix0 * stride + (iy1 + 1), -value)
        np.add.at(grid, (ix1 + 1) * stride + iy0, -value)
        np.add.at(grid, (ix1 + 1) * stride + (iy1 + 1), value)
        grid = grid.reshape(nbx + 1, nby + 1)
        np.cumsum(grid, axis=0, out=grid)
        np.cumsum(grid, axis=1, out=grid)
        return np.ascontiguousarray(grid[:nbx, :nby])

    # ------------------------------------------------------------------
    @traced("route.congestion")
    def estimate(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> CongestionResult:
        """Build the congestion maps for instance positions ``(x, y)``."""
        core = self.core
        if x is None or y is None:
            x, y = core.x, core.y
        die = core.die
        shape = (self.num_bins_x, self.num_bins_y)

        pin_x, pin_y = core.pin_positions(x, y)
        xmin, xmax, ymin, ymax = self.net_bboxes(x, y, pin_xy=(pin_x, pin_y))
        ix0, ix1 = self._bin_range(xmin, xmax, die.xl, self.bin_w, self.num_bins_x)
        iy0, iy1 = self._bin_range(ymin, ymax, die.yl, self.bin_h, self.num_bins_y)
        ncov = ((ix1 - ix0 + 1) * (iy1 - iy0 + 1)).astype(np.float64)
        weight = core.net_weight[self._active_ids]
        demand_h = self._splat(shape, ix0, ix1, iy0, iy1, weight * (xmax - xmin) / ncov)
        demand_v = self._splat(shape, ix0, ix1, iy0, iy1, weight * (ymax - ymin) / ncov)

        # Pin-density map: every pin lands in exactly one bin.
        pu = np.clip(
            np.floor((pin_x - die.xl) / self.bin_w).astype(np.int64),
            0,
            self.num_bins_x - 1,
        )
        pv = np.clip(
            np.floor((pin_y - die.yl) / self.bin_h).astype(np.int64),
            0,
            self.num_bins_y - 1,
        )
        pin_density = (
            np.bincount(
                pu * self.num_bins_y + pv, minlength=self.num_bins_x * self.num_bins_y
            )
            .reshape(shape)
            .astype(np.float64)
        )

        if self.config.pin_wire_length > 0:
            pin_demand = 0.5 * self.config.pin_wire_length * pin_density
            demand_h = demand_h + pin_demand
            demand_v = demand_v + pin_demand

        return CongestionResult(
            demand_h=demand_h,
            demand_v=demand_v,
            capacity_h=self.capacity_h,
            capacity_v=self.capacity_v,
            pin_density=pin_density,
            bin_w=self.bin_w,
            bin_h=self.bin_h,
            die_xl=die.xl,
            die_yl=die.yl,
            net_bboxes=(xmin, xmax, ymin, ymax),
        )

    # ------------------------------------------------------------------
    def cell_bins(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bin index of every instance's center (used by the inflation map)."""
        core = self.core
        die = core.die
        cx = x + 0.5 * core.inst_width
        cy = y + 0.5 * core.inst_height
        bx = np.clip(
            np.floor((cx - die.xl) / self.bin_w).astype(np.int64),
            0,
            self.num_bins_x - 1,
        )
        by = np.clip(
            np.floor((cy - die.yl) / self.bin_h).astype(np.int64),
            0,
            self.num_bins_y - 1,
        )
        return bx, by


def estimate_congestion(
    design,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    *,
    config: Optional[CongestionConfig] = None,
) -> CongestionResult:
    """One-shot convenience wrapper around :class:`CongestionEstimator`."""
    return CongestionEstimator(design, config).estimate(x, y)
