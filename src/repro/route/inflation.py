"""Congestion-driven cell inflation (routability repair).

The classic routability-driven placement move (used by RePlAce, DREAMPlace,
and the NTUplace line): cells sitting in congested bins are virtually
*inflated* — their area, as seen by the density model, is scaled up — and
global placement is re-run.  The density force then spreads the hot region,
trading a little wirelength for routing headroom.  The loop is::

    place -> estimate congestion -> inflate hot cells -> re-place -> ...

until the peak overflow drops below target, stops improving, or a round
breaks the wirelength budget.  An over-budget round is rejected and ends
the loop: the next round could only warm-start from that rejected
placement and inflate its cells again.  Inflation factors grow
multiplicatively with clamped per-round steps and decay back toward 1 where
congestion has cleared, so repeated rounds converge instead of ratcheting
every cell up.

:class:`CellInflation` owns the per-instance factors; :func:`run_inflation_
loop` drives the iteration against any placement callback, which keeps this
module independent of the placement engine (the flow stage supplies a
callback that re-runs :class:`~repro.placement.global_placer.GlobalPlacer`
with the inflated areas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.core import as_core
from repro.route.rudy import CongestionEstimator, CongestionResult
from repro.utils.logging import get_logger

logger = get_logger("route.inflation")

__all__ = [
    "InflationConfig",
    "CellInflation",
    "InflationRound",
    "InflationOutcome",
    "run_inflation_loop",
]

# A placement callback: (x0, y0, area_scale) -> final (x, y).  The scale is
# per-instance (1.0 = no inflation) and only meaningful for movable cells.
PlaceFn = Callable[[np.ndarray, np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]

# A legalization callback: (x, y) -> legalized (x, y), used to *score*
# candidate placements on what they will actually look like after
# legalization (see InflationConfig.score_legalized).
LegalizeFn = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass
class InflationConfig:
    """Knobs of the congestion-driven inflation loop."""

    # Loop control.
    max_rounds: int = 3
    overflow_target: float = 0.05     # stop once peak overflow is below this
    min_improvement: float = 0.01     # stop when a round improves less than this
    # HPWL budget relative to the starting placement, measured on the same
    # geometry rounds are scored on: the legalized copies under
    # score_legalized (the default), the raw placements otherwise.  A round
    # over budget is rejected and ends the loop.
    max_hpwl_growth: float = 0.04     # reject rounds costing more wirelength
    # Per-cell factor dynamics.
    gamma: float = 1.0                # inflation = ratio ** gamma in hot bins
    max_step: float = 1.6             # per-round growth clamp
    max_total: float = 2.5            # accumulated growth clamp
    decay: float = 0.85               # relaxation toward 1 in cool bins
    # Score rounds on *legalized* copies of each candidate placement (when
    # the loop is given a legalizer).  Global placements overlap cells, and
    # overlap hides RUDY demand: a hot region can look clean unlegalized and
    # blow up once cells snap to rows.  Scoring the legalized copy makes the
    # accept/reject decision optimize the overflow that survives to the
    # final report instead of a mirage.  The loop still iterates (inflates /
    # warm-starts) from the raw placements.
    score_legalized: bool = True

    def validate(self) -> None:
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        for name in ("overflow_target", "min_improvement", "max_hpwl_growth"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma!r}")
        # A cap below 1 would clip every hot cell's growth to <1 and the
        # [1, max_total] clamp would then silently erase it — rounds would
        # re-run placement with zero inflation applied.
        for name in ("max_step", "max_total"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 1.0):
                raise ValueError(f"{name} must be finite and at least 1, got {value!r}")
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError("decay must be in [0, 1]")


class CellInflation:
    """Per-instance area inflation factors driven by a congestion map."""

    def __init__(self, design, config: Optional[InflationConfig] = None) -> None:
        self.core = as_core(design)
        self.config = config if config is not None else InflationConfig()
        self.config.validate()
        self.scale = np.ones(self.core.num_instances, dtype=np.float64)

    def reset(self) -> None:
        self.scale[:] = 1.0

    @property
    def num_inflated(self) -> int:
        return int(np.count_nonzero(self.scale > 1.0 + 1e-12))

    @property
    def inflated_area_ratio(self) -> float:
        """Total inflated movable area over the original movable area."""
        movable = self.core.movable_index
        area = self.core.inst_area[movable]
        total = float(area.sum())
        if total <= 0:
            return 1.0
        return float((area * self.scale[movable]).sum()) / total

    def update(
        self,
        estimator: CongestionEstimator,
        result: CongestionResult,
        x: np.ndarray,
        y: np.ndarray,
    ) -> int:
        """Grow factors of cells in overflowing bins, decay the rest.

        Returns the number of instances whose factor grew this round.
        """
        cfg = self.config
        bx, by = estimator.cell_bins(x, y)
        ratio = result.ratio[bx, by]
        movable = self.core.movable_mask
        hot = movable & (ratio > 1.0)

        grown = np.clip(ratio[hot] ** cfg.gamma, 1.0, cfg.max_step)
        self.scale[hot] *= grown
        cool = movable & ~hot
        # Decay multiplicatively toward 1 so factors release once the
        # congestion that caused them has dissolved.
        self.scale[cool] = 1.0 + (self.scale[cool] - 1.0) * cfg.decay
        np.clip(self.scale, 1.0, cfg.max_total, out=self.scale)
        self.scale[~movable] = 1.0
        return int(np.count_nonzero(hot))


@dataclass
class InflationRound:
    """Diagnostics of one estimate→inflate→place round."""

    round: int
    peak_overflow: float
    average_overflow: float
    hotspot_bins: int
    hpwl: float
    num_inflated: int
    inflated_area_ratio: float
    accepted: bool = True

    def as_dict(self) -> Dict[str, float]:
        return {
            "round": self.round,
            "peak_overflow": round(self.peak_overflow, 6),
            "average_overflow": round(self.average_overflow, 6),
            "hotspot_bins": self.hotspot_bins,
            "hpwl": round(self.hpwl, 3),
            "num_inflated": self.num_inflated,
            "inflated_area_ratio": round(self.inflated_area_ratio, 4),
            "accepted": self.accepted,
        }


@dataclass
class InflationOutcome:
    """Final state of one inflation loop."""

    x: np.ndarray
    y: np.ndarray
    result: CongestionResult
    rounds: List[InflationRound] = field(default_factory=list)
    converged: bool = False
    accepted_round: int = 0
    # Why the loop ended: "converged", "no_hot_cells", "over_budget",
    # "stalled" or "max_rounds".
    stop_reason: str = "max_rounds"

    @property
    def initial_peak_overflow(self) -> float:
        return self.rounds[0].peak_overflow if self.rounds else 0.0

    @property
    def final_peak_overflow(self) -> float:
        return self.result.peak_overflow

    def as_dict(self) -> Dict[str, object]:
        return {
            "rounds": [r.as_dict() for r in self.rounds],
            "converged": self.converged,
            "accepted_round": self.accepted_round,
            "stop_reason": self.stop_reason,
            "initial_peak_overflow": round(self.initial_peak_overflow, 6),
            "final_peak_overflow": round(self.final_peak_overflow, 6),
        }


def run_inflation_loop(
    design,
    place_fn: PlaceFn,
    x0: np.ndarray,
    y0: np.ndarray,
    *,
    estimator: Optional[CongestionEstimator] = None,
    config: Optional[InflationConfig] = None,
    legalize_fn: Optional[LegalizeFn] = None,
) -> InflationOutcome:
    """Iterate place → estimate → inflate until overflow converges.

    ``place_fn(x, y, area_scale)`` re-runs global placement warm-started at
    ``(x, y)`` with the density model seeing ``area * area_scale`` per
    instance, and returns the new positions.  The loop keeps the best
    placement seen: lowest peak overflow among rounds whose HPWL stays
    within ``config.max_hpwl_growth`` of the starting placement (the
    starting placement itself is always admissible, so a fruitless loop
    degrades nothing).  A round over that budget is recorded, rejected and
    ends the loop; the outcome's ``stop_reason`` names which exit was taken.

    With ``legalize_fn`` and ``config.score_legalized`` (the default), every
    candidate — including the starting placement — is *scored* (congestion +
    HPWL) on a legalized copy, while inflation and warm starts keep using
    the raw placements; the returned positions stay unlegalized.
    """
    core = as_core(design)
    config = config if config is not None else InflationConfig()
    config.validate()
    estimator = estimator if estimator is not None else CongestionEstimator(core)
    inflation = CellInflation(core, config)

    def score(
        raw_x: np.ndarray, raw_y: np.ndarray
    ) -> Tuple[CongestionResult, float, np.ndarray, np.ndarray]:
        sx, sy = raw_x, raw_y
        if legalize_fn is not None and config.score_legalized:
            sx, sy = legalize_fn(raw_x, raw_y)
        return estimator.estimate(sx, sy), core.total_hpwl(sx, sy), sx, sy

    x = np.asarray(x0, dtype=np.float64).copy()
    y = np.asarray(y0, dtype=np.float64).copy()
    result, base_hpwl, sx, sy = score(x, y)
    hpwl_budget = base_hpwl * (1.0 + config.max_hpwl_growth)

    rounds = [
        InflationRound(
            round=0,
            peak_overflow=result.peak_overflow,
            average_overflow=result.average_overflow,
            hotspot_bins=result.num_hotspots,
            hpwl=base_hpwl,
            num_inflated=0,
            inflated_area_ratio=1.0,
        )
    ]
    best = (x, y, result)
    best_peak = result.peak_overflow
    accepted_round = 0
    stop_reason = "converged" if best_peak <= config.overflow_target else "max_rounds"

    for round_index in range(1, config.max_rounds + 1):
        if stop_reason == "converged":
            break
        # Inflate against the scored (possibly legalized) geometry so the
        # factors target the congestion that survives legalization.
        num_inflated = inflation.update(estimator, result, sx, sy)
        if num_inflated == 0:
            stop_reason = "no_hot_cells"
            break
        x, y = place_fn(x, y, inflation.scale)
        result, hpwl, sx, sy = score(x, y)
        within_budget = hpwl <= hpwl_budget
        improved = result.peak_overflow < best_peak - config.min_improvement
        accepted = within_budget and result.peak_overflow < best_peak
        rounds.append(
            InflationRound(
                round=round_index,
                peak_overflow=result.peak_overflow,
                average_overflow=result.average_overflow,
                hotspot_bins=result.num_hotspots,
                hpwl=hpwl,
                num_inflated=num_inflated,
                inflated_area_ratio=inflation.inflated_area_ratio,
                accepted=accepted,
            )
        )
        if accepted:
            best = (x, y, result)
            best_peak = result.peak_overflow
            accepted_round = round_index
        logger.debug(
            "inflation round %d: peak overflow %.4f (best %.4f), hpwl %.4g, "
            "%d cells inflated",
            round_index,
            result.peak_overflow,
            best_peak,
            hpwl,
            num_inflated,
        )
        if best_peak <= config.overflow_target:
            stop_reason = "converged"
        elif not within_budget:
            # The next round could only warm-start from this rejected
            # placement and inflate its cells again.
            stop_reason = "over_budget"
            break
        elif not improved and round_index >= 2:
            # Two rounds without meaningful progress: the congestion left is
            # structural (capacity, not placement) — stop burning runtime.
            stop_reason = "stalled"
            break

    x, y, result = best
    return InflationOutcome(
        x=x,
        y=y,
        result=result,
        rounds=rounds,
        converged=stop_reason == "converged",
        accepted_round=accepted_round,
        stop_reason=stop_reason,
    )
