"""Single-path optimization study (Fig. 3 of the paper).

The paper visualizes what each distance loss does to one critical path: the
most critical path is extracted from a coarse placement, the cells on that
path are optimized to convergence under the HPWL / linear / quadratic
pin-pair losses (everything else frozen), and the resulting path slack is
compared.  The quadratic loss spreads the path's cells evenly (no overly long
segment), which is what minimizes the Elmore-dominated path delay.

:class:`SinglePathOptimizer` reproduces that study on any design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.losses import PairLoss, make_loss
from repro.netlist.design import Design
from repro.timing.report import TimingPath, report_timing
from repro.timing.sta import STAEngine


@dataclass
class PathOptimizationResult:
    """Outcome of optimizing one path under one loss."""

    loss_name: str
    slack_before: float
    slack_after: float
    path_length_before: float
    path_length_after: float
    positions: Tuple[np.ndarray, np.ndarray]
    iterations: int
    # (iteration, path slack) samples recorded during the descent when the
    # optimizer was asked to track the trajectory (``track_slack_every``).
    slack_history: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        return self.slack_after - self.slack_before


class SinglePathOptimizer:
    """Optimize the cells of one timing path under a pin-pair distance loss.

    Every slack query is one full STA pass of ``engine`` (a plain
    :class:`STAEngine` of the design unless one is given).
    """

    def __init__(self, design: Design, engine: Optional[STAEngine] = None) -> None:
        self.design = design
        self.engine = engine if engine is not None else STAEngine(design)

    # ------------------------------------------------------------------
    def worst_path(self) -> TimingPath:
        """The single most critical path of the current placement."""
        self.engine.update_timing()
        paths, _ = report_timing(self.engine, 1)
        if not paths:
            raise RuntimeError("Design has no constrained timing paths")
        return paths[0]

    def _path_slack(self, path: TimingPath, result) -> float:
        """Slack of this specific path under ``result``'s arc delays.

        The endpoint's pin slack reflects whatever path is worst *now*; the
        Fig. 3 study tracks the originally extracted path, so its slack is
        recomputed from that path's own arcs.
        """
        arrival = float(result.arrival[path.startpoint]) + float(
            sum(result.arc_delay[a] for a in path.arcs)
        )
        return path.required - arrival

    def path_wirelength(self, path: TimingPath, x: np.ndarray, y: np.ndarray) -> float:
        """Total Manhattan length of the path's net segments."""
        graph = self.engine.graph
        px, py = self.design.pin_positions(x, y)
        total = 0.0
        for i, j in path.pin_pairs(graph):
            total += abs(px[i] - px[j]) + abs(py[i] - py[j])
        return float(total)

    # ------------------------------------------------------------------
    def optimize(
        self,
        path: TimingPath,
        loss: PairLoss | str,
        *,
        max_iterations: int = 300,
        step_fraction: float = 0.02,
        tolerance: float = 1e-4,
        track_slack_every: int = 0,
    ) -> PathOptimizationResult:
        """Optimize the movable cells on ``path`` under ``loss`` until convergence.

        Only the instances owning the path's pins move; path endpoints that
        belong to fixed instances (ports) or flip-flops outside the path stay
        put, mirroring the paper's per-path visualization.  Gradient descent
        with a die-relative step size and simple halving on non-decrease.

        ``track_slack_every=N`` additionally samples the path's slack every
        ``N`` gradient iterations (one STA update per sample).
        """
        loss_obj = loss if isinstance(loss, PairLoss) else make_loss(loss)
        design = self.design
        arrays = design.arrays
        graph = self.engine.graph

        x, y = design.positions()
        x = x.copy()
        y = y.copy()
        before = self.engine.update_timing(x, y)
        slack_before = self._path_slack(path, before)
        length_before = self.path_wirelength(path, x, y)

        pairs = path.pin_pairs(graph)
        if not pairs:
            return PathOptimizationResult(
                loss_name=loss_obj.name,
                slack_before=slack_before,
                slack_after=slack_before,
                path_length_before=length_before,
                path_length_after=length_before,
                positions=(x, y),
                iterations=0,
            )
        pin_i = np.array([p[0] for p in pairs], dtype=np.int64)
        pin_j = np.array([p[1] for p in pairs], dtype=np.int64)
        weights = np.ones(len(pairs), dtype=np.float64)
        inst_i = arrays.pin_instance[pin_i]
        inst_j = arrays.pin_instance[pin_j]

        movable = np.unique(np.concatenate([inst_i, inst_j]))
        movable = movable[~arrays.inst_fixed[movable]]
        # Anchor the path's startpoint and endpoint instances (registers or
        # ports): the study moves only the combinational cells in between,
        # otherwise every distance loss would trivially collapse the whole
        # path onto a single point.
        anchors = {
            int(arrays.pin_instance[path.startpoint]),
            int(arrays.pin_instance[path.endpoint]),
        }
        movable = np.array([m for m in movable if int(m) not in anchors], dtype=np.int64)
        if movable.size == 0:
            movable = np.unique(np.concatenate([inst_i, inst_j]))
            movable = movable[~arrays.inst_fixed[movable]]

        die = design.die
        step = step_fraction * max(die.width, die.height)
        previous_value = np.inf
        iterations_used = 0
        slack_history: List[Tuple[int, float]] = []
        for iteration in range(1, max_iterations + 1):
            iterations_used = iteration
            px = x[arrays.pin_instance] + arrays.pin_offset_x
            py = y[arrays.pin_instance] + arrays.pin_offset_y
            value, grad_dx, grad_dy = loss_obj.evaluate(
                px[pin_i] - px[pin_j], py[pin_i] - py[pin_j], weights
            )
            grad_x = np.zeros(arrays.num_instances)
            grad_y = np.zeros(arrays.num_instances)
            np.add.at(grad_x, inst_i, grad_dx)
            np.add.at(grad_x, inst_j, -grad_dx)
            np.add.at(grad_y, inst_i, grad_dy)
            np.add.at(grad_y, inst_j, -grad_dy)

            norm = max(np.abs(grad_x[movable]).max(initial=0.0),
                       np.abs(grad_y[movable]).max(initial=0.0))
            if norm <= 1e-15:
                break
            x[movable] -= step * grad_x[movable] / norm
            y[movable] -= step * grad_y[movable] / norm
            x[movable] = np.clip(x[movable], die.xl, die.xh - arrays.inst_width[movable])
            y[movable] = np.clip(y[movable], die.yl, die.yh - arrays.inst_height[movable])

            if track_slack_every > 0 and iteration % track_slack_every == 0:
                sampled = self.engine.update_timing(x, y)
                slack_history.append((iteration, self._path_slack(path, sampled)))

            if value > previous_value - tolerance:
                step *= 0.7
                if step < 1e-3:
                    break
            previous_value = value

        after = self.engine.update_timing(x, y)
        slack_after = self._path_slack(path, after)
        length_after = self.path_wirelength(path, x, y)
        # Restore the engine's cached timing to the design's stored placement.
        self.engine.update_timing()
        return PathOptimizationResult(
            loss_name=loss_obj.name,
            slack_before=slack_before,
            slack_after=slack_after,
            path_length_before=length_before,
            path_length_after=length_after,
            positions=(x, y),
            iterations=iterations_used,
            slack_history=slack_history,
        )

    def compare_losses(
        self,
        losses: Optional[List[str]] = None,
        *,
        max_iterations: int = 300,
    ) -> List[PathOptimizationResult]:
        """Run the Fig. 3 study: optimize the worst path under each loss."""
        names = losses if losses is not None else ["hpwl", "linear", "quadratic"]
        path = self.worst_path()
        return [
            self.optimize(path, name, max_iterations=max_iterations) for name in names
        ]
