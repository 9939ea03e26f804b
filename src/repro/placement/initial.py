"""Initial placement for the nonlinear solver.

DREAMPlace starts from all movable cells gathered near the die center with a
small random perturbation, which gives the electrostatic spreading force a
well-defined direction from the first iteration.  The same strategy is used
here; fixed instances (IO ports, macros) keep their positions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.netlist.core import as_core
from repro.utils.rng import SeedLike, make_rng


def initial_placement(
    design,
    *,
    spread: float = 0.12,
    seed: SeedLike = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return initial ``(x, y)`` arrays for all instances.

    Movable cells are placed around the die center with a Gaussian spread of
    ``spread`` times the die dimensions (clipped to the die); fixed instances
    keep their stored positions.  ``design`` may be a :class:`Design` or a
    bare :class:`DesignCore`.
    """
    rng = make_rng(seed)
    core = as_core(design)
    die = core.die
    x, y = core.positions()

    movable = core.movable_index
    center_x = die.xl + 0.5 * die.width
    center_y = die.yl + 0.5 * die.height
    x[movable] = center_x + rng.normal(0.0, spread * die.width, size=movable.size)
    y[movable] = center_y + rng.normal(0.0, spread * die.height, size=movable.size)

    # Keep cells fully inside the die.
    x[movable] = np.clip(
        x[movable], die.xl, die.xh - core.inst_width[movable]
    )
    y[movable] = np.clip(
        y[movable], die.yl, die.yh - core.inst_height[movable]
    )
    return x, y


def clamp_to_die(
    design, x: np.ndarray, y: np.ndarray, *, copy: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Clip movable instances so their footprint stays inside the die.

    With ``copy=False`` the inputs are clipped in place (same values bit for
    bit).  The placer's inner loop clips against per-instance bounds it
    precomputes instead, with the same values.
    """
    core = as_core(design)
    die = core.die
    movable = core.movable_index
    if copy:
        x = x.copy()
        y = y.copy()
    x[movable] = np.clip(x[movable], die.xl, die.xh - core.inst_width[movable])
    y[movable] = np.clip(y[movable], die.yl, die.yh - core.inst_height[movable])
    return x, y
