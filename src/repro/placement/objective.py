"""Composable placement objective.

The paper's objective (Eq. 6) is a sum of three kinds of terms: wirelength,
density, and an optional timing term (net re-weighting folds into the
wirelength term; pin-to-pin attraction adds a new term).  To keep the
placement engine reusable by the baselines and by the proposed method, extra
terms implement the :class:`ObjectiveTerm` protocol and are simply appended
to the :class:`GlobalPlacer`'s objective.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple

import numpy as np


class ObjectiveTerm(Protocol):
    """A differentiable term added to the placement objective.

    ``weight`` is the multiplier applied by the engine (the paper's ``beta``
    for the pin-to-pin attraction term).  ``evaluate`` returns the raw value
    and its gradient with respect to every instance coordinate; the engine
    multiplies both by ``weight``.
    """

    weight: float

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
        """Return ``(value, grad_x, grad_y)`` for instance positions ``x, y``."""
        ...


class PlacementObjective:
    """Weighted sum of wirelength, density, and extra terms.

    The engine owns the wirelength/density models; this class only combines
    already-computed pieces with the extra terms so gradients from all
    sources are accumulated consistently.
    """

    def __init__(self) -> None:
        self.extra_terms: List[ObjectiveTerm] = []

    def add_term(self, term: ObjectiveTerm) -> None:
        self.extra_terms.append(term)

    def evaluate_extra(
        self,
        x: np.ndarray,
        y: np.ndarray,
        num_instances: int,
        *,
        out_x: np.ndarray = None,
        out_y: np.ndarray = None,
    ) -> Tuple[List[float], np.ndarray, np.ndarray]:
        """Evaluate all extra terms; returns values and summed weighted gradients.

        ``out_x``/``out_y`` may supply reused accumulator buffers (the
        placer's iteration arena); they are zero-filled before accumulation,
        so results are bitwise identical to the allocating form.
        """
        values: List[float] = []
        # contract: allow(alloc) reason=fallback accumulators when the caller supplies no arena buffers
        grad_x = np.zeros(num_instances, dtype=np.float64) if out_x is None else out_x
        # contract: allow(alloc) reason=fallback accumulators when the caller supplies no arena buffers
        grad_y = np.zeros(num_instances, dtype=np.float64) if out_y is None else out_y
        if out_x is not None:
            grad_x.fill(0.0)
        if out_y is not None:
            grad_y.fill(0.0)
        for term in self.extra_terms:
            value, gx, gy = term.evaluate(x, y)
            values.append(term.weight * value)
            grad_x += term.weight * gx
            grad_y += term.weight * gy
        return values, grad_x, grad_y
