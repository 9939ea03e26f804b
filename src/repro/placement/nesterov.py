"""Nesterov accelerated gradient optimizer with Barzilai-Borwein step sizes.

This is the optimizer used by ePlace/DREAMPlace for nonlinear global
placement: Nesterov's accelerated gradient method where the step size is
estimated each iteration from the displacement/gradient-change inner products
(the BB method), clamped to a sane range derived from the die dimensions.
The optimizer is agnostic of the objective; the placer supplies a gradient
callback and applies its own preconditioning before calling :meth:`step`.

Allocation discipline (PR 7): the optimizer recycles its internal
reference/previous-iterate buffers through a small per-axis pool and keeps
owned copies of the previous gradient, so a steady-state iteration allocates
only the two ``new_major`` arrays — those escape to the placer (history,
feedbacks, the final :class:`PlacementResult`) and must stay fresh.  The
gradient callback may return buffers it reuses between calls (the placer's
iteration arena does exactly that); the owned ``prev_grad`` copies make that
safe.  All replacements are bitwise-neutral: ``np.copyto`` + in-place
arithmetic produce the same bits as the allocating expressions they
replaced, and the BB inner products run over one contiguous ``2n`` buffer
exactly like the legacy ``np.concatenate`` form.  The update itself runs
over whole vectors through owned scratch buffers and then restores the
fixed entries, which matches the boolean-mask form
(:meth:`NesterovOptimizer._reference_step_once`) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

GradientFn = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass
class OptimizerState:
    """Internal state carried across iterations."""

    major_x: np.ndarray
    major_y: np.ndarray
    reference_x: np.ndarray
    reference_y: np.ndarray
    prev_grad_x: Optional[np.ndarray] = None
    prev_grad_y: Optional[np.ndarray] = None
    prev_x: Optional[np.ndarray] = None
    prev_y: Optional[np.ndarray] = None
    momentum: float = 1.0


class NesterovOptimizer:
    """Nesterov's method with BB step estimation for placement coordinates."""

    def __init__(
        self,
        x0: np.ndarray,
        y0: np.ndarray,
        *,
        movable_mask: np.ndarray,
        min_step: float,
        max_step: float,
        initial_step: Optional[float] = None,
    ) -> None:
        if min_step <= 0 or max_step <= 0 or max_step < min_step:
            raise ValueError("Step bounds must satisfy 0 < min_step <= max_step")
        self.movable_mask = movable_mask
        self.min_step = float(min_step)
        self.max_step = float(max_step)
        self.step = float(initial_step) if initial_step is not None else float(
            np.sqrt(min_step * max_step)
        )
        self.state = OptimizerState(
            major_x=x0.copy(),
            major_y=y0.copy(),
            reference_x=x0.copy(),
            reference_y=y0.copy(),
        )
        self.iteration = 0

        # Recycled internal buffers: reference/prev iterates rotate through
        # these free lists; prev-gradient copies and the BB scratch are owned.
        n = x0.size
        self._ref_pool_x: List[np.ndarray] = []
        self._ref_pool_y: List[np.ndarray] = []
        self._prev_grad_x = np.empty(n, dtype=np.float64)
        self._prev_grad_y = np.empty(n, dtype=np.float64)
        self._bb_dx = np.empty(2 * n, dtype=np.float64)
        self._bb_dg = np.empty(2 * n, dtype=np.float64)
        # The update runs over whole vectors, staged through these owned
        # buffers; the fixed entries are then restored from this index.
        self._fixed_index = np.flatnonzero(~movable_mask)
        self._scratch_x = np.empty(n, dtype=np.float64)
        self._scratch_y = np.empty(n, dtype=np.float64)

    # ------------------------------------------------------------------
    def _bb_step(
        self,
        x: np.ndarray,
        y: np.ndarray,
        grad_x: np.ndarray,
        grad_y: np.ndarray,
    ) -> float:
        """Barzilai-Borwein step-size estimate, clamped to the allowed range."""
        state = self.state
        if state.prev_grad_x is None or state.prev_x is None:
            return self.step
        n = x.size
        dx = self._bb_dx
        dg = self._bb_dg
        np.subtract(x, state.prev_x, out=dx[:n])
        np.subtract(y, state.prev_y, out=dx[n:])
        np.subtract(grad_x, state.prev_grad_x, out=dg[:n])
        np.subtract(grad_y, state.prev_grad_y, out=dg[n:])
        dg_dot = float(np.dot(dg, dg))
        if dg_dot <= 1e-30:
            return self.step
        step = abs(float(np.dot(dx, dg))) / dg_dot
        return float(np.clip(step, self.min_step, self.max_step))

    def _take_ref(self, pool: List[np.ndarray], like: np.ndarray) -> np.ndarray:
        # contract: allow(alloc) reason=pool warm-up only; steady-state iterations pop recycled buffers
        return pool.pop() if pool else np.empty_like(like)

    def step_once(
        self,
        grad_fn: GradientFn,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Perform one Nesterov update; returns the new major solution.

        The returned arrays are freshly allocated each call (they escape to
        the caller); the gradient arrays from ``grad_fn`` are treated as
        borrowed and copied into owned state.

        The update runs over whole vectors and then restores the fixed
        entries exactly.  Each movable entry is the same IEEE operation on
        the same operands as :meth:`_reference_step_once` (``*`` commutes
        bit for bit), so the two agree bitwise even when ``grad_fn`` returns
        nonzero values at fixed entries.
        """
        state = self.state
        fixed = self._fixed_index
        scratch_x = self._scratch_x
        scratch_y = self._scratch_y
        grad_x, grad_y = self._evaluate(grad_fn)

        np.multiply(grad_x, self.step, out=scratch_x)
        np.multiply(grad_y, self.step, out=scratch_y)
        # contract: allow(alloc) reason=the new major escapes to the caller (history, result) and must stay fresh
        new_major_x = np.subtract(state.reference_x, scratch_x)
        # contract: allow(alloc) reason=the new major escapes to the caller (history, result) and must stay fresh
        new_major_y = np.subtract(state.reference_y, scratch_y)
        new_major_x[fixed] = state.reference_x[fixed]
        new_major_y[fixed] = state.reference_y[fixed]

        beta, next_momentum = self._momentum()
        new_reference_x = self._take_ref(self._ref_pool_x, new_major_x)
        new_reference_y = self._take_ref(self._ref_pool_y, new_major_y)
        np.subtract(new_major_x, state.major_x, out=scratch_x)
        np.subtract(new_major_y, state.major_y, out=scratch_y)
        scratch_x *= beta
        scratch_y *= beta
        np.add(new_major_x, scratch_x, out=new_reference_x)
        np.add(new_major_y, scratch_y, out=new_reference_y)
        new_reference_x[fixed] = new_major_x[fixed]
        new_reference_y[fixed] = new_major_y[fixed]

        self._advance(
            grad_x, grad_y, new_major_x, new_major_y,
            new_reference_x, new_reference_y, next_momentum,
        )
        return new_major_x, new_major_y

    def _reference_step_once(
        self,
        grad_fn: GradientFn,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The boolean-mask form of :meth:`step_once` (the parity golden)."""
        state = self.state
        mask = self.movable_mask
        grad_x, grad_y = self._evaluate(grad_fn)

        new_major_x = state.reference_x.copy()
        new_major_y = state.reference_y.copy()
        new_major_x[mask] -= self.step * grad_x[mask]
        new_major_y[mask] -= self.step * grad_y[mask]

        beta, next_momentum = self._momentum()
        new_reference_x = self._take_ref(self._ref_pool_x, new_major_x)
        new_reference_y = self._take_ref(self._ref_pool_y, new_major_y)
        np.copyto(new_reference_x, new_major_x)
        np.copyto(new_reference_y, new_major_y)
        new_reference_x[mask] += beta * (new_major_x[mask] - state.major_x[mask])
        new_reference_y[mask] += beta * (new_major_y[mask] - state.major_y[mask])

        self._advance(
            grad_x, grad_y, new_major_x, new_major_y,
            new_reference_x, new_reference_y, next_momentum,
        )
        return new_major_x, new_major_y

    def _evaluate(self, grad_fn: GradientFn) -> Tuple[np.ndarray, np.ndarray]:
        """The gradient at the reference solution; sets the BB step."""
        state = self.state
        grad_x, grad_y = grad_fn(state.reference_x, state.reference_y)
        self.step = self._bb_step(state.reference_x, state.reference_y, grad_x, grad_y)
        return grad_x, grad_y

    def _momentum(self) -> Tuple[float, float]:
        """``(beta, a_{k+1})`` of the Nesterov coefficient sequence
        ``a_{k+1} = (1 + sqrt(4 a_k^2 + 1)) / 2``."""
        next_momentum = 0.5 * (1.0 + np.sqrt(4.0 * self.state.momentum**2 + 1.0))
        return (self.state.momentum - 1.0) / next_momentum, next_momentum

    def _advance(
        self,
        grad_x: np.ndarray,
        grad_y: np.ndarray,
        new_major_x: np.ndarray,
        new_major_y: np.ndarray,
        new_reference_x: np.ndarray,
        new_reference_y: np.ndarray,
        next_momentum: float,
    ) -> None:
        """Rotate: the outgoing prev buffers are free again, the evaluated
        reference becomes prev, and the owned gradient copies become the
        BB history for the next iteration."""
        state = self.state
        if state.prev_x is not None:
            self._ref_pool_x.append(state.prev_x)
            self._ref_pool_y.append(state.prev_y)
        state.prev_x = state.reference_x
        state.prev_y = state.reference_y
        np.copyto(self._prev_grad_x, grad_x)
        np.copyto(self._prev_grad_y, grad_y)
        state.prev_grad_x = self._prev_grad_x
        state.prev_grad_y = self._prev_grad_y
        state.major_x = new_major_x
        state.major_y = new_major_y
        state.reference_x = new_reference_x
        state.reference_y = new_reference_y
        state.momentum = next_momentum
        self.iteration += 1

    def reset_momentum(self) -> None:
        """Restart momentum (used when the objective changes, e.g. when the
        timing term switches on or the density multiplier jumps)."""
        self.state.momentum = 1.0
        np.copyto(self.state.reference_x, self.state.major_x)
        np.copyto(self.state.reference_y, self.state.major_y)

    @property
    def solution(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.state.major_x, self.state.major_y
