"""Reusable buffer arena for the global-place inner loop.

The nonlinear placer evaluates the same gradient pipeline ~600 times per
run; before PR 7 every iteration re-allocated each work array (pin gathers,
exponential terms, combined gradients, preconditioner).  The arena is a
small named-buffer pool owned by :class:`~repro.placement.global_placer.
GlobalPlacer` and shared with the wirelength model: a buffer is allocated
the first time a name is requested and reused verbatim on every subsequent
request with the same shape/dtype, so steady-state iterations perform no
arena allocations (``allocations`` stops growing after iteration one —
asserted by the tests).

Numerical contract: arena reuse never changes results.  Consumers write
buffers with ``out=``-style element-wise operations whose values are
bitwise identical to the allocating expressions they replaced; callers that
hold onto a returned array across iterations must copy it (the optimizer
copies its ``prev_grad`` state for exactly this reason).
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

Shape = Union[int, Tuple[int, ...]]


class IterationArena:
    """Named pool of preallocated numpy buffers."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        # Total np.empty calls; steady-state iterations must not grow this.
        self.allocations = 0

    def array(self, name: str, shape: Shape, dtype=np.float64) -> np.ndarray:
        """Uninitialized buffer for ``name`` (reused while shape/dtype match)."""
        if isinstance(shape, int):
            shape = (shape,)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
            self.allocations += 1
        return buf

    def zeros(self, name: str, shape: Shape, dtype=np.float64) -> np.ndarray:
        """Zero-filled buffer (bitwise identical to a fresh ``np.zeros``)."""
        buf = self.array(name, shape, dtype)
        buf.fill(0)
        return buf

    def gather_pins(
        self, core, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Absolute pin coordinates into reused buffers.

        Bitwise identical to ``core.pin_positions(x, y)``: ``np.take`` is an
        exact copy and the in-place add rounds identically to the allocating
        ``x[pin_instance] + pin_offset_x``.  ``pin_instance`` is in range by
        construction, so ``mode="clip"`` never clips; it only keeps NumPy
        from buffering ``out=`` as the default ``mode="raise"`` does.
        """
        pin_x = self.array("pin_x", core.num_pins)
        pin_y = self.array("pin_y", core.num_pins)
        np.take(x, core.pin_instance, out=pin_x, mode="clip")
        pin_x += core.pin_offset_x
        np.take(y, core.pin_instance, out=pin_y, mode="clip")
        pin_y += core.pin_offset_y
        return pin_x, pin_y
