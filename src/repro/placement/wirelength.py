"""Wirelength models: exact HPWL and the weighted-average (WA) smooth model.

The WA model (Hsu, Chang, Balabanov, DAC'11) approximates the max/min of the
pin coordinates of a net with log-sum-exp-style weighted averages controlled
by a smoothing parameter ``gamma``; it is the wirelength model used by
DREAMPlace and therefore by every placer in this library.  Values and
gradients are computed for all nets at once, then pin gradients are
accumulated onto instances.

Slot-major pin layout
---------------------

``__init__`` builds a plan once per design.  Nets with at least two pins
are split by degree: for a row count ``K``, nets of degree > ``K`` form the
*tail*, and the others, sorted by degree (descending), are the *row nets*.
Row ``k < K`` holds the ``k``-th pin of every row net of degree > ``k``: a
contiguous run of the per-pin arrays whose nets are a prefix of the per-net
arrays.  The per-net folds over the row pins are ``K`` elementwise
``maximum`` / ``minimum`` / ``add`` calls on prefix slices, and the per-net
→ per-pin broadcasts are ``K`` elementwise calls against prefix slices; no
``ufunc.at``, ``bincount`` or ``take`` touches a row pin.  The tail keeps
the CSR scatter path (``maximum.at``, ``bincount`` and ``take`` by compact
segment id).  A row costs a dozen calls per axis whatever its length, and
a row pin costs less than a tail pin, so ``K`` maximizes the row pins minus
:data:`ROW_COST_PINS` per row.  A row holds at most one pin per net, so a
design with no more than :data:`ROW_COST_PINS` nets is all tail.  Every
per-pin and per-net buffer comes from the arena.

Formula
-------

Per axis, in coordinates shifted by each net's extremes::

    u = c - cmax              v = cmin - c
    ep = exp(u * (1/gamma))   en = exp(v * (1/gamma))
    S+ = sum(ep)   U = sum(u * ep)   S- = sum(en)   W = sum(v * en)
    A = w (1 - U / (gamma S+)) / S+     B = w / (gamma S+)
    C = w (1 - W / (gamma S-)) / S-     D = w / (gamma S-)
    value = sum over nets of (cmax + U / S+) - (cmin - W / S-)
    pin gradient = ep (A + B u) - en (C + D v)

The net weight ``w`` folds into the per-net factors, so no per-pin weight
is gathered.  The extreme pin of a net contributes ``exp(0) = 1``, so
``S+`` and ``S-`` are at least 1 and need no division guard.

Bit-exactness
-------------

``_reference_evaluate`` / ``_reference_directional`` compute the same
formula in plain, allocating CSR form (``np.maximum.at``, ``np.bincount``,
fancy-index gathers), and the plan path reproduces them bit for bit
(property-tested in every plan regime):

* each elementwise operation sees the same operands in the same order;
* row folds start from ``0.0`` (``-inf`` / ``inf`` for the extrema) and
  add one row at a time, which is ``np.bincount``'s sequential fold in CSR
  order, signed zeros included; IEEE min/max is order-independent for the
  NaN-free inputs here;
* pin gradients go back to CSR order through the inverse slot permutation
  before the ``np.bincount`` fold onto instances;
* each axis's value is summed over a full per-net array, as the reference
  does.

``np.add.reduceat`` is deliberately **not** used for the float sums: its
blocked pairwise summation does not reproduce the sequential fold.
Stacking the x and y axes into one ``(2, n)`` pass was measured and
rejected: a call on a ``(2, m)`` row view costs as much as two calls on
``m``-long rows, and the stacked kernel was slower on 10k- and 25k-cell
designs.

Every entry point takes either a :class:`repro.netlist.Design` or a bare
:class:`repro.netlist.core.DesignCore` — the smooth model never touches the
object netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.netlist.core import as_core

#: The fixed cost of one WA pin row, in pins taken off the scatter path: a
#: row is a dozen elementwise calls per axis whatever its length, and each
#: pin it holds saves the difference between a scatter and a contiguous
#: operation.  Measured by timing ``evaluate`` at every row count on
#: 700- to 25k-cell designs (x86_64, 2 cores, numpy 2.4): rows lose on the
#: 700-2,000-cell designs and win from about 10k pins up.
ROW_COST_PINS = 1000


def hpwl_per_net(
    design,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact half-perimeter wirelength of every net (zeros for degenerate nets)."""
    return as_core(design).hpwl_per_net(x, y)


def total_hpwl(
    design,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    *,
    net_weights: Optional[np.ndarray] = None,
) -> float:
    """Total (optionally net-weighted) HPWL of the design."""
    return as_core(design).total_hpwl(x, y, net_weights=net_weights)


@dataclass
class WirelengthResult:
    """Value and per-instance gradient of the smooth wirelength."""

    value: float
    grad_x: np.ndarray
    grad_y: np.ndarray


class WeightedAverageWirelength:
    """Weighted-average smoothed wirelength with analytic gradients.

    ``gamma`` controls smoothness: smaller values track HPWL more closely but
    yield stiffer gradients.  DREAMPlace anneals gamma with overflow; the
    :class:`repro.placement.global_placer.GlobalPlacer` does the same through
    :meth:`set_gamma`.

    ``arena`` may be set to an :class:`repro.placement.arena.IterationArena`
    to reuse the per-pin work buffers across evaluations.
    """

    def __init__(
        self,
        design,
        *,
        gamma: float = 5.0,
    ) -> None:
        core = as_core(design)
        self.core = core
        self.set_gamma(gamma)
        counts = np.diff(core.net_pin_offsets)
        # Only nets with at least two pins contribute wirelength.  The pin
        # filter is the O(P) per-pin count lookup, not an O(P log N)
        # ``np.isin`` against the valid-net list (same mask, tested).
        self._valid_nets = np.nonzero(counts >= 2)[0]
        valid_mask = counts[core.csr_net] >= 2
        self._csr_pins = core.net_pin_index[valid_mask]
        self._num_nets = core.num_nets
        self._num_instances = core.num_instances
        self._fixed_mask = ~core.movable_mask
        # CSR-ordered pin→instance targets of the gradient fold.
        self._pin_inst = core.pin_instance[self._csr_pins]
        self._build_slot_plan(counts[self._valid_nets])
        # Default all-ones net weights, read-only so that identity means
        # "unweighted": evaluations passed this array (or none) skip the
        # per-net weight take and multiplies, which cannot change a bit
        # (``w * 1.0 == w``).  GlobalPlacer starts from this array.
        self.unit_weights = np.ones(self._num_nets, dtype=np.float64)
        self.unit_weights.flags.writeable = False

        # Optional buffer arena (set by the placer).
        self.arena = None

    def _build_slot_plan(self, degree: np.ndarray) -> None:
        """Lay the filtered CSR pins out as rows (slot-major) plus a tail.

        ``degree`` is the pin count of each valid net, in valid-net order.
        Nets of degree > ``K`` form the tail.  The other nets, sorted by
        degree (descending, stable), are the row nets: row ``k < K`` holds
        the ``k``-th CSR pin of every row net of degree > ``k``, a prefix of
        the row nets.  Slots are the rows back to back, then the tail pins
        in CSR order; per-net arrays hold the row nets, then the tail nets
        in net order.
        """
        num_valid = degree.size
        # K rows hold every pin of the nets of degree <= K; K maximizes
        # those pins minus ROW_COST_PINS per row (the first maximum, so 0
        # when no row count gains).
        per_degree = np.bincount(degree, minlength=1)
        degrees = np.arange(per_degree.size)
        gain = np.cumsum(degrees * per_degree) - degrees * ROW_COST_PINS
        num_rows = int(np.argmax(gain))
        in_tail = degree > num_rows
        row_nets = np.nonzero(~in_tail)[0]
        row_nets = row_nets[np.argsort(-degree[row_nets], kind="stable")]
        tail_nets = np.nonzero(in_tail)[0]
        # Row k covers the row nets of degree > k: a prefix, since they are
        # sorted by degree.
        row_size = row_nets.size - np.cumsum(
            np.bincount(degree[row_nets], minlength=num_rows + 1)
        )[:num_rows]
        row_start = np.concatenate(([0], np.cumsum(row_size)))
        num_row_pins = int(row_start[-1])
        # Position of each valid net's first pin in the filtered CSR list.
        net_start = np.concatenate(([0], np.cumsum(degree)[:-1]))
        slot_row = np.repeat(np.arange(num_rows, dtype=np.int64), row_size)
        slot_rank = np.arange(num_row_pins, dtype=np.int64) - row_start[slot_row]
        row_slots = net_start[row_nets[slot_rank]] + slot_row
        # Tail pins keep CSR order, so their compact segment ids feed the
        # sequential-fold scatters exactly as the whole CSR list would.
        seg = np.repeat(np.arange(num_valid, dtype=np.int64), degree)
        tail_pins = np.nonzero(in_tail[seg])[0]
        self._tail_seg = (np.cumsum(in_tail) - 1)[seg[tail_pins]]

        # Filtered-CSR position of every slot, and the inverse permutation
        # that takes slot-ordered values back to CSR order.
        slot_order = np.concatenate((row_slots, tail_pins))
        self._slot_inverse = np.empty_like(slot_order)
        self._slot_inverse[slot_order] = np.arange(slot_order.size, dtype=np.int64)
        slot_pins = self._csr_pins[slot_order]
        self._slot_inst = self._pin_inst[slot_order]
        self._slot_off_x = self.core.pin_offset_x[slot_pins]
        self._slot_off_y = self.core.pin_offset_y[slot_pins]
        self._slot_nets = self._valid_nets[np.concatenate((row_nets, tail_nets))]
        # (pin slots, per-net prefix) of every row, and of the tail.
        self._rows = tuple(
            (slice(int(start), int(start + size)), slice(0, int(size)))
            for start, size in zip(row_start[:-1], row_size)
        )
        self._tail = (
            (slice(num_row_pins, slot_order.size), slice(row_nets.size, num_valid))
            if tail_nets.size
            else None
        )

    def set_gamma(self, gamma: float) -> None:
        """Set the smoothing parameter; it must be finite and positive."""
        gamma = float(gamma)
        if not (np.isfinite(gamma) and gamma > 0.0):
            raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
        self.gamma = gamma

    # ------------------------------------------------------------------
    # Slot-plan serial path
    # ------------------------------------------------------------------
    def _buffer(self, name: str, shape: Union[int, Tuple[int, int]]) -> np.ndarray:
        if self.arena is not None:
            return self.arena.array(name, shape)
        # contract: allow(alloc) reason=fallback for standalone calls with no arena attached
        return np.empty(shape, dtype=np.float64)

    def _zeros_buffer(self, name: str, size: int) -> np.ndarray:
        if self.arena is not None:
            return self.arena.zeros(name, size)
        # contract: allow(alloc) reason=fallback for standalone calls with no arena attached
        return np.zeros(size, dtype=np.float64)

    def _pin_block(self) -> np.ndarray:
        """Per-pin work rows: coordinate, u, v, exp_pos, exp_neg, work, grad.

        One arena buffer for all of them: a row view costs less than an
        arena lookup, and the kernel runs on small designs too.
        """
        return self._buffer("wl_pins", (7, self._slot_inst.size))

    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        net_weights: Optional[np.ndarray] = None,
    ) -> WirelengthResult:
        """Smoothed wirelength and its gradient w.r.t. instance positions."""
        weights = (
            self.unit_weights
            if net_weights is None
            else np.asarray(net_weights, dtype=np.float64)
        )
        weighted = weights is not self.unit_weights
        c = self._pin_block()[0]
        self._gather(c, x, self._slot_off_x)
        value_x, pin_grad = self._directional(c, weights, weighted=weighted)
        grad_x = self._to_instances(pin_grad)
        self._gather(c, y, self._slot_off_y)
        value_y, pin_grad = self._directional(c, weights, weighted=weighted)
        grad_y = self._to_instances(pin_grad)
        grad_x[self._fixed_mask] = 0.0
        grad_y[self._fixed_mask] = 0.0
        return WirelengthResult(value=value_x + value_y, grad_x=grad_x, grad_y=grad_y)

    def _gather(self, out: np.ndarray, pos: np.ndarray, offsets: np.ndarray) -> None:
        """Slot-ordered pin coordinates along one axis into ``out``.

        The direct form ``pos[slot_inst] + offset[slot_pins]`` adds the same
        two operands per pin as ``core.pin_positions`` does.  Plan indices
        are in range by construction; ``mode="clip"`` only stops NumPy from
        buffering ``out=`` (the default ``mode="raise"`` always does).
        """
        np.take(pos, self._slot_inst, out=out, mode="clip")
        out += offsets

    def _to_instances(self, pin_grad: np.ndarray) -> np.ndarray:
        """Slot-ordered pin gradients summed onto instances in CSR pin order.

        With no rows the slot order is the CSR order, and the take back
        through the inverse permutation would copy ``pin_grad`` unchanged.
        """
        if self._rows:
            csr_grad = self._pin_block()[5]
            np.take(pin_grad, self._slot_inverse, out=csr_grad, mode="clip")
            pin_grad = csr_grad
        return np.bincount(self._pin_inst, weights=pin_grad, minlength=self._num_instances)

    def _directional(
        self,
        c: np.ndarray,
        net_weights: np.ndarray,
        *,
        weighted: bool = True,
    ) -> Tuple[float, np.ndarray]:
        """WA wirelength and per-slot gradient along one axis.

        ``c`` holds the slot-ordered pin coordinates.  Per-net arrays are in
        slot-net order (row nets, then tail nets).  Every per-pin and
        per-net buffer is reused through the arena and shared by both axes;
        the returned gradient is overwritten by the next call.
        ``weighted=False`` means all-ones net weights, whose take and
        multiplies are skipped (``v * 1.0 == v``).
        """
        num_valid = self._slot_nets.size
        per_net = self._zeros_buffer("wl_per_net", self._num_nets)
        if num_valid == 0:
            value = float(np.sum(per_net * net_weights))
            return value, c[:0]
        _, u, v, exp_pos, exp_neg, work, grad = self._pin_block()
        nets = self._buffer("wl_nets", (11, num_valid))
        cmax, cmin, sum_pos, sum_u, sum_neg, sum_v, fa, fb, fc, fd, w = nets
        scratch = self._buffer("wl_tail", self._tail_seg.size)

        self._reduce(np.maximum, c, cmax, -np.inf)
        self._reduce(np.minimum, c, cmin, np.inf)
        # Shifted coordinates u = c - cmax <= 0 and v = cmin - c <= 0.
        self._spread(np.subtract, c, cmax, u, scratch)
        self._spread(np.subtract, c, cmin, v, scratch, net_first=True)
        inv_gamma = 1.0 / self.gamma
        np.multiply(u, inv_gamma, out=exp_pos)
        np.exp(exp_pos, out=exp_pos)
        np.multiply(v, inv_gamma, out=exp_neg)
        np.exp(exp_neg, out=exp_neg)

        # Per-net sums S+ = sum(ep), U = sum(u*ep), S- = sum(en), W = sum(v*en).
        self._reduce(np.add, exp_pos, sum_pos, 0.0)
        np.multiply(u, exp_pos, out=work)
        self._reduce(np.add, work, sum_u, 0.0)
        self._reduce(np.add, exp_neg, sum_neg, 0.0)
        np.multiply(v, exp_neg, out=work)
        self._reduce(np.add, work, sum_v, 0.0)

        # Per-net factors A = w(1 - U/(gS+))/S+, B = w/(gS+), and C, D
        # likewise from S- and W.  The extreme pin of a net contributes
        # exp(0) = 1, so S+ and S- are at least 1: no division guard.
        if weighted:
            np.take(net_weights, self._slot_nets, out=w, mode="clip")
        else:
            w = 1.0
        self._factors(sum_pos, sum_u, w, fa, fb, weighted)
        self._factors(sum_neg, sum_v, w, fc, fd, weighted)

        # Per-net value (cmax + U/S+) - (cmin - W/S-), summed over the full
        # per-net array like the reference.
        np.divide(sum_u, sum_pos, out=sum_u)
        sum_u += cmax
        np.divide(sum_v, sum_neg, out=sum_v)
        np.subtract(cmin, sum_v, out=sum_v)
        sum_u -= sum_v
        per_net[self._slot_nets] = sum_u
        if weighted:
            per_net *= net_weights
        value = float(np.sum(per_net))

        # Pin gradient ep(A + B u) - en(C + D v).
        self._spread(np.multiply, u, fb, grad, scratch)
        self._spread(np.add, grad, fa, grad, scratch)
        grad *= exp_pos
        self._spread(np.multiply, v, fd, work, scratch)
        self._spread(np.add, work, fc, work, scratch)
        work *= exp_neg
        grad -= work
        return value, grad

    def _reduce(self, op, pin_vals: np.ndarray, out: np.ndarray, seed: float) -> None:
        """Per-net fold of ``pin_vals`` with ``op`` (add, maximum or minimum).

        Row nets fold row by row from ``seed``: ``out[:m] = op(out[:m],
        row)``.  For ``np.add`` the seed 0.0 makes this the sequential
        CSR-order fold of ``np.bincount``, signed zeros included; IEEE min
        and max are order-independent.  Tail nets take the CSR scatter path.
        """
        rows = self._rows
        if rows:
            pins, nets = rows[0]
            op(pin_vals[pins], seed, out=out[nets])
            for pins, nets in rows[1:]:
                op(out[nets], pin_vals[pins], out=out[nets])
        if self._tail is not None:
            pins, nets = self._tail
            if op is np.add:
                out[nets] = np.bincount(
                    self._tail_seg, weights=pin_vals[pins], minlength=nets.stop - nets.start
                )
            else:
                tail = out[nets]
                tail.fill(seed)
                op.at(tail, self._tail_seg, pin_vals[pins])

    def _spread(
        self,
        op,
        pin_vals: np.ndarray,
        net_vals: np.ndarray,
        out: np.ndarray,
        scratch: np.ndarray,
        *,
        net_first: bool = False,
    ) -> None:
        """``out = op(pin, net)`` per slot, with its net's per-net value.

        ``net_first`` swaps the operands to ``op(net, pin)``.  Rows pair a
        pin run with a per-net prefix; tail pins gather their nets' values
        into ``scratch`` first (``out`` may alias ``pin_vals``).
        """
        if net_first:
            for pins, nets in self._rows:
                op(net_vals[nets], pin_vals[pins], out=out[pins])
        else:
            for pins, nets in self._rows:
                op(pin_vals[pins], net_vals[nets], out=out[pins])
        if self._tail is not None:
            pins, nets = self._tail
            np.take(net_vals[nets], self._tail_seg, out=scratch, mode="clip")
            if net_first:
                op(scratch, pin_vals[pins], out=out[pins])
            else:
                op(pin_vals[pins], scratch, out=out[pins])

    def _factors(
        self,
        total: np.ndarray,
        moment: np.ndarray,
        w,
        scale: np.ndarray,
        slope: np.ndarray,
        weighted: bool,
    ) -> None:
        """Gradient factors ``w(1 - M/(g S))/S`` and ``w/(g S)`` per net."""
        np.multiply(total, self.gamma, out=slope)
        np.divide(moment, slope, out=scale)
        np.subtract(1.0, scale, out=scale)
        if weighted:
            scale *= w
        scale /= total
        np.divide(w, slope, out=slope)

    # ------------------------------------------------------------------
    # Reference path (kept for the bitwise property tests)
    # ------------------------------------------------------------------
    def _reference_evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        net_weights: Optional[np.ndarray] = None,
    ) -> WirelengthResult:
        """The same formula in plain CSR order with ``np.add.at`` (slow)."""
        pin_x, pin_y = self.core.pin_positions(x, y)
        weights = (
            np.ones(self._num_nets, dtype=np.float64)
            if net_weights is None
            else np.asarray(net_weights, dtype=np.float64)
        )

        value_x, pin_grad_x = self._reference_directional(pin_x, weights)
        value_y, pin_grad_y = self._reference_directional(pin_y, weights)

        grad_x = np.zeros(self._num_instances, dtype=np.float64)
        grad_y = np.zeros(self._num_instances, dtype=np.float64)
        np.add.at(grad_x, self._pin_inst, pin_grad_x)
        np.add.at(grad_y, self._pin_inst, pin_grad_y)
        grad_x[self._fixed_mask] = 0.0
        grad_y[self._fixed_mask] = 0.0
        return WirelengthResult(value=value_x + value_y, grad_x=grad_x, grad_y=grad_y)

    def _reference_directional(
        self, coord: np.ndarray, net_weights: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """WA value and per-CSR-pin gradient along one axis (allocating)."""
        gamma = self.gamma
        valid = self._valid_nets
        # Compact per-net ids of the CSR pins: the valid nets in net order.
        degree = np.diff(self.core.net_pin_offsets)[valid]
        seg = np.repeat(np.arange(valid.size), degree)
        c = coord[self._csr_pins]
        w = net_weights[valid]

        cmax = np.full(valid.size, -np.inf)
        cmin = np.full(valid.size, np.inf)
        np.maximum.at(cmax, seg, c)
        np.minimum.at(cmin, seg, c)
        u = c - cmax[seg]
        v = cmin[seg] - c
        exp_pos = np.exp(u * (1.0 / gamma))
        exp_neg = np.exp(v * (1.0 / gamma))
        sum_pos = np.bincount(seg, weights=exp_pos, minlength=valid.size)
        sum_neg = np.bincount(seg, weights=exp_neg, minlength=valid.size)
        sum_u = np.bincount(seg, weights=u * exp_pos, minlength=valid.size)
        sum_v = np.bincount(seg, weights=v * exp_neg, minlength=valid.size)

        per_net = np.zeros(self._num_nets, dtype=np.float64)
        per_net[valid] = (cmax + sum_u / sum_pos) - (cmin - sum_v / sum_neg)
        value = float(np.sum(per_net * net_weights))

        fa = w * (1.0 - sum_u / (sum_pos * gamma)) / sum_pos
        fb = w / (sum_pos * gamma)
        fc = w * (1.0 - sum_v / (sum_neg * gamma)) / sum_neg
        fd = w / (sum_neg * gamma)
        pin_grad = exp_pos * (u * fb[seg] + fa[seg]) - exp_neg * (v * fd[seg] + fc[seg])
        return value, pin_grad
