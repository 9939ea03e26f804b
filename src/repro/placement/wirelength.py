"""Wirelength models: exact HPWL and the weighted-average (WA) smooth model.

The WA model (Hsu, Chang, Balabanov, DAC'11) approximates the max/min of the
pin coordinates of a net with log-sum-exp-style weighted averages controlled
by a smoothing parameter ``gamma``; it is the wirelength model used by
DREAMPlace and therefore by every placer in this library.  Values and
gradients are computed for all nets at once from the design core's CSR
net-to-pin arrays, then pin gradients are accumulated onto instances.

Scatter plans (PR 7)
--------------------

The hot path no longer walks full-size per-net arrays or re-derives the
valid-pin filter per call.  ``__init__`` builds a *scatter plan* once — the
filtered CSR pin list is net-contiguous (the CSR expansion is net-major), so
compact segment ids drive the per-net extrema (``np.maximum.at`` over the
valid-net-sized arrays), the per-net sums and the pin→instance accumulation
run through ``np.bincount``, and all per-pin intermediates stage through
reused arena buffers instead of fresh temporaries.

Bit-exactness: ``np.bincount`` with float weights is a sequential fold in
input order, exactly like ``np.add.at`` (property-tested against the
``_reference_*`` legacy paths kept below), and IEEE min/max is
order-independent for the NaN-free inputs here.  ``np.add.reduceat`` is
deliberately **not** used for the float sums — its blocked pairwise
summation does not reproduce the sequential ``np.add.at`` fold bit for bit.

Per-pin trims (bit-identical)
-----------------------------

The model is bound by per-pin element passes, so the serial path does as
few of them as the legacy rounding allows:

* the filtered pin coordinates are gathered directly as
  ``x[pin_inst] + offset[csr_pins]`` (offsets precomputed in CSR order)
  instead of gathering every pin and then taking the CSR subset;
* every ``np.take(..., out=...)`` passes ``mode="clip"`` — the plan indices
  are in range, and the default ``mode="raise"`` always gathers into a
  hidden temporary before copying into ``out``;
* ``c/gamma`` is formed once per axis, and the per-net factors
  (``sum_c/gamma``, ``max(sum*sum, eps)``) once per net before the gather
  — the same operation on the same operands as forming them per pin;
* the all-ones default weights (:attr:`WeightedAverageWirelength.
  unit_weights`, read-only and recognized by identity) skip the per-pin
  weight take and multiply, since ``v * 1.0 == v``.

Stacking the x and y axes into one pass of twice the length was measured
and rejected: the cost is per element, not per call.

With ``workers > 0`` (or an injected runner) the evaluation shards across
the :mod:`repro.parallel` kernel pool: workers own disjoint *whole-net*
ranges, compute per-pin gradients and per-net WA values locally, and the
parent replays the instance scatter and the value sum in canonical order —
bitwise identical to serial for any worker count (same contract as the
density splat).

Every entry point takes either a :class:`repro.netlist.Design` or a bare
:class:`repro.netlist.core.DesignCore` — the smooth model never touches the
object netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.netlist.core import as_core


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

    ``workers``/``runner`` select the kernel-pool sharded evaluation
    (``workers=0``, the default, keeps the serial plan path); ``arena`` may
    be set to an :class:`repro.placement.arena.IterationArena` to reuse the
    per-pin work buffers across evaluations.
    """

    def __init__(
        self,
        design,
        *,
        gamma: float = 5.0,
        workers: int = 0,
        runner=None,
    ) -> None:
        core = as_core(design)
        self.core = core
        self.gamma = float(gamma)
        counts = np.diff(core.net_pin_offsets)
        # Only nets with at least two pins contribute wirelength.  The pin
        # filter is the O(P) per-pin count lookup, not an O(P log N)
        # ``np.isin`` against the valid-net list (same mask, tested).
        self._valid_nets = np.nonzero(counts >= 2)[0]
        valid_mask = counts[core.csr_net] >= 2
        self._csr_pins = core.net_pin_index[valid_mask]
        self._csr_net = core.csr_net[valid_mask]
        self._pin_instance = core.pin_instance
        self._num_nets = core.num_nets
        self._num_instances = core.num_instances
        self._movable_mask = core.movable_mask
        self._fixed_mask = ~core.movable_mask

        # Scatter plan.  ``csr_net`` is net-major (nondecreasing), so the
        # filtered pins stay net-contiguous: per-net segments are described
        # by their bounds (the pooled path's shard ranges), and every pin
        # knows its (compact) segment.
        valid_counts = counts[self._valid_nets]
        self._seg_bounds = np.zeros(self._valid_nets.size + 1, dtype=np.int64)
        np.cumsum(valid_counts, out=self._seg_bounds[1:])
        self._seg_id = np.repeat(
            np.arange(self._valid_nets.size, dtype=np.int64), valid_counts
        )
        # Precomputed pin→instance targets (the direct coordinate gather and
        # the bincount scatter) and CSR-ordered pin offsets.
        self._pin_inst = core.pin_instance[self._csr_pins]
        self._off_x = core.pin_offset_x[self._csr_pins]
        self._off_y = core.pin_offset_y[self._csr_pins]
        # Default all-ones net weights, read-only so that identity means
        # "unweighted": evaluations passed this array (or none) skip the
        # per-pin weight take and multiply, which cannot change a bit
        # (``w * 1.0 == w``).  GlobalPlacer starts from this array.
        self.unit_weights = np.ones(self._num_nets, dtype=np.float64)
        self.unit_weights.flags.writeable = False

        # Optional buffer arena (set by the placer).
        self.arena = None

        # Kernel-pool sharding state (mirrors ElectrostaticDensity).
        self.workers = int(workers)
        self._runner = runner
        self._runner_resolved = runner is not None
        self._block = None

    def set_gamma(self, gamma: float) -> None:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)

    # ------------------------------------------------------------------
    # Plan-based serial path
    # ------------------------------------------------------------------
    def _buffer(self, name: str, size: int) -> np.ndarray:
        if self.arena is not None:
            return self.arena.array(name, size)
        # contract: allow(alloc) reason=fallback for standalone calls with no arena attached
        return np.empty(size, dtype=np.float64)

    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        net_weights: Optional[np.ndarray] = None,
        pin_x: Optional[np.ndarray] = None,
        pin_y: Optional[np.ndarray] = None,
    ) -> WirelengthResult:
        """Smoothed wirelength and its gradient w.r.t. instance positions.

        ``pin_x``/``pin_y`` may carry precomputed absolute pin coordinates;
        when omitted the model gathers the filtered CSR pins directly from
        the instance positions.
        """
        weights = (
            self.unit_weights
            if net_weights is None
            else np.asarray(net_weights, dtype=np.float64)
        )
        weighted = weights is not self.unit_weights
        runner = self._get_runner()
        if runner is not None and self._csr_pins.size:
            return self._evaluate_pooled(runner, x, y, weights, weighted)

        c = self._buffer("wl_coord", self._csr_pins.size)
        self._gather(c, x, pin_x, self._off_x)
        value_x, pin_grad_x = self._directional(
            c, weights, axis="x", weighted=weighted
        )
        self._gather(c, y, pin_y, self._off_y)
        value_y, pin_grad_y = self._directional(
            c, weights, axis="y", weighted=weighted
        )

        grad_x = np.bincount(
            self._pin_inst, weights=pin_grad_x, minlength=self._num_instances
        )
        grad_y = np.bincount(
            self._pin_inst, weights=pin_grad_y, minlength=self._num_instances
        )
        grad_x[self._fixed_mask] = 0.0
        grad_y[self._fixed_mask] = 0.0
        return WirelengthResult(value=value_x + value_y, grad_x=grad_x, grad_y=grad_y)

    def _gather(
        self,
        out: np.ndarray,
        pos: np.ndarray,
        pin_pos: Optional[np.ndarray],
        offsets: np.ndarray,
    ) -> None:
        """Filtered-CSR pin coordinates along one axis into ``out``.

        The direct form ``pos[pin_inst] + offset[csr_pins]`` produces the
        same bits as gathering every pin with ``core.pin_positions`` and
        then taking the CSR subset: both add the same two operands per pin.
        """
        if pin_pos is None:
            np.take(pos, self._pin_inst, out=out, mode="clip")
            out += offsets
        else:
            np.take(pin_pos, self._csr_pins, out=out, mode="clip")

    def _directional(
        self,
        c: np.ndarray,
        net_weights: np.ndarray,
        *,
        axis: str = "x",
        weighted: bool = True,
    ) -> Tuple[float, np.ndarray]:
        """WA wirelength and per-CSR-pin gradient along one axis.

        Plan path: per-net extrema and sums over *compact* valid-net arrays
        (``maximum.at``/``minimum.at`` and ``bincount`` keyed by segment id),
        with every per-pin intermediate staged through a reused buffer.
        Only the returned pin gradient is per axis; the scratch buffers are
        shared by both axes.  Per-entry values are bitwise identical to the
        legacy full-size net-id formulation; the value is summed over a
        full-size per-net array so the pairwise summation tree matches the
        legacy expression exactly.  ``weighted=False`` means all-ones net
        weights, whose multiply is skipped (``v * 1.0 == v``).
        """
        gamma = self.gamma
        seg = self._seg_id
        num_valid = self._valid_nets.size
        per_net = self._zeros_buffer("wl_per_net", self._num_nets)
        if num_valid == 0:
            value = float(np.sum(per_net * net_weights))
            return value, c[:0]

        # Per-net extrema over the compact segment ids.  ``maximum.at`` /
        # ``minimum.at`` outrun ``reduceat`` for these folds, and IEEE
        # min/max are order-independent, so either formulation produces the
        # same bits.
        cmax = self._buffer("wl_cmax", num_valid)
        cmin = self._buffer("wl_cmin", num_valid)
        cmax.fill(-np.inf)
        cmin.fill(np.inf)
        np.maximum.at(cmax, seg, c)
        np.minimum.at(cmin, seg, c)
        # Every take below indexes with plan arrays that are in range by
        # construction; ``mode="clip"`` only stops NumPy from buffering
        # ``out=`` (the default ``mode="raise"`` always does).
        exp_pos = self._buffer("wl_exp_pos", c.size)
        exp_neg = self._buffer("wl_exp_neg", c.size)
        np.take(cmax, seg, out=exp_pos, mode="clip")
        np.subtract(c, exp_pos, out=exp_pos)
        exp_pos /= gamma
        np.exp(exp_pos, out=exp_pos)
        np.take(cmin, seg, out=exp_neg, mode="clip")
        exp_neg -= c
        exp_neg /= gamma
        np.exp(exp_neg, out=exp_neg)

        work = self._buffer("wl_work", c.size)
        np.multiply(c, exp_pos, out=work)
        sum_pos = np.bincount(seg, weights=exp_pos, minlength=num_valid)
        sum_cpos = np.bincount(seg, weights=work, minlength=num_valid)
        np.multiply(c, exp_neg, out=work)
        sum_neg = np.bincount(seg, weights=exp_neg, minlength=num_valid)
        sum_cneg = np.bincount(seg, weights=work, minlength=num_valid)

        # max(sum, 1e-300) keeps the division finite everywhere, so staging
        # it (maximum → divide into reused buffers, then overwrite the
        # empty-mass entries with the literal 0.0) selects exactly the bits
        # the legacy np.where expression produced.
        wa_max = self._buffer("wl_wa_max", num_valid)
        wa_min = self._buffer("wl_wa_min", num_valid)
        den = self._buffer("wl_den", num_valid)
        np.maximum(sum_pos, 1e-300, out=den)
        np.divide(sum_cpos, den, out=wa_max)
        wa_max[sum_pos <= 0.0] = 0.0
        np.maximum(sum_neg, 1e-300, out=den)
        np.divide(sum_cneg, den, out=wa_min)
        wa_min[sum_neg <= 0.0] = 0.0
        per_net[self._valid_nets] = wa_max - wa_min
        value = float(np.sum(per_net * net_weights if weighted else per_net))

        # Gradient of the WA max/min estimators w.r.t. each pin coordinate,
        # staged through reused buffers.  Every binary op keeps the operand
        # order of the legacy one-line expression, so the rounding — and
        # therefore the bits — match ``_reference_directional`` exactly.
        # Per-net factors (``scp/gamma``, ``max(sp*sp, eps)``) are formed
        # once per net and then gathered: the same elementwise operation on
        # the same operands as forming them per pin after the gather.
        sums = self._buffer("wl_sums", c.size)
        grad = self._buffer("wl_grad", c.size)
        pin_grad = self._buffer(f"wl_pin_grad_{axis}", c.size)
        # c/gamma once, shared by (1 + c/gamma) and (1 - c/gamma).
        np.divide(c, gamma, out=pin_grad)
        np.add(pin_grad, 1.0, out=grad)
        np.subtract(1.0, pin_grad, out=pin_grad)
        sum_cpos /= gamma
        sum_cneg /= gamma
        # grad_max = exp_pos * ((1 + c/gamma) * sp - scp/gamma) / max(sp*sp, eps)
        np.take(sum_pos, seg, out=sums, mode="clip")
        grad *= sums
        np.take(sum_cpos, seg, out=work, mode="clip")
        grad -= work
        grad *= exp_pos
        np.multiply(sum_pos, sum_pos, out=den)
        np.maximum(den, 1e-300, out=den)
        np.take(den, seg, out=sums, mode="clip")
        grad /= sums
        # grad_min = exp_neg * ((1 - c/gamma) * sn + scn/gamma) / max(sn*sn, eps)
        np.take(sum_neg, seg, out=sums, mode="clip")
        pin_grad *= sums
        np.take(sum_cneg, seg, out=work, mode="clip")
        pin_grad += work
        pin_grad *= exp_neg
        np.multiply(sum_neg, sum_neg, out=den)
        np.maximum(den, 1e-300, out=den)
        np.take(den, seg, out=sums, mode="clip")
        pin_grad /= sums
        # pin_grad = (grad_max - grad_min) * net_weights[csr_net]
        np.subtract(grad, pin_grad, out=pin_grad)
        if weighted:
            np.take(net_weights, self._csr_net, out=work, mode="clip")
            pin_grad *= work
        return value, pin_grad

    def _zeros_buffer(self, name: str, size: int) -> np.ndarray:
        if self.arena is not None:
            return self.arena.zeros(name, size)
        # contract: allow(alloc) reason=fallback for standalone calls with no arena attached
        return np.zeros(size, dtype=np.float64)

    # ------------------------------------------------------------------
    # Kernel-pool sharded path
    # ------------------------------------------------------------------
    def _get_runner(self):
        if not self._runner_resolved:
            self._runner_resolved = True
            if self.workers > 0:
                from repro.parallel import get_runner

                self._runner = get_runner(self.workers)
        return self._runner

    def _ensure_block(self, runner):
        if self._block is not None:
            return self._block
        num_pins = self._csr_pins.size
        num_valid = self._valid_nets.size
        core = self.core
        self._block = runner.register(
            {
                # Static plan arrays.
                "pinst": self._pin_inst,
                "off_x": self._off_x,
                "off_y": self._off_y,
                "seg_id": self._seg_id,
                # Mutable per-call inputs.
                "x": np.zeros(core.num_instances, dtype=np.float64),
                "y": np.zeros(core.num_instances, dtype=np.float64),
                "net_w": np.zeros(num_valid, dtype=np.float64),
                # Worker outputs.
                "pin_grad_x": np.zeros(num_pins, dtype=np.float64),
                "pin_grad_y": np.zeros(num_pins, dtype=np.float64),
                "per_net_x": np.zeros(num_valid, dtype=np.float64),
                "per_net_y": np.zeros(num_valid, dtype=np.float64),
            }
        )
        import weakref

        from repro.route.rudy import _release_block

        weakref.finalize(self, _release_block, runner, self._block)
        return self._block

    def _evaluate_pooled(
        self,
        runner,
        x: np.ndarray,
        y: np.ndarray,
        weights: np.ndarray,
        weighted: bool,
    ) -> WirelengthResult:
        """Sharded WA evaluation: workers own disjoint whole-net ranges and
        compute per-pin gradients + per-net WA values; the parent replays
        the value sum and the instance scatter in canonical order — bitwise
        identical to the serial plan path for any worker count."""
        from repro.parallel.engine import split_ranges

        block = self._ensure_block(runner)
        views = block.views
        views["x"][...] = x
        views["y"][...] = y
        if weighted:
            views["net_w"][...] = weights[self._valid_nets]
        seg_bounds = self._seg_bounds
        tasks = [
            (s, e, int(seg_bounds[s]), int(seg_bounds[e]), self.gamma, weighted)
            for s, e in split_ranges(self._valid_nets.size, runner.workers)
        ]
        runner.run("wa_wirelength", [block], tasks)

        values = []
        for axis in ("x", "y"):
            per_net = self._zeros_buffer("wl_per_net", self._num_nets)
            per_net[self._valid_nets] = views[f"per_net_{axis}"]
            values.append(float(np.sum(per_net * weights if weighted else per_net)))
        grad_x = np.bincount(
            self._pin_inst, weights=views["pin_grad_x"], minlength=self._num_instances
        )
        grad_y = np.bincount(
            self._pin_inst, weights=views["pin_grad_y"], minlength=self._num_instances
        )
        grad_x[self._fixed_mask] = 0.0
        grad_y[self._fixed_mask] = 0.0
        return WirelengthResult(
            value=values[0] + values[1], grad_x=grad_x, grad_y=grad_y
        )

    # ------------------------------------------------------------------
    # Legacy reference path (kept for the bitwise property tests)
    # ------------------------------------------------------------------
    def _reference_evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        net_weights: Optional[np.ndarray] = None,
        pin_x: Optional[np.ndarray] = None,
        pin_y: Optional[np.ndarray] = None,
    ) -> WirelengthResult:
        """Pre-plan evaluation via ``np.add.at``/``np.maximum.at`` (slow)."""
        if pin_x is None or pin_y is None:
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
        np.add.at(grad_x, self._pin_instance[self._csr_pins], pin_grad_x)
        np.add.at(grad_y, self._pin_instance[self._csr_pins], pin_grad_y)
        grad_x[~self._movable_mask] = 0.0
        grad_y[~self._movable_mask] = 0.0
        return WirelengthResult(value=value_x + value_y, grad_x=grad_x, grad_y=grad_y)

    def _reference_directional(
        self, coord: np.ndarray, net_weights: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Legacy WA value/gradient along one axis (unbuffered scatters)."""
        gamma = self.gamma
        pins = self._csr_pins
        nets = self._csr_net
        num_nets = self._num_nets
        c = coord[pins]

        # Stabilize exponentials per net.
        cmax = np.full(num_nets, -np.inf)
        cmin = np.full(num_nets, np.inf)
        np.maximum.at(cmax, nets, c)
        np.minimum.at(cmin, nets, c)
        exp_pos = np.exp((c - cmax[nets]) / gamma)
        exp_neg = np.exp((cmin[nets] - c) / gamma)

        sum_pos = np.bincount(nets, weights=exp_pos, minlength=num_nets)
        sum_neg = np.bincount(nets, weights=exp_neg, minlength=num_nets)
        sum_cpos = np.bincount(nets, weights=c * exp_pos, minlength=num_nets)
        sum_cneg = np.bincount(nets, weights=c * exp_neg, minlength=num_nets)

        with np.errstate(invalid="ignore", divide="ignore"):
            wa_max = np.where(sum_pos > 0, sum_cpos / np.maximum(sum_pos, 1e-300), 0.0)
            wa_min = np.where(sum_neg > 0, sum_cneg / np.maximum(sum_neg, 1e-300), 0.0)
        per_net = wa_max - wa_min
        value = float(np.sum(per_net * net_weights))

        # Gradient of the WA max/min estimators w.r.t. each pin coordinate.
        sp = sum_pos[nets]
        sn = sum_neg[nets]
        scp = sum_cpos[nets]
        scn = sum_cneg[nets]
        grad_max = exp_pos * ((1.0 + c / gamma) * sp - scp / gamma) / np.maximum(sp * sp, 1e-300)
        grad_min = exp_neg * ((1.0 - c / gamma) * sn + scn / gamma) / np.maximum(sn * sn, 1e-300)
        pin_grad = (grad_max - grad_min) * net_weights[nets]
        return value, pin_grad
