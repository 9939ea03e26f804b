"""Shard kernels dispatched by the parallel kernel engine.

A kernel is a named function ``fn(arrays, args) -> result`` where ``arrays``
is a flat ``{name: ndarray}`` namespace (the union of the shared blocks a
call was given) and ``args`` is a small picklable tuple — almost always a
contiguous index range ``(start, end)`` plus a few scalars.  Kernels are
looked up *by name* so worker processes never unpickle closures: the parent
sends ``("run", name, ...)`` and the worker resolves the same registry.

Bit-exactness contract
----------------------

Every kernel here performs only work whose result is independent of the
shard decomposition:

* elementwise arithmetic (per-pin coordinates, per-cell splat weights) —
  trivially identical per element;
* ``min``/``max`` reductions over fixed index sets (net bounding boxes) —
  IEEE min/max is associative and commutative for the NaN-free inputs these
  paths produce, so any grouping yields the same bits;
* integer accumulation (pin-density counts) — exact under any summation
  order;
* per-net sequential folds over *whole* nets (the WA-wirelength
  ``np.bincount`` sums) — every net lives entirely inside one shard, so
  each per-net fold sees the same addends in the same order as the serial
  single-pass ``bincount``.

Order-sensitive floating-point scatter-adds (``np.add.at`` on the RUDY
corner grid, the cloud-in-cell density deposit) are deliberately **not**
sharded: workers only produce the per-element indices and values, and the
parent replays the scatter in the exact serial order.  This is what lets the
``workers=N`` paths promise bitwise equality with ``workers=0`` instead of
"equal up to roundoff".
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

__all__ = ["register_kernel", "get_kernel", "run_kernel", "kernel_names"]

Kernel = Callable[[Dict[str, np.ndarray], tuple], object]

_KERNELS: Dict[str, Kernel] = {}


def register_kernel(name: str) -> Callable[[Kernel], Kernel]:
    """Class-level decorator registering ``fn`` under ``name``."""

    def wrap(fn: Kernel) -> Kernel:
        if name in _KERNELS:
            raise ValueError(f"kernel {name!r} already registered")
        _KERNELS[name] = fn
        return fn

    return wrap


def get_kernel(name: str) -> Kernel:
    try:
        return _KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; known: {sorted(_KERNELS)}") from None


def run_kernel(name: str, arrays: Dict[str, np.ndarray], args: tuple) -> object:
    """Execute one kernel inline (used by workers and the serial runner)."""
    return get_kernel(name)(arrays, args)


def kernel_names() -> tuple:
    return tuple(sorted(_KERNELS))


# ----------------------------------------------------------------------
# RUDY congestion kernels
# ----------------------------------------------------------------------
@register_kernel("rudy_bbox")
def _rudy_bbox(a: Dict[str, np.ndarray], args: tuple) -> None:
    """Bounding boxes of active nets ``[s, e)`` from the filtered CSR pins.

    Writes ``bbox_{xmin,xmax,ymin,ymax}[s:e]``.  Per-pin coordinates use the
    same ``x[pin_instance] + pin_offset`` expression as
    ``DesignCore.pin_positions`` and the min/max reduction is exact, so the
    result matches the serial reduction bit for bit.
    """
    s, e = args
    if e <= s:
        return None
    offsets = a["active_csr_offsets"]
    lo = int(offsets[s])
    hi = int(offsets[e])
    pins = a["csr_pins"][lo:hi]
    inst = a["pin_instance"][pins]
    px = a["x"][inst] + a["pin_offset_x"][pins]
    py = a["y"][inst] + a["pin_offset_y"][pins]
    starts = (offsets[s:e] - lo).astype(np.int64)
    a["bbox_xmin"][s:e] = np.minimum.reduceat(px, starts)
    a["bbox_xmax"][s:e] = np.maximum.reduceat(px, starts)
    a["bbox_ymin"][s:e] = np.minimum.reduceat(py, starts)
    a["bbox_ymax"][s:e] = np.maximum.reduceat(py, starts)
    return None


@register_kernel("pin_bins")
def _pin_bins(a: Dict[str, np.ndarray], args: tuple) -> np.ndarray:
    """Integer pin-density counts for pins ``[s, e)`` over the full grid.

    Returns an ``int64`` flat partial grid; partials sum exactly, so the
    parent's shard-order total equals the serial single-pass ``bincount``.
    """
    s, e, nbx, nby, xl, yl, bin_w, bin_h = args
    inst = a["pin_instance"][s:e]
    px = a["x"][inst] + a["pin_offset_x"][s:e]
    py = a["y"][inst] + a["pin_offset_y"][s:e]
    pu = np.clip(np.floor((px - xl) / bin_w).astype(np.int64), 0, nbx - 1)
    pv = np.clip(np.floor((py - yl) / bin_h).astype(np.int64), 0, nby - 1)
    return np.bincount(pu * nby + pv, minlength=nbx * nby)


# ----------------------------------------------------------------------
# Density splat kernel
# ----------------------------------------------------------------------
@register_kernel("density_terms")
def _density_terms(a: Dict[str, np.ndarray], args: tuple) -> None:
    """Cloud-in-cell geometry and weights for movable cells ``[s, e)``.

    Writes each cell's four flat corner indices and corner weights into
    ``flat_idx``/``flat_w`` (corner-major: slot ``k * n + i`` is corner
    ``k`` of cell ``i``, the serial splat's layout, with the expressions of
    ``ElectrostaticDensity._reference_splat``) and its fractional offsets
    into ``fu``/``fv`` for the field sampler.  The parent runs the deposit
    ``bincount`` in serial order, so the grid matches the serial splat bit
    for bit.
    """
    s, e, xl, yl, bin_w, bin_h, nbx, nby = args
    n = a["movable"].size
    mov = a["movable"][s:e]
    cx = a["x"][mov] + a["half_w"][s:e]
    cy = a["y"][mov] + a["half_h"][s:e]
    u = (cx - xl) / bin_w - 0.5
    v = (cy - yl) / bin_h - 0.5
    u = np.clip(u, 0.0, nbx - 1.0)
    v = np.clip(v, 0.0, nby - 1.0)
    iu = np.floor(u).astype(np.int64)
    iv = np.floor(v).astype(np.int64)
    iu1 = np.minimum(iu + 1, nbx - 1)
    iv1 = np.minimum(iv + 1, nby - 1)
    fu = u - iu
    fv = v - iv
    area = a["area"][s:e]
    idx = a["flat_idx"]
    w = a["flat_w"]
    idx[s:e] = iu * nby + iv
    idx[n + s : n + e] = iu1 * nby + iv
    idx[2 * n + s : 2 * n + e] = iu * nby + iv1
    idx[3 * n + s : 3 * n + e] = iu1 * nby + iv1
    w[s:e] = area * (1 - fu) * (1 - fv)
    w[n + s : n + e] = area * fu * (1 - fv)
    w[2 * n + s : 2 * n + e] = area * (1 - fu) * fv
    w[3 * n + s : 3 * n + e] = area * fu * fv
    a["fu"][s:e] = fu
    a["fv"][s:e] = fv
    return None


# ----------------------------------------------------------------------
# WA wirelength kernel
# ----------------------------------------------------------------------
@register_kernel("wa_wirelength")
def _wa_wirelength(a: Dict[str, np.ndarray], args: tuple) -> None:
    """WA values and pin gradients for valid nets ``[s, e)`` (both axes).

    ``[lo, hi)`` is the matching filtered-CSR pin range (nets are whole, so
    shard boundaries never split a net).  Writes ``per_net_{x,y}[s:e]`` and
    ``pin_grad_{x,y}[lo:hi]``; the parent replays the value sum and the
    pin→instance scatter in canonical order.  All per-net reductions here
    (``maximum.at``/``minimum.at`` extrema, ``bincount`` folds) see exactly
    the pins the serial plan path feeds them, in the same order — bitwise
    identical for any worker count.  The per-net gradient factors are
    formed once per net exactly as the serial path forms them, and
    ``weighted=False`` (all-ones net weights) skips the weight multiply.
    """
    s, e, lo, hi, gamma, weighted = args
    if e <= s:
        return None
    seg = a["seg_id"][lo:hi] - s
    pinst = a["pinst"][lo:hi]
    num_local = e - s
    for axis in ("x", "y"):
        c = a[axis][pinst] + a[f"off_{axis}"][lo:hi]
        cmax = np.full(num_local, -np.inf)
        cmin = np.full(num_local, np.inf)
        np.maximum.at(cmax, seg, c)
        np.minimum.at(cmin, seg, c)
        exp_pos = np.exp((c - cmax[seg]) / gamma)
        exp_neg = np.exp((cmin[seg] - c) / gamma)
        sum_pos = np.bincount(seg, weights=exp_pos, minlength=num_local)
        sum_neg = np.bincount(seg, weights=exp_neg, minlength=num_local)
        sum_cpos = np.bincount(seg, weights=c * exp_pos, minlength=num_local)
        sum_cneg = np.bincount(seg, weights=c * exp_neg, minlength=num_local)
        with np.errstate(invalid="ignore", divide="ignore"):
            wa_max = np.where(sum_pos > 0, sum_cpos / np.maximum(sum_pos, 1e-300), 0.0)
            wa_min = np.where(sum_neg > 0, sum_cneg / np.maximum(sum_neg, 1e-300), 0.0)
        a[f"per_net_{axis}"][s:e] = wa_max - wa_min
        c_gamma = c / gamma
        scp = (sum_cpos / gamma)[seg]
        scn = (sum_cneg / gamma)[seg]
        den_pos = np.maximum(sum_pos * sum_pos, 1e-300)[seg]
        den_neg = np.maximum(sum_neg * sum_neg, 1e-300)[seg]
        grad_max = exp_pos * ((1.0 + c_gamma) * sum_pos[seg] - scp) / den_pos
        grad_min = exp_neg * ((1.0 - c_gamma) * sum_neg[seg] + scn) / den_neg
        pin_grad = grad_max - grad_min
        if weighted:
            pin_grad *= a["net_w"][s:e][seg]
        a[f"pin_grad_{axis}"][lo:hi] = pin_grad
    return None


# ----------------------------------------------------------------------
# Legalization row-band candidate kernel
# ----------------------------------------------------------------------
@register_kernel("legalize_rowband")
def _legalize_rowband(a: Dict[str, np.ndarray], args: tuple) -> None:
    """Nearest-row candidate bands for legalization cells ``[s, e)``.

    For each cell (in the legalizer's x-sorted processing order) this emits
    the ``k`` placement rows nearest to the cell's desired y, in increasing
    |row_y - y| order — the row band Abacus walks when it looks for a row
    with free capacity.  ``row_y`` is sorted ascending (rows are built
    bottom-up), so a ``searchsorted`` seed plus a two-pointer expansion
    replaces the all-rows ``argsort`` of the reference path.

    Tie-break (documented, parity-tested): when a cell sits exactly midway
    between two rows the *lower* row index is emitted first — the same
    order a stable argsort of ``|row_y - y|`` produces.  Slots past the row
    count (``k > num_rows``) are filled with ``-1``.

    Every step is elementwise over the cell slice and writes the disjoint
    ``cand_rows[s*k:e*k]`` range, so the result is independent of the shard
    decomposition; the parent replays the (order-sensitive, sequential)
    cluster insertion itself.
    """
    s, e, k = args
    if e <= s:
        return None
    row_y = a["row_y"]
    num_rows = int(row_y.size)
    y = a["cell_y"][s:e]
    m = int(y.size)
    out = a["cand_rows"]
    # searchsorted(left): row_y[hi-1] < y <= row_y[hi], so the band starts
    # at the tightest bracketing pair (lo, hi) = (hi-1, hi).
    hi = np.searchsorted(row_y, y, side="left").astype(np.int64)
    lo = hi - 1
    slots = s * k + np.arange(m, dtype=np.int64) * k
    for j in range(k):
        lo_valid = lo >= 0
        hi_valid = hi < num_rows
        # |row_y - y| without np.abs: the pointers never cross, so the
        # bracketing differences are the nonnegative distances directly.
        d_lo = np.where(lo_valid, y - row_y[np.where(lo_valid, lo, 0)], np.inf)
        d_hi = np.where(
            hi_valid, row_y[np.where(hi_valid, hi, num_rows - 1)] - y, np.inf
        )
        # <= : equidistant rows resolve to the lower index (stable order).
        take_lo = d_lo <= d_hi
        exhausted = ~lo_valid & ~hi_valid
        choice = np.where(take_lo, lo, hi)
        choice[exhausted] = -1
        out[slots + j] = choice
        advance = ~exhausted
        lo = np.where(take_lo & advance, lo - 1, lo)
        hi = np.where(~take_lo & advance, hi + 1, hi)
    return None


# ----------------------------------------------------------------------
# Self-test kernels (pool plumbing / crash-safety tests)
# ----------------------------------------------------------------------
@register_kernel("_selftest_sum")
def _selftest_sum(a: Dict[str, np.ndarray], args: tuple) -> float:
    s, e = args
    return float(np.sum(a["data"][s:e]))


@register_kernel("_selftest_scale")
def _selftest_scale(a: Dict[str, np.ndarray], args: tuple) -> None:
    s, e, factor = args
    a["out"][s:e] = a["data"][s:e] * factor
    return None


@register_kernel("_selftest_fail")
def _selftest_fail(a: Dict[str, np.ndarray], args: tuple) -> None:
    raise RuntimeError("selftest kernel failure (intentional)")
