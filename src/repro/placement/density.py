"""Electrostatics-based density penalty (ePlace / DREAMPlace style).

Movable cell area is splatted onto a regular bin grid, the resulting charge
density is smoothed by solving Poisson's equation with a DCT (Neumann
boundaries), and each cell experiences a force proportional to the electric
field at its location.  The penalty value is the usual electrostatic energy
``0.5 * sum(rho * psi)``, whose gradient with respect to a cell position is
``-area * E`` at the cell's center.

Two simplifications relative to the full ePlace formulation are made and
documented here because they matter only at scales far beyond this
reproduction's synthetic benchmarks:

* cells are splatted with bilinear (cloud-in-cell) weights instead of exact
  rectangle overlap — accurate when cells are small relative to bins, which
  holds for the generated standard-cell designs;
* fixed terminals (zero-area ports) carry no charge.

Each :meth:`ElectrostaticDensity.evaluate` computes the cell-to-bin
geometry (corner bins as flat grid indices, fractional offsets) once, in
the splat, and both field samples reuse it: a flat ``np.take`` of the four
corners into the deposit's weight slot, free once the deposit ``bincount``
has run.

The Poisson solve's orthonormal 2-D DCT-II and its inverse run on
``numpy.fft`` and reproduce scipy's ``dctn``/``idctn`` (``type=2``,
``norm="ortho"``) bit for bit.  The premise is numpy >= 2.0: its ``np.fft``
runs the same C++ pocketfft real FFT as ``scipy.fft``, and ``rfft`` /
``irfft`` take ``out=``.  :class:`_AxisDct` replays pocketfft's DCT-II/III
(``T_dcst23``) operation by operation on every line of one axis, each step
one IEEE operation on the same operands (a negated twiddle turns a
subtraction into the same-valued addition):

* the axes run in scipy's order, axis 0 then axis 1, and the whole
  ``1 / sqrt(4 nx ny)`` factor (computed in long double) multiplies the
  FFT output of the axis-0 pass only;
* DCT-II: ``c[0] *= 2`` (and ``c[n-1]`` for even n); for odd
  ``k < n-1`` the pair ``c[k] + c[k+1]``, ``c[k+1] - c[k]``; the result,
  read as FFTPACK half-complex, goes through ``irfft(norm="forward")``;
  then the twiddle butterfly ``t1 = tw[k-1] c[n-k] + tw[n-k-1] c[k]``,
  ``t2 = tw[k-1] c[k] - tw[n-k-1] c[n-k]``, ``c[k] = 0.5 (t1 + t2)``,
  ``c[n-k] = 0.5 (t1 - t2)`` for ``k < (n+1)//2``, ``c[n/2] *= tw[n/2-1]``
  for even n, and ``c[0] *= sqrt(2)/2``;
* DCT-III is the mirror image: ``c[0] *= sqrt(2)``, the butterfly
  ``c[k] = tw[k-1] t2 + tw[n-k-1] t1``, ``c[n-k] = tw[k-1] t1 - tw[n-k-1] t2``
  on ``t1, t2 = c[k] + c[n-k], c[k] - c[n-k]``, ``c[n/2] *= 2 tw[n/2-1]``,
  ``rfft``, the factor, then ``c[k] - c[k+1]``, ``c[k+1] + c[k]`` for odd
  ``k < n-1``;
* the twiddles ``tw[i] = cos(pi (i+1) / 2n)`` are rounded the way
  pocketfft's ``sincos_2pibyn(4n)`` rounds them (octant-reduced
  ``math.cos``/``math.sin`` and a two-table product); ``np.cos`` gives
  different bits.

``tests/test_density_dct.py`` holds both transforms and the solve to
``scipy.fft`` with ``np.array_equal``; scipy is a test dependency only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.netlist.core import as_core

# pocketfft's long-double pi and double sqrt(2).
_PI = np.longdouble("3.141592653589793238462643383279502884197")
_SQRT2 = math.sqrt(2.0)


def _pocketfft_cosines(n: int) -> np.ndarray:
    """``cos(pi * (i + 1) / (2 n))`` for ``i < n``, rounded as pocketfft does.

    These are the real parts of entries ``1..n`` of pocketfft's
    ``sincos_2pibyn(4n)``: the cos/sin of ``x * ang`` reduced to the first
    octant, with ``ang = 0.25 pi / 4n`` rounded from long double, combined
    as the product of a fine table ``v1[i & mask]`` and a coarse table
    ``v2[i >> shift]``.
    """
    big = 4 * n
    ang = float(np.longdouble(0.25) * _PI / np.longdouble(big))

    def root(x: int) -> Tuple[float, float]:
        # (cos, sin) of 2 pi x / big from first-octant cos/sin.
        x <<= 3
        if x < 4 * big:
            if x < 2 * big:
                if x < big:
                    return math.cos(x * ang), math.sin(x * ang)
                return math.sin((2 * big - x) * ang), math.cos((2 * big - x) * ang)
            x -= 2 * big
            if x < big:
                return -math.sin(x * ang), math.cos(x * ang)
            return -math.cos((2 * big - x) * ang), math.sin((2 * big - x) * ang)
        x = 8 * big - x
        if x < 2 * big:
            if x < big:
                return math.cos(x * ang), -math.sin(x * ang)
            return math.sin((2 * big - x) * ang), -math.cos((2 * big - x) * ang)
        x -= 4 * big
        if x < big:
            return -math.sin(x * ang), -math.cos(x * ang)
        return -math.cos((2 * big - x) * ang), -math.sin((2 * big - x) * ang)

    nval = (big + 2) // 2
    shift = 1
    while (1 << shift) * (1 << shift) < nval:
        shift += 1
    mask = (1 << shift) - 1
    fine = np.array([(1.0, 0.0)] + [root(i) for i in range(1, mask + 1)])
    coarse_len = (nval + mask) // (mask + 1)
    coarse = np.array([(1.0, 0.0)] + [root(i * (mask + 1)) for i in range(1, coarse_len)])
    idx = np.arange(1, n + 1)
    a, b = fine[idx & mask], coarse[idx >> shift]
    return a[:, 0] * b[:, 0] - a[:, 1] * b[:, 1]


def _ortho_scale(nx: int, ny: int) -> float:
    """pocketfft's ``norm="ortho"`` factor of a 2-D DCT-II: ``1/sqrt(4 nx ny)``
    in long double, rounded once to double."""
    return float(np.longdouble(1) / np.sqrt(np.longdouble(4 * nx * ny)))


class _AxisDct:
    """Orthonormal DCT-II / DCT-III of every line of a grid along one axis.

    ``work`` (C-contiguous, the grid's shape) holds the lines while they are
    transformed.  :meth:`forward` reads ``src`` and leaves the DCT-II in
    ``work``; :meth:`inverse` transforms ``work`` in place and writes the
    DCT-III to ``dst``.  ``scale`` is the nd factor (``None`` for the
    second axis).  Every buffer, view and twiddle table is built here, the
    tables at full grid size (one value per line and position) so no
    twiddle broadcasts across the lines; the transforms allocate nothing.
    """

    def __init__(
        self,
        work: np.ndarray,
        *,
        axis: int,
        src: np.ndarray,
        dst: np.ndarray,
        scale: Optional[float],
    ) -> None:
        n, m = work.shape[axis], work.shape[1 - axis]
        self.n = n
        self.axis = axis
        self.work = work
        self.scale = scale
        tw = _pocketfft_cosines(n)
        half = n // 2
        h = (n - 1) // 2  # butterfly pairs (k, n - k) for 1 <= k <= h

        def lines(array: np.ndarray, index) -> np.ndarray:
            return array[index] if axis == 0 else array[:, index]

        def table(values) -> np.ndarray:
            # One value per line position, repeated across the m lines.
            column = np.asarray(values, dtype=np.float64)[:, None]
            grid = np.repeat(column, m, axis=1)
            return np.ascontiguousarray(grid if axis == 0 else grid.T)

        k = np.arange(1, h + 1)
        lo, hi = table(tw[k - 1]), table(tw[n - k - 1])
        # Forward butterfly: [tw[k-1], -tw[n-k-1]] * c[n-k] plus
        # [tw[n-k-1], tw[k-1]] * c[k] gives [t1, t2].
        self._tw_kc = np.stack([lo, -hi])
        self._tw_k = np.stack([hi, lo])
        # Inverse butterfly: [[tw[n-k-1], tw[k-1]], [tw[k-1], -tw[n-k-1]]]
        # times [t1, t2]; each row's sum is c[k], c[n-k].
        self._tw_pair = np.stack([np.stack([hi, lo]), np.stack([lo, -hi])])
        # DCT-II's closing scales, one per line position: sqrt(2)/2 on c[0],
        # the butterfly's 0.5, tw[n/2-1] on the even-length middle.
        closing = np.full(n, 0.5)
        closing[0] = _SQRT2 * 0.5
        # DCT-III's opening scales of c[0] and the even-length middle.
        if n % 2 == 0:
            closing[half] = tw[half - 1]
            ends, mid = slice(0, n, n - 1), slice(0, half + 1, half)
            opening = [_SQRT2, 2 * tw[half - 1]]
        else:
            ends = mid = slice(0, 1)
            opening = [_SQRT2]
        self._fwd_scale = table(closing)
        self._inv_scale = table(opening)

        spectrum = (half + 1, m) if axis == 0 else (m, half + 1)
        self._z = np.zeros(spectrum, dtype=np.complex128)
        zr, zi = self._z.real, self._z.imag
        self._zf = self._z.view(np.float64)
        pair = (2, h, m) if axis == 0 else (2, m, h)
        self._pair = np.empty(pair)
        self._prod = np.empty(pair)
        self._quad = np.empty((2,) + pair)
        (self._q00, self._q01), (self._q10, self._q11) = self._quad
        self._pair_b = self._pair[None]
        self._t1, self._t2 = self._pair
        self._k = lines(work, slice(1, h + 1))
        self._kc = lines(work, slice(n - 1, n - 1 - h, -1))
        self._k_b, self._kc_b = self._k[None], self._kc[None]
        self._mid = lines(work, mid)

        # Forward pre-step, written straight into the half-complex spectrum:
        # r_0 (and r_{n/2}) = 2 c, r_j = c[2j-1] + c[2j], i_j = c[2j] - c[2j-1].
        self._src_ends, self._zr_ends = lines(src, ends), lines(zr, mid)
        self._src_odd = lines(src, slice(1, n - 1, 2))
        self._src_even = lines(src, slice(2, n, 2))
        self._zr_pairs = lines(zr, slice(1, h + 1))
        self._zi_pairs = lines(zi, slice(1, h + 1))
        # Inverse post-step out of the spectrum: dst[0] = r_0,
        # dst[2j-1] = r_j - i_j (j <= n/2; i_{n/2} is +0 for even n),
        # dst[2j] = i_j + r_j.
        self._dst_first, self._zr_first = lines(dst, slice(0, 1)), lines(zr, slice(0, 1))
        self._dst_odd = lines(dst, slice(1, None, 2))
        self._zr_odd = lines(zr, slice(1, half + 1))
        self._zi_odd = lines(zi, slice(1, half + 1))
        self._dst_even = lines(dst, slice(2, None, 2))

    def forward(self) -> np.ndarray:
        """DCT-II of every line of ``src`` into ``work`` (returned)."""
        work = self.work
        np.multiply(self._src_ends, 2.0, out=self._zr_ends)
        np.add(self._src_odd, self._src_even, out=self._zr_pairs)
        np.subtract(self._src_even, self._src_odd, out=self._zi_pairs)
        np.fft.irfft(self._z, self.n, axis=self.axis, norm="forward", out=work)
        if self.scale is not None:
            np.multiply(work, self.scale, out=work)
        np.multiply(self._tw_kc, self._kc_b, out=self._pair)
        np.multiply(self._tw_k, self._k_b, out=self._prod)
        np.add(self._pair, self._prod, out=self._pair)
        np.add(self._t1, self._t2, out=self._k)
        np.subtract(self._t1, self._t2, out=self._kc)
        np.multiply(work, self._fwd_scale, out=work)
        return work

    def inverse(self) -> None:
        """DCT-III of every line of ``work`` (clobbered) into ``dst``."""
        np.multiply(self._mid, self._inv_scale, out=self._mid)
        np.add(self._k, self._kc, out=self._t1)
        np.subtract(self._k, self._kc, out=self._t2)
        np.multiply(self._tw_pair, self._pair_b, out=self._quad)
        np.add(self._q00, self._q01, out=self._k)
        np.add(self._q10, self._q11, out=self._kc)
        np.fft.rfft(self.work, axis=self.axis, out=self._z)
        if self.scale is not None:
            np.multiply(self._zf, self.scale, out=self._zf)
        np.copyto(self._dst_first, self._zr_first)
        np.subtract(self._zr_odd, self._zi_odd, out=self._dst_odd)
        np.add(self._zi_pairs, self._zr_pairs, out=self._dst_even)


def auto_bin_count(num_movable: int) -> int:
    """Power-of-two grid size targeting ~4 movable cells per bin (>= 16).

    Shared by the density model and the congestion estimator so their grids
    stay in correspondence: cells that crowd one density bin are the same
    cells whose nets crowd the matching congestion bins.

    Grows as ``sqrt(num_movable)`` without an upper clamp: the historical
    cap at 256 bins froze the per-bin cell count at XL sizes (a 1M-cell
    design would average ~15 cells/bin and smear every local hotspot).
    Values at the existing benchmark tiers (< ~300k cells) are unchanged,
    which keeps the small-design goldens bit-exact.
    """
    cells = max(int(num_movable), 1)
    return int(2 ** max(int(np.round(np.log2(np.sqrt(cells / 4.0)))), 4))


class BinGeometry(NamedTuple):
    """Cell-to-bin geometry of the movable cells for one evaluate.

    ``idx``/``w`` are corner-major: slot ``k * n + i`` is corner ``k`` of
    cell ``i``, corners in the deposit order (u, v), (u+1, v), (u, v+1),
    (u+1, v+1).  ``w`` holds the deposit weights until the deposit
    ``bincount`` has run, and is then free for the sampler's corner gather.
    """

    idx: np.ndarray
    w: np.ndarray
    fu: np.ndarray
    fv: np.ndarray
    #: 1 - fu and 1 - fv.
    om_u: np.ndarray
    om_v: np.ndarray


@dataclass
class DensityResult:
    """Gradient and overflow of one density evaluation."""

    grad_x: np.ndarray
    grad_y: np.ndarray
    overflow: float


class ElectrostaticDensity:
    """Poisson-smoothed density penalty over a regular bin grid."""

    def __init__(
        self,
        design,
        *,
        num_bins_x: Optional[int] = None,
        num_bins_y: Optional[int] = None,
        target_density: float = 1.0,
    ) -> None:
        arrays = as_core(design)
        self.core = arrays
        die = arrays.die
        num_movable = int(arrays.movable_mask.sum())
        if num_bins_x is None or num_bins_y is None:
            bins = auto_bin_count(num_movable)
            num_bins_x = num_bins_x or bins
            num_bins_y = num_bins_y or bins
        self.num_bins_x = int(num_bins_x)
        self.num_bins_y = int(num_bins_y)
        self.bin_w = die.width / self.num_bins_x
        self.bin_h = die.height / self.num_bins_y
        self.bin_area = self.bin_w * self.bin_h
        self.target_density = float(target_density)

        self._movable = arrays.movable_index
        self._area = arrays.inst_area[self._movable]
        self._half_w = arrays.inst_width[self._movable] * 0.5
        self._half_h = arrays.inst_height[self._movable] * 0.5
        self._total_movable_area = float(self._area.sum())

        # Scatter-plan scratch: flattened corner indices/weights for the
        # single-bincount splat (the weights slot doubles as the sampler's
        # corner gather once the deposit is done), plus Poisson-solve work
        # grids.
        num_movable_cells = self._movable.size
        self._flat_idx = np.empty(4 * num_movable_cells, dtype=np.int64)
        self._flat_w = np.empty(4 * num_movable_cells, dtype=np.float64)
        self._rho = np.empty((self.num_bins_x, self.num_bins_y), dtype=np.float64)
        self._field_u = np.empty_like(self._rho)
        self._field_v = np.empty_like(self._rho)
        # Cell-to-bin geometry scratch for the steady-state serial splat
        # (the alloc contract bans per-call astype/minimum temporaries on
        # the gradient path).  ``_frac_u/_frac_v`` hold the bin-space
        # coordinates and then the fractional offsets fu/fv;
        # ``_floor_u/_floor_v`` hold the floors while the corner indices are
        # built and then 1 - fu / 1 - fv.
        self._iu = np.empty(num_movable_cells, dtype=np.int64)
        self._iv = np.empty(num_movable_cells, dtype=np.int64)
        self._iu1 = np.empty(num_movable_cells, dtype=np.int64)
        self._iv1 = np.empty(num_movable_cells, dtype=np.int64)
        self._frac_u = np.empty(num_movable_cells, dtype=np.float64)
        self._frac_v = np.empty(num_movable_cells, dtype=np.float64)
        self._floor_u = np.empty(num_movable_cells, dtype=np.float64)
        self._floor_v = np.empty(num_movable_cells, dtype=np.float64)
        self._over = np.empty_like(self._rho)
        # Hand-off of the splat's geometry to evaluate's sampler, cleared
        # once taken.
        self._geometry: Optional[BinGeometry] = None

        # Optional buffer arena (attached by the placer) backing the
        # per-instance gradient accumulators; standalone callers keep
        # fresh-array semantics via the np.zeros fallback in _buffer.
        self.arena = None

        # Precompute DCT frequencies for the Poisson solve.
        wx = np.pi * np.arange(self.num_bins_x) / self.num_bins_x / self.bin_w
        wy = np.pi * np.arange(self.num_bins_y) / self.num_bins_y / self.bin_h
        wx2 = wx[:, None] ** 2
        wy2 = wy[None, :] ** 2
        denom = wx2 + wy2
        denom[0, 0] = 1.0  # DC term handled separately (set to zero)
        self._inv_denom = 1.0 / denom
        self._inv_denom[0, 0] = 0.0

        # Poisson-solve plans over natural-layout grids: the axis-0 pass
        # reads rho, the axis-1 pass its lines; the scaled spectrum goes back
        # into the axis-0 lines, whose inverse feeds the axis-1 lines, whose
        # inverse is psi.
        nx, ny = self.num_bins_x, self.num_bins_y
        self._psi = np.empty_like(self._rho)
        lines_u = np.empty_like(self._rho)
        lines_v = np.empty_like(self._rho)
        self._dct_u = _AxisDct(
            lines_u, axis=0, src=self._rho, dst=lines_v, scale=_ortho_scale(nx, ny)
        )
        self._dct_v = _AxisDct(lines_v, axis=1, src=lines_u, dst=self._psi, scale=None)

    def set_area_scale(self, scale: Optional[np.ndarray]) -> None:
        """Inflate the cell areas the density model sees (routability repair).

        ``scale`` is a per-instance multiplier (indexed like ``core.x``;
        only movable entries matter); ``None`` restores the physical areas.
        Footprints grow isotropically — widths and heights scale by
        ``sqrt(scale)`` — which is how congestion-driven inflation trades
        whitespace for routing headroom without touching the real netlist
        geometry (legalization and evaluation still use physical sizes).
        """
        arrays = self.core
        if scale is None:
            factor = np.ones(self._movable.size, dtype=np.float64)
        else:
            scale = np.asarray(scale, dtype=np.float64)
            if scale.shape != (arrays.num_instances,):
                raise ValueError("area scale must have one entry per instance")
            if np.any(scale <= 0.0):
                raise ValueError("area scale factors must be positive")
            factor = scale[self._movable]
        self._area = arrays.inst_area[self._movable] * factor
        side = np.sqrt(factor)
        self._half_w = arrays.inst_width[self._movable] * 0.5 * side
        self._half_h = arrays.inst_height[self._movable] * 0.5 * side
        self._total_movable_area = float(self._area.sum())

    # ------------------------------------------------------------------
    def _deposit(self, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Replay the four corner deposits as one flat ``bincount``.

        ``idx``/``w`` hold the corners corner-major (all w00 terms, then
        w10, w01, w11).  ``np.bincount`` with float weights is a sequential
        fold in input order, so that layout reproduces the four sequential
        ``np.add.at`` calls bit for bit (property-tested against
        ``_reference_splat``).
        """
        nby = self.num_bins_y
        flat = np.bincount(idx, weights=w, minlength=self.num_bins_x * nby)
        return flat.reshape(self.num_bins_x, nby)

    def _splat(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Cloud-in-cell deposition of movable cell areas onto the bin grid."""
        g = self._geometry = self._stage_geometry(x, y)
        # Corner weights area*(1-fu)*(1-fv), area*fu*(1-fv), area*(1-fu)*fv
        # and area*fu*fv, staged with the legacy operand order.
        n = g.fu.size
        area = self._area
        w = g.w
        w00, w10, w01, w11 = w[:n], w[n : 2 * n], w[2 * n : 3 * n], w[3 * n :]
        np.multiply(area, g.om_u, out=w00)
        w00 *= g.om_v
        np.multiply(area, g.fu, out=w10)
        w10 *= g.om_v
        np.multiply(area, g.om_u, out=w01)
        w01 *= g.fv
        np.multiply(area, g.fu, out=w11)
        w11 *= g.fv
        return self._deposit(g.idx, w)

    def _stage_geometry(self, x: np.ndarray, y: np.ndarray) -> BinGeometry:
        """Serial cell-to-bin geometry, staged through owned buffers.

        Writes the flat corner index of every movable cell and the
        fractional offsets; the weight slot ``w`` is left for the caller
        to fill.  Bitwise identical to the reference splat's temporaries:
        each in-place step is the same IEEE operation on the same operands,
        the int-buffer setitem truncates exactly like ``.astype(np.int64)``
        on the floored values, ``u - floor(u)`` matches ``u - iu`` (the
        int64→float64 round trip of a floor is exact), and integer
        add/min/multiply have no rounding at all.
        """
        die = self.core.die
        iu, iv, iu1, iv1 = self._iu, self._iv, self._iu1, self._iv1
        fu, fv = self._frac_u, self._frac_v
        floor_u, floor_v = self._floor_u, self._floor_v
        # u = clip((x[movable] + half_w - xl) / bin_w - 0.5, 0, nbx - 1); the
        # movable indices are in range, so mode="clip" only skips buffering.
        np.take(x, self._movable, out=fu, mode="clip")
        fu += self._half_w
        fu -= die.xl
        fu /= self.bin_w
        fu -= 0.5
        np.clip(fu, 0.0, self.num_bins_x - 1.0, out=fu)
        np.take(y, self._movable, out=fv, mode="clip")
        fv += self._half_h
        fv -= die.yl
        fv /= self.bin_h
        fv -= 0.5
        np.clip(fv, 0.0, self.num_bins_y - 1.0, out=fv)
        np.floor(fu, out=floor_u)
        iu[...] = floor_u
        np.floor(fv, out=floor_v)
        iv[...] = floor_v
        np.add(iu, 1, out=iu1)
        np.minimum(iu1, self.num_bins_x - 1, out=iu1)
        np.add(iv, 1, out=iv1)
        np.minimum(iv1, self.num_bins_y - 1, out=iv1)
        fu -= floor_u
        fv -= floor_v
        np.subtract(1.0, fu, out=floor_u)
        np.subtract(1.0, fv, out=floor_v)

        n = iu.size
        nby = self.num_bins_y
        idx = self._flat_idx
        np.multiply(iu, nby, out=idx[:n])
        idx[:n] += iv
        np.multiply(iu1, nby, out=idx[n : 2 * n])
        idx[n : 2 * n] += iv
        np.multiply(iu, nby, out=idx[2 * n : 3 * n])
        idx[2 * n : 3 * n] += iv1
        np.multiply(iu1, nby, out=idx[3 * n :])
        idx[3 * n :] += iv1
        return BinGeometry(idx, self._flat_w, fu, fv, floor_u, floor_v)

    def _reference_splat(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pre-plan splat via four ``np.add.at`` deposits (slow; kept as the
        bitwise reference for the property tests and legacy benchmarks)."""
        die = self.core.die
        cx = x[self._movable] + self._half_w
        cy = y[self._movable] + self._half_h
        u = (cx - die.xl) / self.bin_w - 0.5
        v = (cy - die.yl) / self.bin_h - 0.5
        u = np.clip(u, 0.0, self.num_bins_x - 1.0)
        v = np.clip(v, 0.0, self.num_bins_y - 1.0)
        iu = np.floor(u).astype(np.int64)
        iv = np.floor(v).astype(np.int64)
        iu1 = np.minimum(iu + 1, self.num_bins_x - 1)
        iv1 = np.minimum(iv + 1, self.num_bins_y - 1)
        fu = u - iu
        fv = v - iv

        density = np.zeros((self.num_bins_x, self.num_bins_y), dtype=np.float64)
        np.add.at(density, (iu, iv), self._area * (1 - fu) * (1 - fv))
        np.add.at(density, (iu1, iv), self._area * fu * (1 - fv))
        np.add.at(density, (iu, iv1), self._area * (1 - fu) * fv)
        np.add.at(density, (iu1, iv1), self._area * fu * fv)
        return density

    def _solve_field(self, density: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve the Poisson equation and return (potential, field_x, field_y).

        The charge, potential and field grids live in preallocated buffers,
        valid until the next solve.  ``psi`` is bitwise
        ``idctn(dctn(rho) * inv_denom)`` with scipy's orthonormal DCT-II
        (see the module docstring).
        """
        rho = self._rho
        np.divide(density, self.bin_area, out=rho)
        # Remove the mean charge so the Neumann problem is well posed.
        rho -= rho.mean()
        self._dct_u.forward()
        np.multiply(self._dct_v.forward(), self._inv_denom, out=self._dct_u.work)
        self._dct_u.inverse()
        self._dct_v.inverse()
        psi = self._psi
        # Electric field E = -grad(psi); central differences on the bin grid
        # (np.gradient's edge_order=1 stencil, staged into the reused field
        # buffers — bitwise identical to the allocating np.gradient call).
        # They need two bins per axis, which GlobalPlacer checks.
        eu = self._field_u
        ev = self._field_v
        np.subtract(psi[2:, :], psi[:-2, :], out=eu[1:-1, :])
        eu[1:-1, :] /= 2.0 * self.bin_w
        np.subtract(psi[1, :], psi[0, :], out=eu[0, :])
        eu[0, :] /= self.bin_w
        np.subtract(psi[-1, :], psi[-2, :], out=eu[-1, :])
        eu[-1, :] /= self.bin_w
        np.subtract(psi[:, 2:], psi[:, :-2], out=ev[:, 1:-1])
        ev[:, 1:-1] /= 2.0 * self.bin_h
        np.subtract(psi[:, 1], psi[:, 0], out=ev[:, 0])
        ev[:, 0] /= self.bin_h
        np.subtract(psi[:, -1], psi[:, -2], out=ev[:, -1])
        ev[:, -1] /= self.bin_h
        np.negative(eu, out=eu)
        np.negative(ev, out=ev)
        return psi, eu, ev

    def _sample_field(self, field: np.ndarray, g: BinGeometry) -> np.ndarray:
        """Bilinear interpolation of a bin-grid field at movable cell centers.

        Samples at the staged geometry ``g`` (after its deposit has run):
        one flat take of the four corners into the free weight slot, then
        the legacy per-corner products and left-to-right sum in place —
        bitwise identical to ``_reference_sample_field``.  Returns a view
        into the weight slot, valid until the next sample or splat.
        """
        n = g.fu.size
        w = g.w
        # Corner indices are in range by construction; mode="clip" only
        # keeps the take from buffering out=.
        np.take(field.reshape(-1), g.idx, out=w, mode="clip")
        f00, f10, f01, f11 = w[:n], w[n : 2 * n], w[2 * n : 3 * n], w[3 * n :]
        f00 *= g.om_u
        f00 *= g.om_v
        f10 *= g.fu
        f10 *= g.om_v
        f01 *= g.om_u
        f01 *= g.fv
        f11 *= g.fu
        f11 *= g.fv
        f00 += f10
        f00 += f01
        f00 += f11
        return f00

    def _reference_sample_field(
        self, field: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Legacy sampler: recomputes the cell geometry and does four 2-D
        fancy gathers per field (kept as the bitwise reference)."""
        die = self.core.die
        cx = x[self._movable] + self._half_w
        cy = y[self._movable] + self._half_h
        u = np.clip((cx - die.xl) / self.bin_w - 0.5, 0.0, self.num_bins_x - 1.0)
        v = np.clip((cy - die.yl) / self.bin_h - 0.5, 0.0, self.num_bins_y - 1.0)
        iu = np.floor(u).astype(np.int64)
        iv = np.floor(v).astype(np.int64)
        iu1 = np.minimum(iu + 1, self.num_bins_x - 1)
        iv1 = np.minimum(iv + 1, self.num_bins_y - 1)
        fu = u - iu
        fv = v - iv
        return (
            field[iu, iv] * (1 - fu) * (1 - fv)
            + field[iu1, iv] * fu * (1 - fv)
            + field[iu, iv1] * (1 - fu) * fv
            + field[iu1, iv1] * fu * fv
        )

    def _buffer(self, name: str, size: int) -> np.ndarray:
        if self.arena is not None:
            return self.arena.zeros(name, size)
        # contract: allow(alloc) reason=fallback for standalone calls with no arena attached
        return np.zeros(size, dtype=np.float64)

    # ------------------------------------------------------------------
    def evaluate(self, x: np.ndarray, y: np.ndarray) -> DensityResult:
        """Per-instance density gradient and overflow at ``(x, y)``.

        With an arena attached the gradient arrays in the result are reused
        buffers, invalidated by the next ``evaluate`` — the placer consumes
        them within the iteration; callers that hold results across
        evaluations must copy (same contract as the wirelength model).
        """
        # The splat stages the cell-to-bin geometry once for both the deposit
        # and the two field samples.  A substituted splat (the
        # ``_reference_splat`` test seam) stages none, so stage it here
        # rather than sample a previous evaluate's geometry.
        self._geometry = None
        density = self._splat(x, y)
        geometry, self._geometry = self._geometry, None
        if geometry is None:
            geometry = self._stage_geometry(x, y)
        _, ex, ey = self._solve_field(density)

        num_instances = self.core.num_instances
        grad_x = self._buffer("density_grad_x", num_instances)
        grad_y = self._buffer("density_grad_y", num_instances)
        for field, grad in ((ex, grad_x), (ey, grad_y)):
            # -area * sample: negating the product gives the same bits as
            # multiplying by the negated area (IEEE sign symmetry).
            sample = self._sample_field(field, geometry)
            sample *= self._area
            np.negative(sample, out=sample)
            grad[self._movable] = sample

        # Staged form of ``np.maximum(density - capacity, 0.0)`` — same
        # subtract-then-clamp rounding, reused grid buffer.
        capacity = self.target_density * self.bin_area
        over = self._over
        np.subtract(density, capacity, out=over)
        np.maximum(over, 0.0, out=over)
        overflow = float(over.sum() / max(self._total_movable_area, 1e-12))
        return DensityResult(grad_x=grad_x, grad_y=grad_y, overflow=overflow)

    def overflow(self, x: np.ndarray, y: np.ndarray) -> float:
        """Density overflow only (cheaper than a full evaluate when no solve is needed)."""
        density = self._splat(x, y)
        self._geometry = None
        capacity = self.target_density * self.bin_area
        over = self._over
        np.subtract(density, capacity, out=over)
        np.maximum(over, 0.0, out=over)
        return float(over.sum() / max(self._total_movable_area, 1e-12))
