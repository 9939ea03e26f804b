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
has run.  The kernel-pool splat writes the same geometry from the workers,
so both paths share one sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy import fft as spfft

from repro.netlist.core import as_core


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
    """Energy, gradient, and overflow of one density evaluation."""

    energy: float
    grad_x: np.ndarray
    grad_y: np.ndarray
    overflow: float
    max_density: float


class ElectrostaticDensity:
    """Poisson-smoothed density penalty over a regular bin grid."""

    def __init__(
        self,
        design,
        *,
        num_bins_x: Optional[int] = None,
        num_bins_y: Optional[int] = None,
        target_density: float = 1.0,
        workers: int = 0,
        runner=None,
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

        # Parallel splat sharding (repro.parallel); workers=0 keeps the
        # serial path.  ``_terms_dirty`` tracks when the per-cell geometry
        # arrays in the shared block need a rewrite (area inflation).
        self.workers = int(workers)
        self._runner = runner
        self._runner_resolved = runner is not None
        self._block = None
        self._terms_dirty = True

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
        # built and then 1 - fu / 1 - fv (on both splat paths).
        self._iu = np.empty(num_movable_cells, dtype=np.int64)
        self._iv = np.empty(num_movable_cells, dtype=np.int64)
        self._iu1 = np.empty(num_movable_cells, dtype=np.int64)
        self._iv1 = np.empty(num_movable_cells, dtype=np.int64)
        self._frac_u = np.empty(num_movable_cells, dtype=np.float64)
        self._frac_v = np.empty(num_movable_cells, dtype=np.float64)
        self._floor_u = np.empty(num_movable_cells, dtype=np.float64)
        self._floor_v = np.empty(num_movable_cells, dtype=np.float64)
        self._over = np.empty_like(self._rho)
        # Hand-off of the splat's geometry to evaluate's sampler.  Cleared
        # once taken: in the pooled path it holds views into the shared
        # block, whose segment cannot close while a view is alive.
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
        self._terms_dirty = True

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
        arrays = self.core
        num_movable = self._movable.size
        self._block = runner.register(
            {
                "movable": self._movable,
                # Mutable per-call inputs.
                "x": np.zeros(arrays.num_instances, dtype=np.float64),
                "y": np.zeros(arrays.num_instances, dtype=np.float64),
                "area": np.zeros(num_movable, dtype=np.float64),
                "half_w": np.zeros(num_movable, dtype=np.float64),
                "half_h": np.zeros(num_movable, dtype=np.float64),
                # Worker outputs: flat corner indices and weights (corner-
                # major, like the serial splat's) plus the fractional offsets
                # the sampler needs.
                "flat_idx": np.zeros(4 * num_movable, dtype=np.int64),
                "flat_w": np.zeros(4 * num_movable, dtype=np.float64),
                "fu": np.zeros(num_movable, dtype=np.float64),
                "fv": np.zeros(num_movable, dtype=np.float64),
            }
        )
        self._terms_dirty = True
        import weakref

        from repro.route.rudy import _release_block

        weakref.finalize(self, _release_block, runner, self._block)
        return self._block

    def _splat_parallel(self, runner, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sharded splat: workers write each cell's flat corner indices,
        weights and fractional offsets; the parent runs the deposit
        ``bincount`` in serial cell order — bitwise identical to the serial
        splat."""
        from repro.parallel.engine import split_ranges

        die = self.core.die
        block = self._ensure_block(runner)
        views = block.views
        views["x"][...] = x
        views["y"][...] = y
        if self._terms_dirty:
            views["area"][...] = self._area
            views["half_w"][...] = self._half_w
            views["half_h"][...] = self._half_h
            self._terms_dirty = False
        args = (die.xl, die.yl, self.bin_w, self.bin_h, self.num_bins_x, self.num_bins_y)
        tasks = [
            (s, e, *args) for s, e in split_ranges(self._movable.size, runner.workers)
        ]
        runner.run("density_terms", [block], tasks)
        fu, fv = views["fu"], views["fv"]
        self._geometry = BinGeometry(
            views["flat_idx"],
            views["flat_w"],
            fu,
            fv,
            np.subtract(1.0, fu, out=self._floor_u),
            np.subtract(1.0, fv, out=self._floor_v),
        )
        return self._deposit(views["flat_idx"], views["flat_w"])

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
        runner = self._get_runner()
        if runner is not None and self._movable.size:
            return self._splat_parallel(runner, x, y)
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

        The charge and field grids live in preallocated buffers; ``psi`` is
        allocated by ``idctn`` (scipy's transforms have no ``out=``).  With
        ``workers > 0`` the multi-row DCTs are threaded — each row transform
        is computed identically, so the result is bitwise independent of the
        thread count.
        """
        rho = self._rho
        np.divide(density, self.bin_area, out=rho)
        # Remove the mean charge so the Neumann problem is well posed.
        rho -= rho.mean()
        fft_kwargs = {"workers": self.workers} if self.workers > 0 else {}
        rho_hat = spfft.dctn(rho, type=2, norm="ortho", **fft_kwargs)
        rho_hat *= self._inv_denom
        psi = spfft.idctn(rho_hat, type=2, norm="ortho", **fft_kwargs)
        # Electric field E = -grad(psi); central differences on the bin grid
        # (np.gradient's edge_order=1 stencil, staged into the reused field
        # buffers — bitwise identical to the allocating np.gradient call).
        if self.num_bins_x < 2 or self.num_bins_y < 2:
            grad_u, grad_v = np.gradient(psi, self.bin_w, self.bin_h)
            return psi, -grad_u, -grad_v
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
        """Density energy, per-instance gradient, and overflow at ``(x, y)``.

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
        psi, ex, ey = self._solve_field(density)

        energy = 0.5 * float(np.sum(density / self.bin_area * psi))

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
        max_density = float(density.max() / self.bin_area) if density.size else 0.0
        return DensityResult(
            energy=energy,
            grad_x=grad_x,
            grad_y=grad_y,
            overflow=overflow,
            max_density=max_density,
        )

    def overflow(self, x: np.ndarray, y: np.ndarray) -> float:
        """Density overflow only (cheaper than a full evaluate when no solve is needed)."""
        density = self._splat(x, y)
        self._geometry = None
        capacity = self.target_density * self.bin_area
        over = self._over
        np.subtract(density, capacity, out=over)
        np.maximum(over, 0.0, out=over)
        return float(over.sum() / max(self._total_movable_area, 1e-12))
