"""Frozen, array-only design snapshots for process-scale batching.

A :class:`CompiledDesign` is a picklable snapshot of a finalized
:class:`repro.netlist.design.Design`: flat NumPy arrays plus name tables and
the (small) cell library — no ``Instance``/``PinRef``/``Net`` object graph,
no circular references.  It serves two jobs:

* **cheap shipping** — pickling a snapshot is an order of magnitude smaller
  and faster than pickling the full object graph, so the batch runner can
  build a design once in the parent and fan it out to process workers;
* **zero-copy sharing** — :class:`SharedDesignPack` places the snapshot's
  read-only arrays in :mod:`multiprocessing.shared_memory`, so workers on
  the same host attach instead of receiving a copy.

Reconstruction (:meth:`CompiledDesign.to_design`) builds the
:class:`repro.netlist.core.DesignCore` straight from the snapshot's tables
(:meth:`DesignCore.from_tables`) and wraps it with its name tables
(:meth:`Design.from_core`), so the rebuilt design is index-for-index and
bit-for-bit identical to the original: same instance, pin, and net indices,
same CSR pin ordering, same positions.  No ``Instance``/``PinRef``/``Net``
object is created until code asks for one.  The benchmark generators emit
their designs the same way: they fill a snapshot and call ``to_design``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclasses_fields, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.netlist.core import DesignCore
from repro.netlist.design import Design
from repro.netlist.library import CellType, Library
from repro.utils.geometry import Rect

# Snapshot attributes holding NumPy arrays (the shared-memory payload).
_ARRAY_FIELDS: Tuple[str, ...] = (
    "x",
    "y",
    "inst_cell_id",
    "inst_fixed",
    "inst_is_port",
    "inst_pin_offsets",
    "net_pin_offsets",
    "net_pin_index",
    "net_weight",
)


def _rebuild_compiled(blob: bytes) -> "CompiledDesign":
    """Inverse of :meth:`CompiledDesign.__reduce__`."""
    import pickle
    import zlib

    state = pickle.loads(zlib.decompress(blob))
    for name in _ARRAY_FIELDS:
        arr = state[name]
        if arr is not None and arr.dtype == np.int32:
            state[name] = arr.astype(np.int64)
    return CompiledDesign(**state)


@dataclass(frozen=True, eq=False)
class CompiledDesign:
    """Array-only snapshot of a finalized design (picklable, no object graph)."""

    name: str
    die: Tuple[float, float, float, float]
    row_height: float
    site_width: float
    clock_period: Optional[float]
    clock_name: str
    clock_port: Optional[str]
    input_delays: Dict[str, float]
    output_delays: Dict[str, float]
    # MCMM corner specs (tuple of repro.timing Corner objects or None);
    # carried so batch workers rebuild the same analysis setup.
    corners: Optional[Tuple[object, ...]]
    library: Library
    cell_types: Tuple[CellType, ...]
    instance_names: Tuple[str, ...]
    net_names: Tuple[str, ...]
    orientations: Optional[Tuple[str, ...]]
    x: np.ndarray
    y: np.ndarray
    inst_cell_id: np.ndarray
    inst_fixed: np.ndarray
    inst_is_port: np.ndarray
    inst_pin_offsets: np.ndarray
    net_pin_offsets: np.ndarray
    net_pin_index: np.ndarray
    net_weight: np.ndarray

    def __reduce__(self):
        """Compact wire format: index arrays downcast to int32, state deflated.

        The in-memory layout is untouched (int64 indices, plain tuples); only
        the pickle payload shrinks — connectivity and name tables are highly
        repetitive, so this is where the >=10x size win over pickling the
        object graph comes from.
        """
        import pickle
        import zlib

        state = {
            f.name: getattr(self, f.name) for f in dataclasses_fields(type(self))
        }
        for name in _ARRAY_FIELDS:
            arr = state[name]
            if (
                arr is not None
                and arr.dtype == np.int64
                and (arr.size == 0 or (arr.min() >= np.iinfo(np.int32).min and arr.max() <= np.iinfo(np.int32).max))
            ):
                state[name] = arr.astype(np.int32)
        blob = zlib.compress(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL), 6)
        return (_rebuild_compiled, (blob,))

    @property
    def num_instances(self) -> int:
        return len(self.instance_names)

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def num_pins(self) -> int:
        return int(self.inst_pin_offsets[-1])

    def array_nbytes(self) -> int:
        """Total byte size of the array payload."""
        return sum(getattr(self, name).nbytes for name in _ARRAY_FIELDS)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def to_design(self) -> Design:
        """Build a finalized :class:`Design` identical to the compiled one.

        Every array is copied, so the design never aliases the snapshot
        (whose arrays may be read-only shared-memory views).
        """
        core = DesignCore.from_tables(
            name=self.name,
            die=Rect(*self.die),
            row_height=self.row_height,
            site_width=self.site_width,
            wire_resistance_per_unit=self.library.wire_resistance_per_unit,
            wire_capacitance_per_unit=self.library.wire_capacitance_per_unit,
            cell_types=self.cell_types,
            inst_cell_id=np.array(self.inst_cell_id, dtype=np.int64),
            x=np.array(self.x, dtype=np.float64),
            y=np.array(self.y, dtype=np.float64),
            inst_fixed=np.array(self.inst_fixed, dtype=bool),
            inst_is_port=np.array(self.inst_is_port, dtype=bool),
            net_pin_offsets=np.array(self.net_pin_offsets, dtype=np.int64),
            net_pin_index=np.array(self.net_pin_index, dtype=np.int64),
            net_weight=np.array(self.net_weight, dtype=np.float64),
        )
        if not np.array_equal(core.inst_pin_offsets, self.inst_pin_offsets) or (
            core.num_pins
            and np.bincount(core.net_pin_index, minlength=core.num_pins).max() > 1
        ):
            raise RuntimeError(
                f"CompiledDesign {self.name}: the snapshot's pin/net layout is "
                "inconsistent (pin offsets differ from the cell masters', or a pin "
                "sits on two nets)"
            )
        design = Design.from_core(
            core,
            self.library,
            instance_names=self.instance_names,
            net_names=self.net_names,
            orientations=self.orientations,
        )
        design.clock_period = self.clock_period
        design.clock_name = self.clock_name
        design.clock_port = self.clock_port
        design.input_delays = dict(self.input_delays)
        design.output_delays = dict(self.output_delays)
        design.corners = self.corners
        return design


def compile_design(design: Design) -> CompiledDesign:
    """Snapshot a finalized design into a :class:`CompiledDesign`."""
    core = design.core
    corners = design.corners
    if corners is not None:
        # Normalize spec strings ("fast,typ,slow") into Corner tuples so the
        # snapshot is self-contained (lazy import: netlist must not depend on
        # timing at module load).
        from repro.timing.mcmm import resolve_corners

        corners = resolve_corners(corners)
    die = design.die
    return CompiledDesign(
        name=design.name,
        die=(die.xl, die.yl, die.xh, die.yh),
        row_height=design.row_height,
        site_width=design.site_width,
        clock_period=design.clock_period,
        clock_name=design.clock_name,
        clock_port=design.clock_port,
        input_delays=dict(design.input_delays),
        output_delays=dict(design.output_delays),
        corners=corners,
        library=design.library,
        cell_types=core.cell_types,
        instance_names=design.instance_names,
        net_names=design.net_names,
        # None when every instance is "N": the common case costs nothing.
        orientations=design.orientations,
        x=core.x.copy(),
        y=core.y.copy(),
        inst_cell_id=core.inst_cell_id,
        inst_fixed=core.inst_fixed,
        inst_is_port=core.inst_is_port,
        inst_pin_offsets=core.inst_pin_offsets,
        net_pin_offsets=core.net_pin_offsets,
        net_pin_index=core.net_pin_index,
        net_weight=core.net_weight.copy(),
    )


# ----------------------------------------------------------------------
# Shared-memory transport (opt-in)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ArraySpec:
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SharedDesignHandle:
    """Small picklable ticket a worker uses to attach a shared snapshot."""

    shm_name: str
    specs: Dict[str, _ArraySpec]
    payload: CompiledDesign  # snapshot with the array fields stripped to None

    def load(self) -> "LoadedSharedDesign":
        """Attach the shared block and materialize a zero-copy snapshot.

        The returned object must be kept alive (and then closed) while the
        snapshot's arrays are in use — they are views into the shared block.
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=self.shm_name)
        try:
            arrays: Dict[str, np.ndarray] = {}
            for name, spec in self.specs.items():
                count = int(np.prod(spec.shape)) if spec.shape else 1
                arr = np.frombuffer(
                    shm.buf, dtype=np.dtype(spec.dtype), count=count, offset=spec.offset
                ).reshape(spec.shape)
                arr.flags.writeable = False
                arrays[name] = arr
            return LoadedSharedDesign(replace(self.payload, **arrays), shm)
        except BaseException:
            # Don't leave the worker-side mapping open on a failed attach.
            # Drop every numpy view first: close() refuses while buffer
            # exports are alive.
            arr = None
            arrays = None  # type: ignore[assignment]
            shm.close()
            raise


class LoadedSharedDesign:
    """A shared snapshot attached in this process; close after use."""

    def __init__(self, compiled: CompiledDesign, shm) -> None:
        self.compiled = compiled
        self._shm = shm

    def close(self) -> None:
        if self._shm is not None:
            # Drop the numpy views before closing the mapping (required on
            # CPython: memoryview exports keep the buffer pinned).
            self.compiled = None  # type: ignore[assignment]
            self._shm.close()
            self._shm = None

    def __enter__(self) -> CompiledDesign:
        return self.compiled

    def __exit__(self, *exc) -> None:
        self.close()


class SharedDesignPack:
    """Parent-side owner of one snapshot's shared-memory block.

    Usage::

        with SharedDesignPack(compile_design(design)) as pack:
            pool.submit(worker, pack.handle)   # handle pickles in O(names)
            ...
        # block is closed + unlinked on exit, even if a worker raised

    ``close()`` (or leaving the ``with`` block) both closes the mapping and
    unlinks the segment, so no ``/dev/shm`` entry outlives the pack — the
    batch runner keeps every pack it creates inside an ``ExitStack`` for the
    same reason.  Construction is exception-safe: if copying the arrays into
    the fresh segment fails, the segment is unlinked before the error
    propagates.
    """

    def __init__(self, compiled: CompiledDesign) -> None:
        from multiprocessing import shared_memory

        specs: Dict[str, _ArraySpec] = {}
        offset = 0
        for name in _ARRAY_FIELDS:
            arr = getattr(compiled, name)
            # Align each array to 8 bytes so typed views stay aligned.
            offset = (offset + 7) & ~7
            specs[name] = _ArraySpec(arr.dtype.str, tuple(arr.shape), offset)
            offset += arr.nbytes
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        try:
            for name in _ARRAY_FIELDS:
                arr = getattr(compiled, name)
                spec = specs[name]
                dest = np.frombuffer(
                    self._shm.buf, dtype=arr.dtype, count=arr.size, offset=spec.offset
                ).reshape(arr.shape)
                dest[...] = arr
            self.handle = SharedDesignHandle(
                shm_name=self._shm.name,
                specs=specs,
                payload=replace(compiled, **{name: None for name in _ARRAY_FIELDS}),
            )
        except BaseException:
            # Never leak a half-initialized segment: nobody else holds the
            # name yet, so close + unlink here is the only cleanup chance.
            self.close()
            raise

    def close(self) -> None:
        """Release the shared block (close + unlink). Idempotent."""
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._shm = None

    def __enter__(self) -> "SharedDesignPack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
