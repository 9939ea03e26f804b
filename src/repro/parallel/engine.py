"""Persistent shared-memory worker pool for sharded array kernels.

The engine generalizes the ``SharedDesignPack`` transport from
:mod:`repro.netlist.compiled` into a reusable in-flow primitive:

* :class:`KernelPool` — a lazily-started set of long-lived worker processes.
  Array sets are registered once per consumer (estimator, density model,
  legalizer) into a single ``multiprocessing.shared_memory`` segment;
  workers attach each segment exactly once and every subsequent
  :meth:`KernelPool.run` ships only a kernel name and a handful of index
  ranges over a pipe.  Mutable arrays (positions, per-call terms) are
  rewritten in place by the parent between calls — zero-copy in both
  directions.
* :class:`SerialShardRunner` — the same interface executed inline on the
  caller's arrays.  It exists so the sharded code paths can be driven (and
  property-tested for bitwise equality) with arbitrary shard counts without
  paying process startup, and so ``workers=1`` semantics are well defined.
* :func:`split_ranges` — the canonical contiguous near-equal decomposition
  every call site uses, so tests and production shard identically.

Failure semantics: any worker exception or death poisons the pool — the
parent tears down every worker and unlinks every shared segment before
re-raising as :class:`KernelPoolError`.  No ``/dev/shm`` entry survives a
crash (the same guarantee the batch runner's pack ``ExitStack`` gives).

The serial fallback is structural: with ``workers=0`` (every default) none
of this module is imported by the hot paths and the original single-process
code runs unchanged.
"""

from __future__ import annotations

import atexit
import os
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import ChildSpanCollector, active_tracer, adopt_spans, span
from repro.parallel import kernels as _kernels

__all__ = [
    "KernelPool",
    "KernelPoolError",
    "SerialShardRunner",
    "ShardBlock",
    "get_kernel_pool",
    "get_runner",
    "resolve_worker_count",
    "shutdown_kernel_pools",
    "split_ranges",
]


class KernelPoolError(RuntimeError):
    """A worker failed or died; the pool has been torn down."""


def resolve_worker_count(requested: Optional[int] = None) -> int:
    """CPUs actually usable by this process (affinity-aware).

    Prefers ``os.process_cpu_count`` (Python 3.13+), falls back to the
    scheduler affinity mask, then ``os.cpu_count``.  A positive ``requested``
    short-circuits.  On shared/CI hosts the affinity mask is the honest
    number: ``os.cpu_count`` reports the machine, not the cgroup.
    """
    if requested is not None and int(requested) > 0:
        return int(requested)
    probe = getattr(os, "process_cpu_count", None)
    count: Optional[int] = None
    if probe is not None:
        count = probe()
    else:
        try:
            count = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # pragma: no cover - non-Linux
            count = None
    return int(count or os.cpu_count() or 1)


def split_ranges(total: int, parts: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal ``[start, end)`` ranges covering ``[0, total)``.

    Empty ranges are dropped, so the result has ``min(parts, total)``
    entries.  This is the single shard decomposition used everywhere —
    production dispatch and the bit-exactness property tests agree on it by
    construction.
    """
    total = int(total)
    parts = max(1, int(parts))
    if total <= 0:
        return []
    parts = min(parts, total)
    base, extra = divmod(total, parts)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


# ----------------------------------------------------------------------
# Shared blocks
# ----------------------------------------------------------------------
class ShardBlock:
    """One registered array namespace.

    ``views`` maps names to the arrays kernels see.  For a pool block these
    are writable views into one shared-memory segment (the parent mutates
    them between calls); for the serial runner they are the caller's arrays
    themselves.
    """

    __slots__ = ("block_id", "views", "_shm", "_specs")

    def __init__(self, block_id: int, views: Dict[str, np.ndarray], shm=None, specs=None):
        self.block_id = block_id
        self.views = views
        self._shm = shm
        self._specs = specs

    def _release_segment(self) -> None:
        """Drop views and close + unlink the backing segment (idempotent)."""
        if self._shm is None:
            return
        self.views = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a caller kept a view alive
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._shm = None


def _pack_block(block_id: int, arrays: Dict[str, np.ndarray]) -> ShardBlock:
    """Copy ``arrays`` into one fresh shared segment; exception-safe."""
    from multiprocessing import shared_memory

    specs: Dict[str, Tuple[str, Tuple[int, ...], int]] = {}
    offset = 0
    prepared: Dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        prepared[name] = arr
        # 8-byte alignment so typed views stay aligned (same as the pack).
        offset = (offset + 7) & ~7
        specs[name] = (arr.dtype.str, tuple(arr.shape), offset)
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        views: Dict[str, np.ndarray] = {}
        for name, arr in prepared.items():
            dtype, shape, off = specs[name]
            view = np.frombuffer(
                shm.buf, dtype=np.dtype(dtype), count=arr.size, offset=off
            ).reshape(shape)
            view[...] = arr
            views[name] = view
        return ShardBlock(block_id, views, shm=shm, specs=specs)
    except BaseException:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
        raise


# ----------------------------------------------------------------------
# Serial runner (inline execution, pool-identical interface)
# ----------------------------------------------------------------------
class SerialShardRunner:
    """Run shard kernels inline on the caller's arrays.

    ``workers`` only controls how call sites *decompose* work (they ask the
    runner how many shards to cut); execution stays in-process and
    sequential, which makes this the reference the pool is tested against —
    and a cheap way to exercise 1–8-way sharding in property tests.
    """

    is_serial = True

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self._next_id = 0

    @property
    def closed(self) -> bool:
        return False

    def register(self, arrays: Dict[str, np.ndarray]) -> ShardBlock:
        block = ShardBlock(self._next_id, dict(arrays))
        self._next_id += 1
        return block

    def release(self, block: ShardBlock) -> None:
        block.views = {}

    def run(
        self, kernel: str, blocks: Sequence[ShardBlock], tasks: Sequence[tuple]
    ) -> List[object]:
        merged: Dict[str, np.ndarray] = {}
        for block in blocks:
            merged.update(block.views)
        with span("kernel.dispatch", kernel=kernel, tasks=len(tasks), serial=True):
            return [_kernels.run_kernel(kernel, merged, args) for args in tasks]

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(conn) -> None:  # pragma: no cover - runs in child processes
    """Worker loop: attach/detach shared blocks, run named kernels."""
    from multiprocessing import shared_memory

    from repro.obs import stop_tracing

    # A fork-started worker inherits the parent's active tracer global;
    # drop it so worker-side spans flow only through the explicit
    # ChildSpanCollector protocol (recorded locally, shipped with the
    # result, re-parented under the dispatch span by the parent).
    stop_tracing()

    def _close_quietly(shm) -> None:
        # Stray view references (loop locals, traceback frames) may pin the
        # buffer; the mapping dies with the process and the parent unlinks
        # the name, so a failed close is harmless.
        try:
            shm.close()
        except BufferError:
            pass

    blocks: Dict[int, tuple] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            merged = out = None
            try:
                if op == "attach":
                    # Note: attaching re-registers the name with the (fork-
                    # shared) resource tracker, a harmless duplicate; the
                    # parent's unlink unregisters it exactly once.
                    _, block_id, shm_name, specs = msg
                    shm = shared_memory.SharedMemory(name=shm_name)
                    views = {}
                    for name, (dtype, shape, off) in specs.items():
                        count = int(np.prod(shape)) if shape else 1
                        views[name] = np.frombuffer(
                            shm.buf, dtype=np.dtype(dtype), count=count, offset=off
                        ).reshape(shape)
                    blocks[block_id] = (shm, views)
                    conn.send(("ok", None))
                elif op == "detach":
                    _, block_id = msg
                    entry = blocks.pop(block_id, None)
                    if entry is not None:
                        shm, views = entry
                        views.clear()
                        del views, entry
                        _close_quietly(shm)
                    conn.send(("ok", None))
                elif op == "run":
                    _, kernel, block_ids, chunk, want_trace = msg
                    merged: Dict[str, np.ndarray] = {}
                    for bid in block_ids:
                        merged.update(blocks[bid][1])
                    if want_trace:
                        collector = ChildSpanCollector()
                        out = []
                        for index, args in chunk:
                            with collector.span(f"kernel.{kernel}", task=index):
                                out.append(
                                    (index, _kernels.run_kernel(kernel, merged, args))
                                )
                        conn.send(("ok", (out, collector.payload())))
                    else:
                        out = [
                            (index, _kernels.run_kernel(kernel, merged, args))
                            for index, args in chunk
                        ]
                        conn.send(("ok", (out, None)))
                    merged = None  # type: ignore[assignment]
                    out = None  # type: ignore[assignment]
                elif op == "exit":
                    conn.send(("ok", None))
                    break
                else:
                    conn.send(("err", f"unknown op {op!r}"))
            except Exception:
                merged = out = None
                conn.send(("err", traceback.format_exc()))
            msg = None
    finally:
        for shm, views in blocks.values():
            views.clear()
            _close_quietly(shm)
        blocks.clear()
        conn.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class KernelPool:
    """Lazily-started persistent process pool running registered kernels.

    Interface-compatible with :class:`SerialShardRunner`; see the module
    docstring for the lifecycle and failure semantics.
    """

    is_serial = False

    def __init__(self, workers: int, *, start_method: Optional[str] = None) -> None:
        import multiprocessing as mp

        self.workers = max(1, int(workers))
        method = (
            start_method
            or os.environ.get("REPRO_KERNEL_START_METHOD")
            or ("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        )
        self._ctx = mp.get_context(method)
        self.start_method = method
        self._procs: List = []
        self._conns: List = []
        self._blocks: Dict[int, ShardBlock] = {}
        self._next_id = 0
        self._started = False
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    # -- block management ------------------------------------------------
    def register(self, arrays: Dict[str, np.ndarray]) -> ShardBlock:
        if self._closed:
            raise KernelPoolError("kernel pool is closed")
        block = _pack_block(self._next_id, arrays)
        self._next_id += 1
        self._blocks[block.block_id] = block
        if self._started:
            try:
                self._broadcast_attach(block)
            except BaseException:
                self._blocks.pop(block.block_id, None)
                block._release_segment()
                raise
        return block

    def release(self, block: ShardBlock) -> None:
        """Detach ``block`` from the workers and unlink its segment."""
        self._blocks.pop(block.block_id, None)
        if self._started and not self._closed:
            try:
                for conn in self._conns:
                    conn.send(("detach", block.block_id))
                for conn in self._conns:
                    self._expect_ok(conn)
            except KernelPoolError:
                pass  # the pool is already being torn down
        block._release_segment()

    def _broadcast_attach(self, block: ShardBlock) -> None:
        handle = (block.block_id, block._shm.name, block._specs)
        try:
            for conn in self._conns:
                conn.send(("attach", *handle))
            for conn in self._conns:
                self._expect_ok(conn)
        except (OSError, EOFError, BrokenPipeError):
            self._fail("a kernel worker died during attach")

    # -- lifecycle -------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._started or self._closed:
            if self._closed:
                raise KernelPoolError("kernel pool is closed")
            return
        try:
            for _ in range(self.workers):
                parent_conn, child_conn = self._ctx.Pipe()
                proc = self._ctx.Process(
                    target=_worker_main, args=(child_conn,), daemon=True
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            self._started = True
            for block in list(self._blocks.values()):
                self._broadcast_attach(block)
        except BaseException:
            if not self._closed:
                self.close()
            raise

    def _expect_ok(self, conn) -> object:
        try:
            status, payload = conn.recv()
        except (EOFError, OSError):
            self._fail("a kernel worker died unexpectedly")
        if status != "ok":
            self._fail(f"kernel worker failed:\n{payload}")
        return payload

    def _fail(self, message: str) -> None:
        self.close()
        raise KernelPoolError(message)

    # -- execution -------------------------------------------------------
    def run(
        self, kernel: str, blocks: Sequence[ShardBlock], tasks: Sequence[tuple]
    ) -> List[object]:
        """Run ``kernel`` once per task, round-robin over the workers.

        Returns results in task order.  One message round trip per worker
        per call, regardless of the number of tasks.
        """
        if self._closed:
            raise KernelPoolError("kernel pool is closed")
        if not tasks:
            return []
        self._ensure_started()
        block_ids = tuple(block.block_id for block in blocks)
        chunks: List[List[tuple]] = [[] for _ in self._conns]
        for index, args in enumerate(tasks):
            chunks[index % len(self._conns)].append((index, args))
        active = [
            (wid, conn, chunk)
            for wid, (conn, chunk) in enumerate(zip(self._conns, chunks))
            if chunk
        ]
        tracer = active_tracer()
        handle = None
        if tracer is not None:
            handle = tracer.begin(
                "kernel.dispatch",
                kernel=kernel,
                tasks=len(tasks),
                workers=len(self._conns),
            )
        try:
            try:
                for _wid, conn, chunk in active:
                    conn.send(("run", kernel, block_ids, chunk, handle is not None))
            except (OSError, EOFError, BrokenPipeError):
                self._fail("a kernel worker died while dispatching")
            results: List[object] = [None] * len(tasks)
            for wid, conn, _chunk in active:
                out, shipped = self._expect_ok(conn)
                if shipped is not None and tracer is not None:
                    adopt_spans(
                        tracer,
                        shipped,
                        parent_id=handle.span_id,
                        base=handle.start,
                        track=f"pool-worker-{wid}",
                    )
                for index, value in out:
                    results[index] = value
            return results
        finally:
            if tracer is not None:
                tracer.end(handle)

    def close(self) -> None:
        """Terminate workers and unlink every shared segment. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            for conn in self._conns:
                try:
                    conn.send(("exit",))
                except (OSError, EOFError, BrokenPipeError):
                    pass
            for proc in self._procs:
                proc.join(timeout=2.0)
            for proc in self._procs:
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=2.0)
            for conn in self._conns:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        self._procs = []
        self._conns = []
        self._started = False
        for block in list(self._blocks.values()):
            block._release_segment()
        self._blocks.clear()

    def __enter__(self) -> "KernelPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Process-wide pool registry
# ----------------------------------------------------------------------
_POOLS: Dict[int, KernelPool] = {}


def get_kernel_pool(workers: int) -> KernelPool:
    """Shared pool with ``workers`` workers (one per distinct count).

    Pools are created lazily and survive across flow runs so repeated
    estimates reuse warm workers; a pool poisoned by a worker failure is
    transparently replaced on the next request.
    """
    workers = max(1, int(workers))
    pool = _POOLS.get(workers)
    if pool is None or pool.closed:
        pool = KernelPool(workers)
        _POOLS[workers] = pool
    return pool


def get_runner(workers: int, runner=None):
    """Resolve a ``workers`` knob to a runner (``None`` = pure serial path).

    ``runner`` overrides (tests inject a :class:`SerialShardRunner` here);
    otherwise ``workers >= 1`` maps to the shared :class:`KernelPool` and
    ``workers <= 0`` — the default everywhere — selects the untouched serial
    code path.
    """
    if runner is not None:
        return runner
    if workers and int(workers) > 0:
        return get_kernel_pool(int(workers))
    return None


def shutdown_kernel_pools() -> None:
    """Close every shared pool (atexit hook; also handy in tests)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_kernel_pools)
