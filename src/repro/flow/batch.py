"""Concurrent multi-design flow execution with aggregated reporting.

A :class:`BatchJob` names a benchmark, a flow preset, a seed, and optional
config overrides; :func:`run_batch` fans the jobs out over a
``concurrent.futures`` pool and folds the per-design summaries into a
:class:`BatchReport`.  Failures are contained: a job that raises is reported
with its error string instead of aborting the batch.

How the design reaches each worker is controlled by ``ship``:

* ``"generate"`` (default) — every worker regenerates its benchmark from the
  spec.  No transfer cost, but the generation work is repeated per job.
* ``"compiled"`` — the parent builds each unique (design, scale) once,
  snapshots it into a :class:`repro.netlist.CompiledDesign` (array-only, no
  object graph, ~10-30x smaller than pickling the design), and ships the
  snapshot; workers rebuild the design index-for-index identical.
* ``"shared"`` — like ``"compiled"``, but the snapshot's read-only arrays
  are placed in ``multiprocessing.shared_memory``; workers attach instead of
  receiving a copy.  Opt-in, same results bit for bit.

Results are identical across all ship modes and both executors — the
snapshot round-trip is exact, and every flow is deterministic given its seed.
"""

from __future__ import annotations

import contextlib
import json
import os
import traceback
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.benchgen.suite import load_benchmark
from repro.netlist.compiled import (
    CompiledDesign,
    SharedDesignHandle,
    SharedDesignPack,
    compile_design,
)
from repro.obs import (
    active_tracer,
    adopt_spans,
    clock,
    serialize_trace,
    start_tracing,
    stop_tracing,
)
from repro.utils.logging import get_logger

logger = get_logger("flow.batch")

SHIP_MODES = ("generate", "compiled", "shared")


@dataclass
class BatchJob:
    """One design x preset x seed cell of a batch run."""

    design: str
    preset: str = "efficient_tdp"
    seed: int = 0
    scale: float = 1.0
    overrides: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def resolved_label(self) -> str:
        if self.label:
            return self.label
        tag = f"{self.design}:{self.preset}:s{self.seed}"
        if self.scale != 1.0:
            tag += f":x{self.scale:g}"
        return tag


@dataclass
class BatchItemResult:
    """Outcome of one job: a summary dict, or an error string."""

    label: str
    design: str
    preset: str
    seed: int
    scale: float
    runtime_seconds: float
    summary: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    # Serialized span payload shipped back from a process-executor worker
    # (see repro.obs.remote); consumed and cleared by run_batch when it
    # re-parents the spans under its own dispatch span.  Never part of
    # as_dict() — traces are exported separately from the JSON report.
    trace: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "design": self.design,
            "preset": self.preset,
            "seed": self.seed,
            "scale": self.scale,
            "runtime_sec": round(self.runtime_seconds, 3),
            "summary": self.summary,
            "error": self.error,
        }


@dataclass
class BatchReport:
    """Aggregated outcome of a :func:`run_batch` call."""

    items: List[BatchItemResult]
    total_runtime_seconds: float
    max_workers: int
    executor: str
    ship: str = "generate"
    # How max_workers was resolved: "explicit" (caller passed it) or
    # "auto" (affinity-aware CPU count).
    workers_source: str = "explicit"

    @property
    def num_ok(self) -> int:
        return sum(1 for item in self.items if item.ok)

    @property
    def num_failed(self) -> int:
        return len(self.items) - self.num_ok

    def aggregate(self) -> Dict[str, Any]:
        """Design-count, mean metrics overall and per preset."""

        def metrics_of(items: Sequence[BatchItemResult]) -> Dict[str, float]:
            rows = [item.summary for item in items if item.ok and item.summary]
            out: Dict[str, float] = {"runs": float(len(rows))}
            for key in ("hpwl", "tns", "wns", "runtime_sec"):
                values = [row[key] for row in rows if key in row]
                if values:
                    out[f"mean_{key}"] = sum(values) / len(values)
            tns_values = [row["tns"] for row in rows if "tns" in row]
            if tns_values:
                out["total_tns"] = sum(tns_values)
            return out

        by_preset: Dict[str, Dict[str, float]] = {}
        for preset in sorted({item.preset for item in self.items}):
            by_preset[preset] = metrics_of([i for i in self.items if i.preset == preset])
        return {
            "jobs": len(self.items),
            "ok": self.num_ok,
            "failed": self.num_failed,
            "wall_seconds": round(self.total_runtime_seconds, 3),
            "cpu_seconds": round(sum(i.runtime_seconds for i in self.items), 3),
            "overall": metrics_of(self.items),
            "by_preset": by_preset,
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "max_workers": self.max_workers,
            "workers_source": self.workers_source,
            "executor": self.executor,
            "ship": self.ship,
            "aggregate": self.aggregate(),
            "items": [item.as_dict() for item in self.items],
        }

    def to_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2)
        return path

    def format_table(self) -> str:
        from repro.evaluation.metrics import format_table

        rows = []
        for item in self.items:
            if item.ok and item.summary:
                rows.append([
                    item.label,
                    round(item.summary.get("tns", 0.0), 1),
                    round(item.summary.get("wns", 0.0), 1),
                    round(item.summary.get("hpwl", 0.0), 0),
                    round(item.summary.get("runtime_sec", 0.0), 2),
                ])
            else:
                rows.append([item.label, "ERROR", "-", "-", round(item.runtime_seconds, 2)])
        return format_table(
            ["Job", "TNS (ps)", "WNS (ps)", "HPWL", "Runtime (s)"],
            rows,
            title=f"Batch: {self.num_ok}/{len(self.items)} ok, "
            f"wall {self.total_runtime_seconds:.1f}s "
            f"({self.executor} x{self.max_workers})",
        )


def _materialize_design(job: BatchJob, payload):
    """Turn a job's shipped payload (or its name) into a fresh design."""
    if payload is None:
        return load_benchmark(job.design, scale=job.scale)
    if isinstance(payload, CompiledDesign):
        return payload.to_design()
    if isinstance(payload, SharedDesignHandle):
        loaded = payload.load()
        try:
            return loaded.compiled.to_design()
        finally:
            loaded.close()
    raise TypeError(f"Unsupported batch payload type {type(payload).__name__}")


def run_job(job: BatchJob, payload=None, trace_parent=None) -> BatchItemResult:
    """Execute one batch job in the current process/thread.

    ``payload`` optionally carries the design as a :class:`CompiledDesign`
    snapshot or a :class:`SharedDesignHandle`; without it the benchmark is
    regenerated from its spec.

    ``trace_parent`` is the dispatching ``batch.run`` span id when the batch
    is being traced.  Thread-executor workers share the parent's tracer and
    record a ``batch.job`` span directly under it; process-executor workers
    (no tracer of their own) record into a fresh local tracer and ship the
    serialized spans back on ``BatchItemResult.trace`` for re-parenting.
    """
    from repro.flow.presets import build_flow

    label = job.resolved_label()
    tracer = active_tracer()
    if tracer is not None and tracer.pid != os.getpid():
        # Fork-started process worker: the inherited tracer global belongs
        # to the parent and can never ship back — replace it with a local
        # tracer (trace_parent set) or drop it (tracing disabled mid-fork).
        stop_tracing()
        tracer = None
    child_tracer = None
    if tracer is None and trace_parent is not None:
        child_tracer = tracer = start_tracing()
    handle = None
    if tracer is not None:
        handle = tracer.begin(
            "batch.job",
            parent=trace_parent if child_tracer is None else None,
            label=label,
            design=job.design,
            preset=job.preset,
            seed=job.seed,
        )
    start = clock()
    try:
        _check_job_seed(job)
        design = _materialize_design(job, payload)
        overrides = dict(job.overrides)
        overrides["seed"] = job.seed
        runner = build_flow(job.preset, **overrides)
        result = runner.run(design, seed=job.seed)
        summary = result.summary()
        item = BatchItemResult(
            label=label,
            design=job.design,
            preset=job.preset,
            seed=job.seed,
            scale=job.scale,
            runtime_seconds=clock() - start,
            summary=summary,
        )
    except Exception:  # noqa: BLE001 - contained per-job failure
        logger.exception("batch job %s failed", label)
        item = BatchItemResult(
            label=label,
            design=job.design,
            preset=job.preset,
            seed=job.seed,
            scale=job.scale,
            runtime_seconds=clock() - start,
            error=traceback.format_exc(limit=8),
        )
    if tracer is not None:
        tracer.end(handle)
    if child_tracer is not None:
        stop_tracing()
        item.trace = serialize_trace(child_tracer)
    return item


def _check_job_seed(job: BatchJob) -> None:
    """``job.seed`` is authoritative (labels and the report quote it); a
    disagreeing ``overrides['seed']`` would silently desynchronize them."""
    if "seed" in job.overrides and job.overrides["seed"] != job.seed:
        raise ValueError(
            f"BatchJob {job.resolved_label()}: "
            f"overrides['seed']={job.overrides['seed']!r} conflicts with "
            f"job.seed={job.seed}; set BatchJob.seed instead"
        )


def resolve_worker_count() -> int:
    """CPUs actually usable by this process (affinity-aware).

    Prefers ``os.process_cpu_count`` (Python 3.13+), falls back to the
    scheduler affinity mask, then ``os.cpu_count``.  On shared/CI hosts the
    affinity mask is the honest number: ``os.cpu_count`` reports the
    machine, not the cgroup.
    """
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


def _make_executor(kind: str, max_workers: int) -> Executor:
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=max_workers)
    if kind == "process":
        return ProcessPoolExecutor(max_workers=max_workers)
    raise ValueError(f"executor must be 'thread' or 'process', got {kind!r}")


def _build_payloads(
    jobs: Sequence[BatchJob], ship: str, cleanup: contextlib.ExitStack
) -> List[Optional[object]]:
    """Compile each unique (design, scale) once and map it onto the jobs.

    Shared-memory packs are registered on ``cleanup`` the moment they are
    created, so their segments are closed **and unlinked** no matter where a
    later failure happens — a benchmark that fails to build, a worker that
    raises mid-batch, or the executor itself going down.
    """
    payloads: List[Optional[object]] = [None] * len(jobs)
    if ship == "generate":
        return payloads
    compiled_cache: Dict[Tuple[str, float], object] = {}
    for position, job in enumerate(jobs):
        key = (job.design, job.scale)
        payload = compiled_cache.get(key)
        if payload is None:
            snapshot = compile_design(load_benchmark(job.design, scale=job.scale))
            if ship == "shared":
                pack = cleanup.enter_context(SharedDesignPack(snapshot))
                payload = pack.handle
            else:
                payload = snapshot
            compiled_cache[key] = payload
        payloads[position] = payload
    return payloads


def run_batch(
    jobs: Sequence[BatchJob],
    *,
    max_workers: Optional[int] = None,
    executor: str = "thread",
    ship: str = "generate",
) -> BatchReport:
    """Run every job concurrently and aggregate a :class:`BatchReport`.

    ``executor="thread"`` (default) shares the process; ``"process"`` forks
    workers (jobs are plain dataclasses, so they pickle cleanly).  ``ship``
    selects how designs reach workers (see the module docstring): with
    ``"compiled"`` each unique design is built once in the parent and shipped
    as an array-only snapshot; ``"shared"`` additionally moves the snapshot
    arrays into shared memory.
    """
    jobs = list(jobs)
    workers_source = "auto" if max_workers is None else "explicit"
    if not jobs:
        raise ValueError("run_batch needs at least one job")
    if ship not in SHIP_MODES:
        raise ValueError(f"ship must be one of {', '.join(SHIP_MODES)}, got {ship!r}")
    for job in jobs:
        # Validate up front: a malformed job should fail the batch before
        # any compute is spent, not after every other job has finished.
        _check_job_seed(job)
    if max_workers is None:
        # Affinity-aware: honors cgroup/sched_setaffinity CPU limits
        # (os.process_cpu_count where available) instead of raw cpu_count.
        max_workers = min(len(jobs), resolve_worker_count())
    max_workers = max(1, int(max_workers))
    start = clock()
    tracer = active_tracer()
    batch_handle = None
    if tracer is not None:
        batch_handle = tracer.begin(
            "batch.run",
            jobs=len(jobs),
            executor=executor,
            ship=ship,
            workers=max_workers,
        )
    parents = [None if batch_handle is None else batch_handle.span_id] * len(jobs)
    try:
        # ExitStack guarantees close()+unlink() of every shared-memory pack
        # on any exit path: normal completion, a failing payload build, or a
        # worker exception that escapes the pool (no /dev/shm segment may
        # leak).
        with contextlib.ExitStack() as cleanup:
            payloads = _build_payloads(jobs, ship, cleanup)
            with _make_executor(executor, max_workers) as pool:
                items = list(pool.map(run_job, jobs, payloads, parents))
    finally:
        if tracer is not None:
            tracer.end(batch_handle)
    if tracer is not None:
        # Process-executor workers shipped their spans back on the items;
        # replay them under the batch.run span, one lane per job.
        for index, item in enumerate(items):
            if item.trace:
                adopt_spans(
                    tracer,
                    item.trace,
                    parent_id=batch_handle.span_id,
                    base=batch_handle.start,
                    track=f"batch-job-{index}",
                )
                item.trace = None
    return BatchReport(
        items=items,
        total_runtime_seconds=clock() - start,
        max_workers=max_workers,
        executor=executor,
        ship=ship,
        workers_source=workers_source,
    )
