"""Concurrent multi-design flow execution with aggregated reporting.

A :class:`BatchJob` names a benchmark, a flow preset, a seed, and optional
config overrides; :func:`run_batch` fans the jobs out over a
``ProcessPoolExecutor`` and folds the per-design summaries into a
:class:`BatchReport`.  Each worker regenerates its design from the spec
through :func:`repro.benchgen.load_benchmark`, so only the small job
crosses the process boundary, and workers do not contend for one GIL on
the Python-heavy parts of a flow.  Failures are contained: a job that
raises is reported with its error string instead of aborting the batch.
Results equal an in-process run of the same job, since every flow is
deterministic given its design, config and seed.
"""

from __future__ import annotations

import json
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.benchgen.suite import available_design_names, check_scale, load_benchmark
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
    # Serialized span payload shipped back from a worker process
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
            f"({self.max_workers} workers)",
        )


def run_job(job: BatchJob, traced: bool = False) -> BatchItemResult:
    """Execute one batch job in the current process.

    ``traced`` is set when the dispatching batch is being traced.  The job
    then records into a fresh local tracer and ships the serialized spans
    back on ``BatchItemResult.trace``, where :func:`run_batch` re-parents
    them under its ``batch.run`` span.
    """
    from repro.flow.presets import build_flow

    label = job.resolved_label()
    inherited = active_tracer()
    if inherited is not None and inherited.pid != os.getpid():
        # Fork-started worker: the inherited tracer global belongs to the
        # parent and can never ship back, so drop it.
        stop_tracing()
    tracer = handle = None
    if traced:
        tracer = start_tracing()
        handle = tracer.begin(
            "batch.job",
            label=label,
            design=job.design,
            preset=job.preset,
            seed=job.seed,
        )
    start = clock()
    try:
        _check_job_seed(job)
        design = load_benchmark(job.design, scale=job.scale)
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
        stop_tracing()
        item.trace = serialize_trace(tracer)
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


def run_batch(
    jobs: Sequence[BatchJob],
    *,
    max_workers: Optional[int] = None,
) -> BatchReport:
    """Run every job in worker processes and aggregate a :class:`BatchReport`.

    Jobs are plain dataclasses, so they pickle cleanly; each worker
    regenerates its design (see the module docstring).  ``max_workers``
    defaults to the usable CPU count, capped at the number of jobs.
    Malformed jobs (unknown design, bad scale, conflicting seed) raise
    ``ValueError`` before any worker starts.
    """
    jobs = list(jobs)
    workers_source = "auto" if max_workers is None else "explicit"
    if not jobs:
        raise ValueError("run_batch needs at least one job")
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    known = set(available_design_names())
    for job in jobs:
        # Validate up front: a malformed job should fail the batch before
        # any compute is spent, not after every other job has finished.
        _check_job_seed(job)
        if job.design not in known:
            raise ValueError(
                f"BatchJob {job.resolved_label()}: unknown benchmark {job.design!r}"
            )
        try:
            check_scale(job.scale)
        except ValueError as exc:
            raise ValueError(f"BatchJob {job.resolved_label()}: {exc}") from None
    if max_workers is None:
        # Affinity-aware: honors cgroup/sched_setaffinity CPU limits
        # (os.process_cpu_count where available) instead of raw cpu_count.
        max_workers = min(len(jobs), resolve_worker_count())
    max_workers = int(max_workers)
    start = clock()
    tracer = active_tracer()
    batch_handle = None
    if tracer is not None:
        batch_handle = tracer.begin("batch.run", jobs=len(jobs), workers=max_workers)
    try:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            items = list(pool.map(run_job, jobs, [tracer is not None] * len(jobs)))
    finally:
        if tracer is not None:
            tracer.end(batch_handle)
    if tracer is not None:
        # Workers shipped their spans back on the items; replay them under
        # the batch.run span, one lane per job.
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
        workers_source=workers_source,
    )
