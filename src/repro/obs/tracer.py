"""In-process hierarchical span tracer with counters and gauges.

The tracer is the single clock-owning component of the repo: every other
module times work either through :func:`clock` (a raw monotonic timestamp
for code that keeps legacy ``seconds`` accounting alive) or through
:func:`span` (a context manager that records a named, attributed interval
into the active tracer's ring buffer).  The contract-lint rule
``raw-timing`` enforces this — ``time.perf_counter()`` outside
``repro.obs`` / ``repro.utils.profiling`` is a finding.

Design constraints, in order:

* **Disabled means free.**  ``span(...)`` with no active tracer returns a
  shared no-op context manager without allocating; ``active_tracer()`` is
  a single module-global read.  The global-placement inner loop calls both
  every iteration, so the disabled path must not show up in profiles.
* **Enabled means cheap.**  One span is two ``perf_counter`` calls, one
  dict merge, and an append — no I/O, no string formatting.  The
  ≤3% traced-GP-iteration budget in ``benchmarks/bench_core.py`` gates
  this.
* **Never lossy about *that* it lost data.**  The ring buffer drops the
  newest spans once ``capacity`` is reached (so ancestors survive and the
  trace stays well-formed) but keeps exact aggregate metrics and a
  ``dropped`` count regardless.
* **No repro imports.**  ``repro.utils.profiling`` and the layered
  packages (netlist/placement/timing/route) all import
  this module; it must stay stdlib-only to keep the import graph acyclic.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = [
    "DEFAULT_CAPACITY",
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "clock",
    "span",
    "start_tracing",
    "stop_tracing",
    "tracing_enabled",
]

#: Monotonic float-seconds clock shared by the whole repo.  Code that keeps
#: legacy ``seconds`` fields (RuntimeProfiler, gradient_seconds, stage walls)
#: calls this instead of ``time.perf_counter`` so the raw-timing contract
#: rule has exactly one blessed call site.
clock = time.perf_counter

DEFAULT_CAPACITY = 262_144

_UNSET = object()


class SpanRecord:
    """One completed (or in-flight) span.

    ``start`` is an absolute :func:`clock` timestamp; ``dur`` is seconds
    (``-1.0`` while the span is still open).  ``track`` is either an
    integer thread ident (local spans) or a string lane name assigned by
    cross-process adoption (e.g. ``"batch-job-3"``).
    """

    __slots__ = ("span_id", "parent_id", "name", "start", "dur", "track", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        dur: float,
        track: Union[int, str],
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.dur = dur
        self.track = track
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord(id={self.span_id}, parent={self.parent_id}, "
            f"name={self.name!r}, start={self.start:.6f}, dur={self.dur:.6f})"
        )


class _ActiveSpan:
    """Context manager handle returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "_handle")

    def __init__(self, tracer: "Tracer", name: str, attrs: Optional[Dict[str, Any]]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._handle: Optional[SpanRecord] = None

    def __enter__(self) -> SpanRecord:
        self._handle = self._tracer.begin(self._name, attrs=self._attrs)
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.end(self._handle)
        return False


class _NoopSpan:
    """Shared do-nothing context manager for the tracing-disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Hierarchical span recorder with aggregate metrics.

    Thread-safe: spans opened on different threads nest independently
    (per-thread parent stacks) and finalization takes a lock, so batch
    jobs running on a thread executor can all record into the flow's
    tracer.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.epoch = clock()
        self.main_thread = threading.get_ident()
        # Owning process: a fork-started worker inherits the module global,
        # but a tracer can only ever be drained in the process that made it
        # (consumers compare pid and fall back to the shipping protocol).
        self.pid = os.getpid()
        self._records: List[SpanRecord] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks = threading.local()
        self._span_seconds: Dict[str, float] = {}
        self._span_counts: Dict[str, int] = {}
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._listeners: List[Callable[[SpanRecord], None]] = []
        self.dropped = 0

    # ------------------------------------------------------------------ ids
    def new_id(self) -> int:
        """Allocate a fresh span id (used by cross-process adoption)."""
        return next(self._ids)

    def _stack(self) -> List[SpanRecord]:
        stack = getattr(self._stacks, "items", None)
        if stack is None:
            stack = []
            self._stacks.items = stack
        return stack

    # ---------------------------------------------------------------- spans
    def begin(
        self,
        name: str,
        parent: Any = _UNSET,
        attrs: Optional[Dict[str, Any]] = None,
        **kwattrs: Any,
    ) -> SpanRecord:
        """Open a span; returns the handle to pass to :meth:`end`.

        ``parent`` defaults to the innermost open span on the calling
        thread; pass an explicit span id (or ``None`` for a root span) to
        override — batch jobs use this to hang worker-thread spans under
        the dispatching ``batch.run`` span.
        """
        stack = self._stack()
        if parent is _UNSET:
            parent_id = stack[-1].span_id if stack else None
        elif isinstance(parent, SpanRecord):
            parent_id = parent.span_id
        else:
            parent_id = parent
        if kwattrs:
            attrs = dict(attrs, **kwattrs) if attrs else kwattrs
        record = SpanRecord(
            next(self._ids),
            parent_id,
            name,
            clock(),
            -1.0,
            threading.get_ident(),
            attrs,
        )
        stack.append(record)
        return record

    def end(self, handle: Optional[SpanRecord]) -> float:
        """Close a span opened with :meth:`begin`; returns its duration."""
        if handle is None:
            return 0.0
        dur = clock() - handle.start
        handle.dur = dur
        stack = self._stack()
        if stack and stack[-1] is handle:
            stack.pop()
        elif handle in stack:  # out-of-order end: drop it and everything above
            del stack[stack.index(handle):]
        self._finalize(handle)
        return dur

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """Context manager recording one span around its body."""
        return _ActiveSpan(self, name, attrs or None)

    def record_complete(
        self,
        name: str,
        start: float,
        dur: float,
        parent: Any = _UNSET,
        track: Optional[Union[int, str]] = None,
        attrs: Optional[Dict[str, Any]] = None,
        **kwattrs: Any,
    ) -> SpanRecord:
        """Record an already-measured interval (start/dur in clock seconds).

        Hot loops that must keep their own ``clock()`` deltas alive for
        legacy accounting (``gradient_seconds``) use this so the same
        measurement feeds both views without a second pair of clock reads.
        """
        if parent is _UNSET:
            stack = self._stack()
            parent_id = stack[-1].span_id if stack else None
        elif isinstance(parent, SpanRecord):
            parent_id = parent.span_id
        else:
            parent_id = parent
        if kwattrs:
            attrs = dict(attrs, **kwattrs) if attrs else kwattrs
        record = SpanRecord(
            next(self._ids),
            parent_id,
            name,
            start,
            dur,
            threading.get_ident() if track is None else track,
            attrs,
        )
        self._finalize(record)
        return record

    def _finalize(self, record: SpanRecord) -> None:
        name = record.name
        with self._lock:
            self._span_seconds[name] = self._span_seconds.get(name, 0.0) + record.dur
            self._span_counts[name] = self._span_counts.get(name, 0) + 1
            if len(self._records) < self.capacity:
                self._records.append(record)
            else:
                self.dropped += 1
        for listener in self._listeners:
            listener(record)

    def adopt(self, record: SpanRecord) -> None:
        """Append a pre-built record (cross-process adoption path)."""
        self._finalize(record)

    # -------------------------------------------------------------- metrics
    def counter(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def merge_metrics(
        self,
        counters: Optional[Dict[str, float]] = None,
        gauges: Optional[Dict[str, float]] = None,
        dropped: int = 0,
    ) -> None:
        with self._lock:
            for name, value in (counters or {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in (gauges or {}).items():
                self._gauges[name] = float(value)
            self.dropped += int(dropped)

    def metrics(self) -> Dict[str, Any]:
        """Flat aggregate snapshot (merged into EvaluationReport/--profile)."""
        with self._lock:
            spans = {
                name: {
                    "seconds": self._span_seconds[name],
                    "count": self._span_counts[name],
                }
                for name in sorted(self._span_seconds)
            }
            return {
                "spans": spans,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "events": len(self._records),
                "dropped": self.dropped,
            }

    # ------------------------------------------------------------ listeners
    def add_listener(self, listener: Callable[[SpanRecord], None]) -> None:
        """Streaming seam: ``listener`` is called with each completed span.

        This is the hook the future placement-as-a-service progress feed
        attaches to; listeners must be fast and must not raise.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[SpanRecord], None]) -> None:
        self._listeners.remove(listener)

    # ---------------------------------------------------------------- views
    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


# ---------------------------------------------------------------------------
# Module-level active tracer
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    """The process-wide tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def tracing_enabled() -> bool:
    return _ACTIVE is not None


def start_tracing(capacity: int = DEFAULT_CAPACITY) -> Tracer:
    """Install a fresh process-wide tracer; raises if one is already active."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError(
            "tracing already active; call stop_tracing() before starting again"
        )
    _ACTIVE = Tracer(capacity=capacity)
    return _ACTIVE


def stop_tracing() -> Optional[Tracer]:
    """Uninstall and return the active tracer (``None`` if none was active).

    The returned tracer keeps its records, so exporters run after this.
    """
    global _ACTIVE
    tracer = _ACTIVE
    _ACTIVE = None
    return tracer


def span(name: str, **attrs: Any) -> Union[_ActiveSpan, _NoopSpan]:
    """Record a span around the ``with`` body on the active tracer.

    With tracing disabled this returns a shared no-op context manager; the
    call costs one global read plus the (empty-most-of-the-time) kwargs
    dict, which is what lets hot loops leave ``span(...)`` calls inline.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP_SPAN
    return _ActiveSpan(tracer, name, attrs or None)
