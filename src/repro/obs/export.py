"""Chrome trace-event / Perfetto JSON export for :mod:`repro.obs` traces.

The output follows the Trace Event Format ("JSON Object Format" flavour:
a dict with a ``traceEvents`` list), which both ``chrome://tracing`` and
https://ui.perfetto.dev load directly.  Every span becomes one complete
("X") event with microsecond timestamps relative to the tracer epoch;
track assignments (main thread, worker threads, adopted batch-job
lanes) become thread rows via ``M`` metadata events.

``validate_chrome_trace`` is the schema check CI's trace-smoke step runs
(via ``python -m repro.obs trace.json``) so a malformed export fails the
build rather than failing silently in the viewer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from .tracer import Tracer

__all__ = ["chrome_trace", "write_chrome_trace", "validate_chrome_trace"]

_PID = 1


def _track_label(track: Union[int, str], main_thread: int) -> str:
    if isinstance(track, str):
        return track
    if track == main_thread:
        return "main"
    return f"thread-{track}"


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Render the tracer's records as a Chrome trace-event JSON object."""
    records = tracer.records()
    # Stable lane numbering: "main" is tid 0, then lanes in first-appearance
    # order.  Adopted lanes carry string names ("batch-job-1", ...).
    tids: Dict[str, int] = {"main": 0}
    events: List[Dict[str, Any]] = []
    for record in records:
        label = _track_label(record.track, tracer.main_thread)
        tid = tids.setdefault(label, len(tids))
        args: Dict[str, Any] = {"span_id": record.span_id}
        if record.parent_id is not None:
            args["parent_id"] = record.parent_id
        if record.attrs:
            args.update(record.attrs)
        events.append(
            {
                "name": record.name,
                "ph": "X",
                "ts": round((record.start - tracer.epoch) * 1e6, 3),
                "dur": round(max(record.dur, 0.0) * 1e6, 3),
                "pid": _PID,
                "tid": tid,
                "args": args,
            }
        )
    metadata: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for label, tid in tids.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": label},
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": tracer.metrics(),
    }


def write_chrome_trace(path: Union[str, Path], tracer: Tracer) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    destination = Path(path)
    payload = chrome_trace(tracer)
    destination.write_text(json.dumps(payload), encoding="utf-8")
    return destination


def validate_chrome_trace(payload: Any) -> List[str]:
    """Check ``payload`` against the trace-event schema; return problems.

    An empty list means the trace is loadable.  The checks mirror what the
    Perfetto JSON importer requires: a ``traceEvents`` list whose entries
    carry ``name``/``ph``/``pid``/``tid``, with numeric non-negative
    ``ts``/``dur`` on every complete ("X") event, plus overall JSON
    serializability.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: event must be an object")
            continue
        for key in ("name", "ph"):
            if not isinstance(event.get(key), str):
                problems.append(f"{where}: missing string field {key!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer field {key!r}")
        if event.get("ph") == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(f"{where}: 'X' event needs numeric {key!r}")
                elif value < 0:
                    problems.append(f"{where}: {key!r} must be non-negative")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: args must be an object when present")
    try:
        json.dumps(payload)
    except (TypeError, ValueError) as exc:
        problems.append(f"payload is not JSON-serializable: {exc}")
    return problems
