"""Cross-process span collection: record locally, ship, re-parent.

Process-executor batch jobs cannot write into the dispatching process's
tracer, and their ``perf_counter`` epochs are
unrelated to the parent's.  The protocol here keeps the hot path simple:

* the child records spans into its own tracer (absolute local clock
  values);
* :func:`serialize_trace` flattens them to plain tuples with *relative* start times (child epoch
  subtracted) so the payload is picklable over the existing Pipe/result
  channel;
* :func:`adopt_spans` replays the payload into the parent tracer with
  fresh span ids, roots re-parented under the dispatching span, and start
  times rebased onto the dispatch span's start.

Durations are exact; absolute alignment of child spans inside the
dispatch window is approximate (child epoch ≈ dispatch start), which is
the right trade for a deterministic, spawn-safe protocol with no clock
handshake.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from .tracer import SpanRecord, Tracer

__all__ = ["serialize_trace", "adopt_spans"]

#: Payload schema version, bumped if the tuple layout changes.
PAYLOAD_VERSION = 1


def serialize_trace(tracer: Tracer) -> Dict[str, Any]:
    """Flatten ``tracer`` into a picklable payload for :func:`adopt_spans`."""
    epoch = tracer.epoch
    metrics_snapshot = tracer.metrics()
    spans = [
        (
            record.span_id,
            record.parent_id,
            record.name,
            record.start - epoch,
            record.dur,
            record.attrs,
        )
        for record in tracer.records()
    ]
    return {
        "version": PAYLOAD_VERSION,
        "spans": spans,
        "counters": metrics_snapshot["counters"],
        "gauges": metrics_snapshot["gauges"],
        "dropped": metrics_snapshot["dropped"],
    }


def adopt_spans(
    tracer: Tracer,
    payload: Optional[Dict[str, Any]],
    *,
    parent_id: Optional[int],
    base: float,
    track: Union[int, str],
) -> int:
    """Replay a shipped payload into ``tracer``; returns spans adopted.

    ``parent_id`` is the dispatching span's id (shipped roots hang under
    it); ``base`` is the absolute clock value child-relative times are
    rebased onto (normally the dispatch span's ``start``); ``track`` names
    the lane the adopted spans render on (e.g. "batch-job-2").
    """
    if not payload:
        return 0
    # Spans ship in finalize order (innermost first), so a child can appear
    # before its parent; assign every fresh id up front so internal parent
    # links survive the replay regardless of order.
    id_map: Dict[int, int] = {
        entry[0]: tracer.new_id() for entry in payload["spans"]
    }
    adopted = 0
    for child_id, child_parent, name, rel_start, dur, attrs in payload["spans"]:
        new_parent = id_map.get(child_parent, parent_id)
        tracer.adopt(
            SpanRecord(
                id_map[child_id], new_parent, name, base + rel_start, dur, track, attrs
            )
        )
        adopted += 1
    tracer.merge_metrics(
        counters=payload.get("counters"),
        gauges=payload.get("gauges"),
        dropped=payload.get("dropped", 0),
    )
    return adopted
