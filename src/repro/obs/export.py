"""Chrome/Perfetto trace-event JSON export.

:func:`trace_events` turns a :class:`~repro.obs.span.Tracer` into the
`trace-event format`__ Perfetto and ``chrome://tracing`` load directly:
``"X"`` complete events for spans (``ts``/``dur`` in microseconds),
``"i"`` instant events for marks, and ``"M"`` metadata naming the
lanes.  Drop the file produced by :func:`write_trace` onto
``ui.perfetto.dev`` and every request renders as one thread whose
nested slices are its queue wait, attempts, fences, and fan-out RPCs.

__ https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

Lane mapping is deterministic: pid 0 is the ``system`` process holding
the named lanes (``serve``, ``faults``, ``autoscale``, then one per
device track — a node's CPU and disk spans — in order of first
appearance); each tenant is a process of its own (pid 1.., sorted by
name) and each request a thread (tid = req_id) inside its tenant.
``args`` carries the span's attributes plus its ``sid``/``parent`` ids
so validators (and the critical-path analyzer reading a file back) can
rebuild the tree.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .span import Span, Tracer

__all__ = ["trace_events", "trace_document", "write_trace"]

#: pid of the process holding non-request lanes.
SYSTEM_PID = 0
#: Fixed tid per system lane (anything unlisted gets the next free tid).
SYSTEM_LANES = ("serve", "faults", "autoscale")


def _us(t: float) -> float:
    """Seconds -> microseconds, rounded to a stable sub-ns grid."""
    return round(t * 1e6, 3)


class _Lanes:
    """Deterministic (pid, tid) assignment for tracks."""

    def __init__(self, tracer: Tracer):
        self._tenant_pid: Dict[str, int] = {}
        self._system_tid: Dict[str, int] = {
            lane: tid + 1 for tid, lane in enumerate(SYSTEM_LANES)
        }
        self._req_tenant: Dict[int, str] = {
            req_id: root.attrs.get("tenant", "?")
            for req_id, root in tracer.requests.items()
        }
        for tenant in sorted(set(self._req_tenant.values())):
            self._tenant_pid[tenant] = len(self._tenant_pid) + 1

    def assign(self, track) -> tuple:
        if isinstance(track, int):  # a request id
            tenant = self._req_tenant.get(track)
            if tenant is not None:
                return (self._tenant_pid[tenant], track)
            return (SYSTEM_PID, track)
        lane = str(track) if track is not None else "serve"
        tid = self._system_tid.get(lane)
        if tid is None:
            tid = self._system_tid[lane] = len(self._system_tid) + 1
        return (SYSTEM_PID, tid)

    def metadata(self) -> List[dict]:
        events = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": SYSTEM_PID,
                "tid": 0,
                "args": {"name": "system"},
            }
        ]
        for lane, tid in sorted(self._system_tid.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": SYSTEM_PID,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        for tenant, pid in sorted(self._tenant_pid.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"tenant {tenant}"},
                }
            )
        for req_id in sorted(self._req_tenant):
            pid, tid = self.assign(req_id)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"req {req_id}"},
                }
            )
        return events


def _span_args(span: Span) -> dict:
    args = {"sid": span.sid}
    if span.parent is not None:
        args["parent"] = span.parent
    args.update(span.attrs)
    return args


def trace_events(tracer: Tracer) -> List[dict]:
    """The flat trace-event list (metadata first, then spans, instants)."""
    lanes = _Lanes(tracer)
    events: List[dict] = []
    horizon = max(
        [s.end for s in tracer.spans if s.end is not None]
        + [e.time for e in tracer.instants]
        + [0.0]
    )
    for span in tracer.spans:
        pid, tid = lanes.assign(span.track)
        end = span.end
        args = _span_args(span)
        if end is None:
            # A span left open (a request that never settled) is closed
            # at the horizon and flagged, never silently dropped.
            end = horizon
            args["truncated"] = True
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.cat,
                "ts": _us(span.start),
                "dur": round(_us(end) - _us(span.start), 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for mark in span.events:
            events.append(
                {
                    "ph": "i",
                    "name": mark.name,
                    "cat": span.cat,
                    "ts": _us(mark.time),
                    "pid": pid,
                    "tid": tid,
                    "s": "t",
                    "args": dict(mark.attrs),
                }
            )
    for mark, track in zip(tracer.instants, tracer._instant_tracks):
        pid, tid = lanes.assign(track)
        events.append(
            {
                "ph": "i",
                "name": mark.name,
                "cat": "instant",
                "ts": _us(mark.time),
                "pid": pid,
                "tid": tid,
                "s": "p",
                "args": dict(mark.attrs),
            }
        )
    # Metadata last to build, first to list: every lane (device lanes
    # included) has been assigned by now, so each gets its name.
    return lanes.metadata() + events


def trace_document(tracer: Tracer, meta: Optional[dict] = None) -> dict:
    doc = {
        "traceEvents": trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", **(meta or {})},
    }
    return doc


def write_trace(tracer: Tracer, path, meta: Optional[dict] = None) -> None:
    """Write a Perfetto-loadable JSON file (deterministic bytes)."""
    doc = trace_document(tracer, meta)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
