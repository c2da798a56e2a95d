"""Structural validation of exported trace-event JSON.

Shared by ``python -m repro.verify trace`` (CI: the ``record`` job) and the
test suite: a trace a human would debug with must be one Perfetto can
actually load and one whose tree is sound — every span ends at or after
it starts, every ``parent`` sid exists, and a child lies inside its
parent's interval.  The one sanctioned escape is a span the tracer
marked ``detached`` (work its parent stopped waiting for — an abandoned
hedge read, a superseded RPC — that legitimately finishes after the
logical operation ended); a detached child must still *start* inside
its parent.  Stdlib only.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["validate_trace"]

#: Tolerance (microseconds) for containment checks against the rounded
#: ts/dur grid the exporter writes.
EPS_US = 0.01

_REQUIRED = ("ph", "name", "pid", "tid")


def validate_trace(doc: dict) -> List[str]:
    """Return every structural problem found (empty list == valid)."""
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["top level: no traceEvents list"]

    spans: Dict[int, dict] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in _REQUIRED:
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph == "M":
            continue
        if not isinstance(ev.get("ts"), (int, float)):
            problems.append(f"event {i}: ts is not a number")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)):
                problems.append(f"event {i} ({ev.get('name')!r}): dur missing")
                continue
            if dur < 0:
                problems.append(
                    f"event {i} ({ev.get('name')!r}): ends before it starts"
                    f" (dur {dur})"
                )
            sid = (ev.get("args") or {}).get("sid")
            if sid is not None:
                if sid in spans:
                    problems.append(f"event {i}: duplicate sid {sid}")
                else:
                    spans[sid] = ev

    for sid, ev in spans.items():
        parent_sid = (ev.get("args") or {}).get("parent")
        if parent_sid is None:
            continue
        parent = spans.get(parent_sid)
        if parent is None:
            problems.append(
                f"span sid={sid} ({ev['name']!r}):"
                f" parent sid {parent_sid} does not exist"
            )
            continue
        lo, hi = ev["ts"], ev["ts"] + ev["dur"]
        plo, phi = parent["ts"], parent["ts"] + parent["dur"]
        detached = bool((ev.get("args") or {}).get("detached"))
        end_ok = detached or hi <= phi + EPS_US
        if lo < plo - EPS_US or not end_ok:
            problems.append(
                f"span sid={sid} ({ev['name']!r}) [{lo}, {hi}]us escapes"
                f" parent sid={parent_sid} ({parent['name']!r}) [{plo}, {phi}]us"
            )
    return problems
