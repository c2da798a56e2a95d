"""Timeline reconstruction — a projection of the span model.

While a live :class:`~repro.obs.Tracer` sits on a cluster's monitor
hub, every CPU and disk busy interval ``[grant, release)`` is recorded
on it as a parentless span (cat ``cpu`` / ``disk``, track = the node).
A :class:`Timeline` is nothing more than the projection of those spans
onto per-``(node, kind)`` busy intervals; the interval algebra
(merging, total measure) lives in :mod:`repro.obs.span` and is shared
with the tracer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..obs.span import Interval, Span, intervals_total, merge_intervals

__all__ = ["Interval", "Timeline", "render_gantt", "utilization_table"]

#: Span categories the device models book (``hw.cpu`` / ``hw.disk``).
DEVICE_KINDS = ("cpu", "disk")


@dataclass
class Timeline:
    """Busy intervals per (node, resource kind)."""

    #: (node, kind) -> sorted list of [start, end) busy intervals.
    busy: Dict[Tuple[str, str], List[Interval]]
    horizon: float

    @classmethod
    def from_spans(cls, spans: List[Span], horizon: float = 0.0) -> "Timeline":
        """Project the device spans (track=node, cat=kind) of a trace
        onto busy lanes; request-scoped spans are ignored."""
        busy: Dict[Tuple[str, str], List[Interval]] = defaultdict(list)
        for span in spans:
            if span.end is None or span.cat not in DEVICE_KINDS:
                continue
            horizon = max(horizon, span.end)
            busy[(span.track, span.cat)].append((span.start, span.end))
        for intervals in busy.values():
            intervals.sort()
        return cls(busy=dict(busy), horizon=horizon)

    def intervals(self, node: str, kind: str) -> List[Interval]:
        return self.busy.get((node, kind), [])

    def busy_seconds(self, node: str, kind: str) -> float:
        """Total busy time with overlaps merged."""
        return intervals_total(self.intervals(node, kind))

    def merged(self, node: str, kind: str) -> List[Interval]:
        return merge_intervals(self.intervals(node, kind))

    def utilization(self, node: str, kind: str, horizon: float | None = None) -> float:
        """Busy fraction of the run (or of an explicit horizon)."""
        span = horizon if horizon is not None else self.horizon
        if span <= 0:
            return 0.0
        return min(1.0, self.busy_seconds(node, kind) / span)

    def nodes(self) -> List[str]:
        return sorted({node for node, _ in self.busy})


def render_gantt(timeline: Timeline, width: int = 64) -> str:
    """Plain-text Gantt: one row per (node, kind), '#' where busy."""
    if timeline.horizon <= 0:
        return "(empty timeline)"
    lines = []
    scale = width / timeline.horizon
    for node in timeline.nodes():
        for kind in DEVICE_KINDS:
            merged = timeline.merged(node, kind)
            if not merged:
                continue
            row = [" "] * width
            for a, b in merged:
                lo = min(width - 1, int(a * scale))
                hi = min(width, max(lo + 1, int(b * scale + 0.5)))
                for i in range(lo, hi):
                    row[i] = "#"
            lines.append(f"{node:>6s} {kind:<4s} |{''.join(row)}|")
    return "\n".join(lines) if lines else "(no busy intervals)"


def utilization_table(timeline: Timeline) -> List[dict]:
    """Rows of per-node utilisation suitable for
    :func:`repro.metrics.report.format_table`."""
    rows = []
    for node in timeline.nodes():
        rows.append(
            {
                "node": node,
                "cpu_util": timeline.utilization(node, "cpu"),
                "disk_util": timeline.utilization(node, "disk"),
                "cpu_busy_s": timeline.busy_seconds(node, "cpu"),
                "disk_busy_s": timeline.busy_seconds(node, "disk"),
            }
        )
    return rows
