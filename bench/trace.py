"""Benchmark-owned span recorder on ``time.perf_counter``.

Spans wrap the benchmark's calls *into* a layer's public function (the
boundaries live in bench/cells.py); nothing here reaches into ``src/``.
A span is ``name, start, end, parent`` plus the id of the cell it
belongs to, and an exact count taken at the same boundaries (the
caller supplies the counter — the simulator's dispatched-event tally).
Spans stay in memory; :func:`write_chrome_trace` writes them out once
the run has ended.

Self time is a span's duration minus the part its children cover.
Children of one span never overlap here (the benchmark is one thread
making nested calls), so that part is the plain sum of their durations.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Span names that are benchmark glue, not a layer: the pass itself and
#: the per-cell wrapper.  Their self time is reported as ``other``.
GLUE = ("pass", "cell")


class Recorder:
    """In-memory span recorder; one per traced pass."""

    def __init__(self, count: Callable[[], int] = lambda: 0):
        self._count = count
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._cell = 0

    @contextmanager
    def span(self, name: str, **args) -> Iterator[dict]:
        if name == "cell":
            # The pass runner opens one "cell" span per cell; everything
            # recorded until the next one carries its id.
            self._cell += 1
        index = len(self.spans)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "cell": self._cell,
            "args": args,
            "count": self._count(),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["count"] = self._count() - record["count"]
            self._stack.pop()

    # -- analysis ---------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def by_name(self) -> Dict[str, dict]:
        """``name -> {self_s, total_s, count, calls}`` over all spans."""
        table: Dict[str, dict] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "count": 0, "calls": 0}
        )
        for span, self_s in zip(self.spans, self.self_times()):
            row = table[span["name"]]
            row["self_s"] += self_s
            row["total_s"] += span["end"] - span["start"]
            row["count"] += span["count"]
            row["calls"] += 1
        return dict(table)

    def total(self, name: str, **match) -> float:
        """Summed duration of spans called ``name`` whose ``cell`` id or
        args equal every ``match`` item."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name
            and all(
                (s["cell"] if k == "cell" else s["args"].get(k)) == v
                for k, v in match.items()
            )
        )

    def coverage(self) -> Dict[str, float]:
        """How much of the pass the spans account for.

        ``layers_s`` sums the self time of every layer span, ``other_s``
        the self time of the per-cell wrappers (benchmark glue inside a
        cell); what is left of the pass span is time between cells that
        no span saw.  ``covered`` is (layers + other) / pass.
        """
        names = self.by_name()
        pass_s = names.get("pass", {}).get("total_s", 0.0)
        other_s = names.get("cell", {}).get("self_s", 0.0)
        layers_s = sum(r["self_s"] for n, r in names.items() if n not in GLUE)
        covered = (layers_s + other_s) / pass_s if pass_s > 0 else 0.0
        return {
            "pass_s": pass_s,
            "layers_s": layers_s,
            "other_s": other_s,
            "covered": covered,
        }


class NullRecorder:
    """The untraced passes' recorder: every span is a no-op."""

    @contextmanager
    def span(self, name: str, **args) -> Iterator[None]:
        yield None


def write_chrome_trace(
    recorder: Recorder, path, meta: Optional[dict] = None
) -> None:
    """Write the spans as a Chrome/Perfetto trace-event JSON document
    (complete ``X`` events, microseconds from the first span, one lane
    per cell)."""
    origin = recorder.spans[0]["start"] if recorder.spans else 0.0
    events = [
        {
            "name": s["name"],
            "ph": "X",
            "pid": 0,
            "tid": s["cell"],
            "ts": (s["start"] - origin) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "args": dict(s["args"], self_us=self_s * 1e6, count=s["count"]),
        }
        for s, self_s in zip(recorder.spans, recorder.self_times())
    ]
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}, **recorder.coverage()),
    }
    with open(path, "w", encoding="utf-8") as out:
        json.dump(doc, out, indent=1, sort_keys=True)
        out.write("\n")
