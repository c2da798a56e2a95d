#!/usr/bin/env python
"""Trace-smoke checker: exported traces must be loadable and sound.

Run from the repository root against a directory the harness filled
with ``--trace-dir``::

    PYTHONPATH=src python -m repro.harness serve-bench --trace-dir trace-out
    python scripts/check_trace.py trace-out

For every ``<label>.trace.json`` in the directory this asserts:

1. The document parses and passes :func:`repro.obs.validate.validate_trace`
   (required trace-event fields present, spans end after they start,
   parent sids exist, children nest inside their parents — detached
   spans excepted).
2. The trace is non-trivial: it carries spans, per-request tracks, and
   request root spans.
3. The sibling ``<label>.attribution.json`` exists and its critical-path
   report meets the acceptance bounds: span coverage of every sampled
   request >= MIN_COVERAGE and stage sums within MAX_ATTRIBUTION_ERROR
   of each request's latency.

Exits non-zero listing every problem found.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.harness.replays import MAX_ATTRIBUTION_ERROR, MIN_COVERAGE  # noqa: E402
from repro.obs.validate import validate_trace  # noqa: E402


def check_trace_file(path: Path) -> List[str]:
    problems: List[str] = []
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]

    for issue in validate_trace(doc):
        problems.append(f"{path.name}: {issue}")

    events = doc.get("traceEvents") or []
    spans = [e for e in events if isinstance(e, dict) and e.get("ph") == "X"]
    instants = [e for e in events if isinstance(e, dict) and e.get("ph") == "i"]
    metadata = [e for e in events if isinstance(e, dict) and e.get("ph") == "M"]
    roots = [
        e for e in spans if (e.get("args") or {}).get("parent") is None
    ]
    if not spans:
        problems.append(f"{path.name}: no complete ('X') span events")
    if not roots:
        problems.append(f"{path.name}: no root spans")
    if not metadata:
        problems.append(f"{path.name}: no process/thread ('M') metadata")
    if (doc.get("otherData") or {}).get("clock") != "simulated":
        problems.append(f"{path.name}: otherData.clock is not 'simulated'")
    if not problems:
        print(
            f"  {path.name}: {len(spans)} spans, {len(instants)} instants,"
            f" {len(roots)} roots — structurally valid"
        )
    return problems


def check_attribution_file(path: Path) -> List[str]:
    problems: List[str] = []
    if not path.exists():
        return [f"{path.name}: missing (exporter should write it)"]
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]

    count = doc.get("requests", 0)
    if not count:
        problems.append(f"{path.name}: attribution covers zero requests")
        return problems
    coverage = doc.get("min_coverage")
    error = doc.get("max_attribution_error")
    if coverage is None or coverage < MIN_COVERAGE:
        problems.append(
            f"{path.name}: min span coverage {coverage!r}"
            f" below the {MIN_COVERAGE:.0%} acceptance bound"
        )
    if error is None or error > MAX_ATTRIBUTION_ERROR:
        problems.append(
            f"{path.name}: max attribution error {error!r}"
            f" above the {MAX_ATTRIBUTION_ERROR:.0%} acceptance bound"
        )
    if not problems:
        print(
            f"  {path.name}: {count} requests,"
            f" coverage >= {coverage:.4f}, error <= {error:.6f}"
        )
    return problems


def main(argv: List[str]) -> int:
    trace_dir = Path(argv[0]) if argv else REPO / "trace-out"
    if not trace_dir.is_dir():
        print(f"trace-check: no such directory {trace_dir}")
        return 1
    traces = sorted(trace_dir.glob("*.trace.json"))
    if not traces:
        print(f"trace-check: no *.trace.json files under {trace_dir}")
        return 1
    problems: List[str] = []
    for trace in traces:
        print(f"checking {trace.name}:")
        problems += check_trace_file(trace)
        attribution = trace.with_name(
            trace.name.replace(".trace.json", ".attribution.json")
        )
        problems += check_attribution_file(attribution)
    if problems:
        print(f"trace-check: {len(problems)} problem(s):")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"trace-check: {len(traces)} trace(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
