"""Machine-readable perf trajectory: the ``BENCH_*.json`` writer.

Every harness invocation can record what it measured into a stable JSON
shape — per-row simulated makespans and bytes per link class, wall-clock
seconds per experiment, batch hit rates, the shape-check verdicts — so a
future change can diff its numbers against a checked-in baseline instead
of re-deriving them from logs.

Which file a report lands in is :data:`FAMILY_EXPERIMENTS` over the
file names of :data:`repro.report.loaders.BENCH_FILES` (the paper
regenerators fold into one file; every serving bench has its own).
Baselines live under ``benchmarks/`` in the repo; CI regenerates and
compares all of them (``python -m repro.verify regression``).  The
payload shape is documented in docs/BENCHMARKS.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Tuple

from ..report.loaders import BENCH_FILES
from .common import BenchTiming
from .experiment_report import ExperimentReport

#: Bench family -> the experiments recorded into its file.
FAMILY_EXPERIMENTS = {
    "serve": ("serve-bench",),
    "paper": ("table1", "fig10", "fig11", "fig12", "fig13", "fig14", "ext-oversub"),
    "faults": ("chaos-bench",),
    "autoscale": ("autoscale-bench",),
    "scenarios": ("scenario-bench",),
    "engine": ("engine-bench",),
    "fleet": ("fleet-bench",),
}

#: Bump when the payload shape changes incompatibly.
SCHEMA_VERSION = 1

#: A report paired with the :func:`~repro.harness.common.bench_timer`
#: timing of producing it.
TimedReport = Tuple[ExperimentReport, BenchTiming]


def trajectory_payload(
    bench: str, scale_kb: int, entries: Iterable[TimedReport]
) -> dict:
    """The JSON document for one BENCH file.

    Rows are embedded verbatim: paper rows carry the simulated makespan
    (``time_s``) and bytes per link class (``client_MB``/``server_MB``);
    serve rows carry the latency tail, header/halo wire bytes and the
    batch hit rate.  Every experiment entry and the top level also
    carry the uniform perf fields — ``wall_seconds`` (volatile, host
    dependent), ``events_dispatched`` (exactly reproducible) and
    ``events_per_wall_second`` — so engine-throughput regressions show
    up in any bench, not just the dedicated engine microbenchmark.
    """
    timed = list(entries)
    wall_total = sum(t.wall_seconds for _, t in timed)
    events_total = sum(t.events_dispatched for _, t in timed)
    return {
        "schema": SCHEMA_VERSION,
        "bench": bench,
        "scale_kb": scale_kb,
        "wall_seconds_total": round(wall_total, 3),
        "events_dispatched_total": events_total,
        "events_per_wall_second": (
            round(events_total / wall_total) if wall_total > 0 else 0
        ),
        "experiments": {
            report.experiment: {
                "title": report.title,
                "wall_seconds": round(timing.wall_seconds, 3),
                "events_dispatched": timing.events_dispatched,
                "events_per_wall_second": round(timing.events_per_wall_second),
                "all_checks_pass": report.all_checks_pass,
                "checks": [
                    {"claim": claim, "passed": ok} for claim, ok in report.checks
                ],
                "notes": report.notes,
                "rows": report.rows,
            }
            for report, timing in timed
        },
    }


def write_trajectory(
    out_dir, entries: Iterable[TimedReport], scale_kb: int
) -> List[Path]:
    """Split timed reports into the BENCH files they belong to and write
    them under ``out_dir``; returns the paths written (serve first)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = list(entries)
    written: List[Path] = []
    for filename, bench in BENCH_FILES:
        members = FAMILY_EXPERIMENTS[bench]
        group = [(r, w) for r, w in entries if r.experiment in members]
        if not group:
            continue
        path = out_dir / filename
        payload = trajectory_payload(bench, scale_kb, group)
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
        written.append(path)
    return written
