"""Machine-readable perf trajectory: ``BENCH_serve.json`` / ``BENCH_paper.json``.

Every harness invocation can record what it measured into a stable JSON
shape — per-row simulated makespans and bytes per link class, wall-clock
seconds per experiment, batch hit rates, the shape-check verdicts — so a
future change can diff its numbers against a checked-in baseline instead
of re-deriving them from logs.

The serve-bench goes to :data:`SERVE_BENCH_FILE`; the paper regenerators
(table1, fig10–14, ext-oversub) are folded into :data:`PAPER_BENCH_FILE`;
the chaos-bench goes to :data:`FAULTS_BENCH_FILE`; the autoscale-bench
goes to :data:`AUTOSCALE_BENCH_FILE`; the scenario-bench goes to
:data:`SCENARIOS_BENCH_FILE`.
Baselines live under ``benchmarks/`` in the repo; CI regenerates the
serve file at reduced scale and uploads it as an artifact.  The payload
shape is documented in docs/BENCHMARKS.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Tuple

from .common import BenchTiming
from .experiment_report import ExperimentReport

SERVE_BENCH_FILE = "BENCH_serve.json"
PAPER_BENCH_FILE = "BENCH_paper.json"
FAULTS_BENCH_FILE = "BENCH_faults.json"
AUTOSCALE_BENCH_FILE = "BENCH_autoscale.json"
SCENARIOS_BENCH_FILE = "BENCH_scenarios.json"
ENGINE_BENCH_FILE = "BENCH_engine.json"
FLEET_BENCH_FILE = "BENCH_fleet.json"

#: Experiments recorded into BENCH_paper.json.
PAPER_EXPERIMENTS = (
    "table1",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "ext-oversub",
)

#: Canonical ``(filename, bench family)`` order of the whole trajectory
#: directory.  Consumers that sweep ``benchmarks/`` — the report
#: generator (:mod:`repro.report`), the regression gate — iterate this
#: tuple so their output order is pinned by the writer, not by
#: directory listing or insertion accidents.
BENCH_FILES = (
    (SERVE_BENCH_FILE, "serve"),
    (PAPER_BENCH_FILE, "paper"),
    (FAULTS_BENCH_FILE, "faults"),
    (AUTOSCALE_BENCH_FILE, "autoscale"),
    (SCENARIOS_BENCH_FILE, "scenarios"),
    (ENGINE_BENCH_FILE, "engine"),
    (FLEET_BENCH_FILE, "fleet"),
)

#: Bump when the payload shape changes incompatibly.
SCHEMA_VERSION = 1

#: A report paired with the timing of producing it: a
#: :class:`~repro.harness.common.BenchTiming` from
#: :func:`~repro.harness.common.bench_timer`, or a bare wall-seconds
#: float (older callers; recorded with ``events_dispatched`` 0/omitted).
TimedReport = Tuple[ExperimentReport, object]


def _as_timing(timed: object) -> BenchTiming:
    if isinstance(timed, BenchTiming):
        return timed
    return BenchTiming(wall_seconds=float(timed))  # type: ignore[arg-type]


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
    timed = [(report, _as_timing(t)) for report, t in entries]
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
    selectors = {
        "serve": lambda r: r.experiment == "serve-bench",
        "paper": lambda r: r.experiment in PAPER_EXPERIMENTS,
        "faults": lambda r: r.experiment == "chaos-bench",
        "autoscale": lambda r: r.experiment == "autoscale-bench",
        "scenarios": lambda r: r.experiment == "scenario-bench",
        "engine": lambda r: r.experiment == "engine-bench",
        "fleet": lambda r: r.experiment == "fleet-bench",
    }
    written: List[Path] = []
    for filename, bench in BENCH_FILES:
        group = [(r, w) for r, w in entries if selectors[bench](r)]
        if not group:
            continue
        path = out_dir / filename
        payload = trajectory_payload(bench, scale_kb, group)
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
        written.append(path)
    return written
