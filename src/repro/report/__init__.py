"""Continuous results pipeline: the committed-report generator.

Turns the repo's committed measurement record — the ``BENCH_*.json``
snapshots under ``benchmarks/``, the append-only JSONL ledger under
``benchmarks/history/``, the critical-path attribution fixtures under
``benchmarks/attribution/`` and the sampled telemetry artifacts under
``benchmarks/telemetry/`` — into one human-readable
``docs/RESULTS.md``: per-bench result tables, run-over-run trend
tables with sparklines, plain-text flame renderings of where request
latency goes, the fleet health timeline (per-cell health strips, key
series and the alert ledger), and a section mapping the paper-claim
verdicts back to the figures in PAPER.md via docs/PAPER_MAP.md.

The emitter is **deterministic**: no timestamps, hostnames or wall
clocks of the generating run appear in the output — everything is a
pure function of the committed input files, so regenerating the
committed report must reproduce it byte for byte.  That exactness is
what ``python -m repro.verify results`` (CI ``record``) enforces: a
change that shifts a number must regenerate the report in the same
commit, or the drift gate fails.

Entry points: ``python -m repro.harness report`` (the harness
subcommand, :mod:`repro.harness.report`) and
:func:`repro.report.generate_results`.
"""

from .emit import generate_results
from .flame import partition_bar, render_flame, share_bar, sparkline
from .loaders import (
    AttributionFixture,
    BenchSnapshot,
    TelemetryFixture,
    load_attributions,
    load_benchmarks,
    load_history,
    load_telemetry,
)
from .tables import format_value, markdown_table

__all__ = [
    "AttributionFixture",
    "BenchSnapshot",
    "TelemetryFixture",
    "format_value",
    "generate_results",
    "load_attributions",
    "load_benchmarks",
    "load_history",
    "load_telemetry",
    "markdown_table",
    "partition_bar",
    "render_flame",
    "share_bar",
    "sparkline",
]
