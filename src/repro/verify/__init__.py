"""``python -m repro.verify`` — the one verification entry point.

Six gates, each a function returning a list of problems (empty ==
clean); this runner prints them and sets the exit code (0 clean, 1 any
problem, 2 bad arguments).  Every artifact is read through
:mod:`repro.report.loaders`, the one owner of the committed record's
format.

The gates, each a subcommand: ``docs`` (:mod:`.docs`), ``counters``
(:mod:`.counters`), ``trace`` and ``telemetry`` over the artifacts under
``--candidate`` (:mod:`.artifacts`), ``results`` and ``regression``
(:mod:`.record`); each module's docstring states its gate's contract.
``all`` runs the six in that order, so the ledger append comes last,
after ``results`` has read the committed ledger.

Regenerate the whole committed record and verify it::

    PYTHONPATH=src python -m repro.harness all --bench-dir D --trace-dir D/trace --telemetry-dir D/telemetry
    PYTHONPATH=src python -m repro.verify all --candidate D --no-wall
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import HarnessError
from . import artifacts, counters, docs, record
from .docs import REPO

#: Gate name -> ``f(args) -> problems``, in the order ``all`` runs them.
GATES = {
    "docs": lambda a: docs.check_docs(),
    "counters": lambda a: counters.check_counters(),
    "trace": lambda a: artifacts.check_traces(a.candidate),
    "telemetry": lambda a: artifacts.check_telemetry(
        a.candidate, a.expect_fired, a.expect_resolved
    ),
    "results": lambda a: record.check_results(a.baseline, a.results),
    "regression": lambda a: record.check_regression(
        a.baseline,
        a.candidate,
        a.files,
        None if a.no_wall else a.wall_tolerance,
        a.history_dir,
        a.throughput_tolerance,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Verify the committed record, its artifacts and the docs.",
    )
    add = parser.add_argument
    add("gate", choices=list(GATES) + ["all"])
    add("--baseline", default=str(REPO / "benchmarks"), metavar="DIR",
        help="root of the committed record (default benchmarks/)")
    add("--candidate", default=None, metavar="DIR",
        help="freshly generated BENCH files and observer artifacts (the"
             " latter found recursively); trace, telemetry, regression"
             " and all require it")
    add("--files", nargs="*", default=None, metavar="NAME",
        help="regression: specific BENCH_*.json names (default: every"
             " baseline file present in the candidate dir)")
    add("--wall-tolerance", type=float, default=record.WALL_TOLERANCE,
        help="regression: relative wall_seconds_total regression allowed"
             " (default 0.20 = +20%%)")
    add("--no-wall", action="store_true",
        help="regression: skip the wall-clock gate (determinism only)")
    add("--history-dir", default=None, metavar="DIR",
        help="regression: append-only JSONL ledger; gates the candidate's"
             " events_dispatched_total against the last passing run at"
             " the same scale, then appends this run")
    add("--throughput-tolerance", type=float, default=None, metavar="FRACTION",
        help="with --history-dir: allowed relative drop in"
             " events_per_wall_second vs the last passing run (same-host"
             " only; off by default)")
    add("--results", default=str(REPO / "docs" / "RESULTS.md"), metavar="PATH",
        help="results: the committed report to check (default docs/RESULTS.md)")
    add("--expect-fired", action="append", default=[], metavar="RULE",
        help="telemetry: alert rule that must appear fired in some"
             " artifact; repeatable")
    add("--expect-resolved", action="append", default=[], metavar="RULE",
        help="telemetry: alert rule that must appear resolved in some"
             " artifact; repeatable")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    names = list(GATES) if args.gate == "all" else [args.gate]
    if args.candidate is None and args.gate not in ("docs", "counters", "results"):
        parser.error(f"{args.gate} needs --candidate DIR")
    failed = []
    for name in names:
        print(f"verify {name}:")
        try:
            problems = GATES[name](args)
        except HarnessError as exc:
            problems = [str(exc)]
        if problems:
            failed.append(name)
            print(f"FAIL {name}: {len(problems)} problem(s):")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"PASS {name}")
    if failed:
        print(f"verify: {', '.join(failed)} failed", file=sys.stderr)
        return 1
    return 0
