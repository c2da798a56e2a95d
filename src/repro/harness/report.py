"""``python -m repro.harness report`` — regenerate docs/RESULTS.md.

The results document is generated, never hand-edited: this subcommand
renders it from the committed measurement record (``benchmarks/``,
``benchmarks/history/``, ``benchmarks/attribution/``,
``benchmarks/telemetry/``) via :func:`repro.report.generate_results`
and writes it in place.  The drift gate — the committed file must equal
the rendered text byte for byte — is ``python -m repro.verify results``,
which calls the same function.

Run from the repository root::

    PYTHONPATH=src python -m repro.harness report
    PYTHONPATH=src python -m repro.harness report --output /tmp/RESULTS.md
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="das-harness report",
        description=(
            "Regenerate docs/RESULTS.md from the committed bench snapshots,"
            " history ledger and attribution fixtures."
        ),
    )
    parser.add_argument(
        "--benchmarks-dir",
        default="benchmarks",
        metavar="DIR",
        help=(
            "root of the record to render: BENCH_*.json snapshots, with the"
            " history/ ledger, attribution/ fixtures and telemetry/"
            " artifacts beneath it, each optional (default: benchmarks)"
        ),
    )
    parser.add_argument(
        "--output",
        default="docs/RESULTS.md",
        metavar="PATH",
        help="where the rendered report goes (default: docs/RESULTS.md)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from ..report import generate_results

    text = generate_results(args.benchmarks_dir)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out} ({len(text.splitlines())} lines)")
    return 0
