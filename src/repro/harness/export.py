"""Export experiment reports as JSON or CSV artifacts.

Every :class:`~repro.harness.experiment_report.ExperimentReport` can be
persisted for downstream plotting — the rows are exactly the series the
paper's figures plot.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from ..errors import HarnessError
from .experiment_report import ExperimentReport


def report_to_json(report: ExperimentReport) -> str:
    """The full report (rows + checks + notes) as pretty JSON."""
    return json.dumps(
        {
            "experiment": report.experiment,
            "title": report.title,
            "notes": report.notes,
            "rows": report.rows,
            "checks": [
                {"claim": claim, "passed": ok} for claim, ok in report.checks
            ],
            "all_checks_pass": report.all_checks_pass,
        },
        indent=2,
        default=str,
    )


def report_to_csv(report: ExperimentReport) -> str:
    """The measured rows as CSV (checks/notes are JSON-only)."""
    if not report.rows:
        return ""
    columns: list[str] = []
    for row in report.rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(report.rows)
    return buffer.getvalue()


def save_report(report: ExperimentReport, path: str | Path) -> Path:
    """Write the report; the suffix picks the format (.json / .csv)."""
    path = Path(path)
    if path.suffix == ".json":
        text = report_to_json(report)
    elif path.suffix == ".csv":
        text = report_to_csv(report)
    else:
        raise HarnessError(
            f"unknown report format {path.suffix!r}; use .json or .csv"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def save_reports(output_dir: str | Path, reports) -> None:
    """Write each report as ``<experiment>.json``/``.csv`` under a dir."""
    base = Path(output_dir)
    for report in reports:
        for suffix in (".json", ".csv"):
            save_report(report, base / f"{report.experiment}{suffix}")
