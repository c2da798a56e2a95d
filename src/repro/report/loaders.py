"""Readers for the committed results inputs.

Three kinds of file feed the report, all committed to the repository so
the generated document is a pure function of the tree:

* ``benchmarks/BENCH_*.json`` — one snapshot per bench family, written
  by ``--bench-dir`` (shape: docs/BENCHMARKS.md).  Iterated in the
  writer's canonical order (:data:`repro.harness.trajectory.BENCH_FILES`),
  with files the writer does not know about appended in name order.
* ``benchmarks/history/<name>.jsonl`` — the append-only ledger
  `scripts/check_regression.py --history-dir` keeps: one line per
  checked run, in append order.
* ``benchmarks/attribution/<label>.attribution.json`` — critical-path
  attribution fixtures produced by a ``--trace-dir`` bench run
  (:meth:`repro.metrics.critical_path.CriticalPathReport.as_dict`).
* ``benchmarks/telemetry/<label>.telemetry.json`` — sampled time-series
  and alert-ledger artifacts produced by a ``--telemetry-dir`` bench
  run (schema marker ``repro.telemetry/1``; docs/OBSERVABILITY.md),
  rendered as the fleet health timeline.

Loaders are strict about what they need (a snapshot must carry
``bench`` and ``experiments``) and permissive about everything else, so
a payload-schema addition does not break report generation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from ..errors import HarnessError
from ..harness.trajectory import BENCH_FILES

__all__ = [
    "AttributionFixture",
    "BenchSnapshot",
    "TelemetryFixture",
    "load_attributions",
    "load_benchmarks",
    "load_history",
    "load_telemetry",
]


@dataclass(frozen=True)
class BenchSnapshot:
    """One committed ``BENCH_*.json`` payload."""

    filename: str
    bench: str
    payload: Dict = field(hash=False)

    @property
    def scale_kb(self):
        return self.payload.get("scale_kb")

    @property
    def events_dispatched_total(self):
        return self.payload.get("events_dispatched_total")

    @property
    def experiments(self) -> Dict[str, dict]:
        return self.payload.get("experiments", {})

    def check_counts(self):
        """``(passed, total)`` over every experiment's shape checks."""
        passed = total = 0
        for exp in self.experiments.values():
            for check in exp.get("checks", ()):
                total += 1
                passed += bool(check.get("passed"))
        return passed, total


@dataclass(frozen=True)
class AttributionFixture:
    """One committed ``<label>.attribution.json`` critical-path report."""

    label: str
    report: Dict = field(hash=False)

    @property
    def stages(self) -> List[dict]:
        return self.report.get("stages", [])

    @property
    def per_request(self) -> List[dict]:
        return self.report.get("per_request", [])


@dataclass(frozen=True)
class TelemetryFixture:
    """One committed ``<label>.telemetry.json`` sampler artifact."""

    label: str
    doc: Dict = field(hash=False)

    @property
    def interval(self) -> float:
        return float(self.doc.get("interval", 0.0))

    @property
    def samples(self) -> int:
        return int(self.doc.get("samples", 0))

    @property
    def scopes(self) -> Dict[str, dict]:
        return self.doc.get("scopes", {})


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read {path}: {exc}") from exc


def load_benchmarks(bench_dir) -> List[BenchSnapshot]:
    """Every ``BENCH_*.json`` under ``bench_dir``, canonical order first.

    Files named in :data:`~repro.harness.trajectory.BENCH_FILES` come in
    that order; any other ``BENCH_*.json`` (a bench newer than this
    loader) follows in name order, its family read from the payload's
    own ``bench`` field.
    """
    bench_dir = Path(bench_dir)
    if not bench_dir.is_dir():
        raise HarnessError(f"benchmarks directory {bench_dir} does not exist")
    known = [name for name, _ in BENCH_FILES]
    names = [n for n in known if (bench_dir / n).exists()]
    names += sorted(
        p.name for p in bench_dir.glob("BENCH_*.json") if p.name not in known
    )
    snapshots = []
    for name in names:
        payload = _read_json(bench_dir / name)
        if "experiments" not in payload or "bench" not in payload:
            raise HarnessError(
                f"{bench_dir / name} is not a bench trajectory payload"
                " (missing 'bench'/'experiments'; see docs/BENCHMARKS.md)"
            )
        snapshots.append(
            BenchSnapshot(filename=name, bench=payload["bench"], payload=payload)
        )
    return snapshots


def load_history(history_dir) -> Dict[str, List[dict]]:
    """``{filename stem: ledger entries, append order}`` for a dir of
    ``<name>.jsonl`` ledgers; empty when the directory is absent (a
    tree that never ran the regression gate still gets a report)."""
    history_dir = Path(history_dir)
    if not history_dir.is_dir():
        return {}
    ledgers: Dict[str, List[dict]] = {}
    for path in sorted(history_dir.glob("*.jsonl")):
        entries = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        if entries:
            ledgers[path.stem] = entries
    return ledgers


def load_attributions(attribution_dir) -> List[AttributionFixture]:
    """Every ``*.attribution.json`` under a directory, label order;
    empty when the directory is absent."""
    attribution_dir = Path(attribution_dir)
    if not attribution_dir.is_dir():
        return []
    fixtures = []
    for path in sorted(attribution_dir.glob("*.attribution.json")):
        report = _read_json(path)
        label = path.name[: -len(".attribution.json")]
        fixtures.append(AttributionFixture(label=label, report=report))
    return fixtures


def load_telemetry(telemetry_dir) -> List[TelemetryFixture]:
    """Every ``*.telemetry.json`` under a directory, label order;
    empty when the directory is absent."""
    telemetry_dir = Path(telemetry_dir)
    if not telemetry_dir.is_dir():
        return []
    fixtures = []
    for path in sorted(telemetry_dir.glob("*.telemetry.json")):
        doc = _read_json(path)
        label = path.name[: -len(".telemetry.json")]
        fixtures.append(TelemetryFixture(label=label, doc=doc))
    return fixtures
