"""The on-disk format of the committed record, and its readers.

Every file the repository commits as evidence — and every file a
``--bench-dir`` / ``--trace-dir`` / ``--telemetry-dir`` run writes to be
compared with it — is named, ordered and read here, so the writers
(:mod:`repro.harness.trajectory`, :mod:`repro.harness.replays`), the
report generator and the gates of :mod:`repro.verify` share one
definition of each name, suffix, marker and bound:

* ``benchmarks/BENCH_*.json`` — one snapshot per bench family, written
  by ``--bench-dir`` (shape: docs/BENCHMARKS.md), in the canonical
  order :data:`BENCH_FILES`; files that tuple does not know about
  follow in name order.  :data:`VOLATILE_KEYS` are its host-dependent
  fields, stripped before any exact comparison.
* ``benchmarks/history/<name>.jsonl`` — the append-only ledger
  ``python -m repro.verify regression --history-dir`` keeps: one line
  per checked run, in append order.
* ``<label>.attribution.json`` (``benchmarks/attribution/``) —
  critical-path attribution written by a ``--trace-dir`` bench run
  (:meth:`repro.metrics.critical_path.CriticalPathReport.as_dict`),
  held to :data:`MIN_COVERAGE` / :data:`MAX_ATTRIBUTION_ERROR`; its
  sibling ``<label>.trace.json`` (Chrome/Perfetto trace events) is
  regenerated, never committed.
* ``<label>.telemetry.json`` (``benchmarks/telemetry/``) — sampled
  time-series and alert-ledger artifacts written by a
  ``--telemetry-dir`` bench run (schema marker
  :data:`TELEMETRY_SCHEMA`; docs/OBSERVABILITY.md), rendered as the
  fleet health timeline.

Loaders are strict about what they need (a snapshot must carry
``bench`` and ``experiments``) and permissive about everything else, so
a payload-schema addition does not break report generation.  Artifacts
are searched for recursively, so one regeneration directory loads whole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from ..errors import HarnessError
from ..telemetry.sampler import SCHEMA as TELEMETRY_SCHEMA

#: Canonical ``(filename, bench family)`` order of a trajectory
#: directory.  The writer splits reports into these files and every
#: consumer that sweeps ``benchmarks/`` iterates this tuple, so output
#: order is pinned here, not by directory listing or insertion accidents.
BENCH_FILES = (
    ("BENCH_serve.json", "serve"),
    ("BENCH_paper.json", "paper"),
    ("BENCH_faults.json", "faults"),
    ("BENCH_autoscale.json", "autoscale"),
    ("BENCH_scenarios.json", "scenarios"),
    ("BENCH_engine.json", "engine"),
    ("BENCH_fleet.json", "fleet"),
)

#: Host-dependent payload fields, stripped everywhere before an exact diff.
VOLATILE_KEYS = frozenset(
    {
        "wall_seconds",
        "wall_seconds_total",
        "events_per_wall_second",
        "requests_per_wall_second",
    }
)

#: ``<label><suffix>`` names of the three observer artifacts.
TRACE_SUFFIX = ".trace.json"
ATTRIBUTION_SUFFIX = ".attribution.json"
TELEMETRY_SUFFIX = ".telemetry.json"

#: The tracer's acceptance bounds: spans cover at least this share of
#: every finished request's latency, and the critical-path stage
#: decomposition sums to each request's latency within this error.
MIN_COVERAGE = 0.95
MAX_ATTRIBUTION_ERROR = 0.01


def strip_volatile(doc):
    """Recursively drop :data:`VOLATILE_KEYS` from a payload."""
    if isinstance(doc, dict):
        return {
            k: strip_volatile(v) for k, v in doc.items() if k not in VOLATILE_KEYS
        }
    if isinstance(doc, list):
        return [strip_volatile(v) for v in doc]
    return doc


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


def read_json(path):
    """One JSON document; :class:`~repro.errors.HarnessError` names the
    file when it is missing or malformed."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read {path}: {exc}") from exc


def load_benchmarks(bench_dir) -> List[BenchSnapshot]:
    """Every ``BENCH_*.json`` under ``bench_dir``, canonical order first.

    Files named in :data:`BENCH_FILES` come in that order; any other
    ``BENCH_*.json`` (a bench newer than this loader) follows in name
    order, its family read from the payload's own ``bench`` field.
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
        payload = read_json(bench_dir / name)
        if "experiments" not in payload or "bench" not in payload:
            raise HarnessError(
                f"{bench_dir / name} is not a bench trajectory payload"
                " (missing 'bench'/'experiments'; see docs/BENCHMARKS.md)"
            )
        snapshots.append(
            BenchSnapshot(filename=name, bench=payload["bench"], payload=payload)
        )
    return snapshots


def read_ledger(path: Path) -> List[dict]:
    """One ``<name>.jsonl`` ledger's entries in append order; empty when
    the file is absent."""
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def load_history(history_dir) -> Dict[str, List[dict]]:
    """``{filename stem: ledger entries, append order}`` for a dir of
    ``<name>.jsonl`` ledgers; empty when the directory is absent (a
    tree that never ran the regression gate still gets a report)."""
    history_dir = Path(history_dir)
    if not history_dir.is_dir():
        return {}
    ledgers = {p.stem: read_ledger(p) for p in sorted(history_dir.glob("*.jsonl"))}
    return {stem: entries for stem, entries in ledgers.items() if entries}


def artifact_paths(directory, suffix: str) -> List[Path]:
    """Every ``*<suffix>`` file at or below ``directory``, name order;
    empty when the directory is absent."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.rglob("*" + suffix), key=lambda p: p.name)


def _load_artifacts(directory, suffix: str, fixture):
    return [
        fixture(path.name[: -len(suffix)], read_json(path))
        for path in artifact_paths(directory, suffix)
    ]


def load_attributions(attribution_dir) -> List[AttributionFixture]:
    """Every ``*.attribution.json`` under a directory, label order."""
    return _load_artifacts(attribution_dir, ATTRIBUTION_SUFFIX, AttributionFixture)


def load_telemetry(telemetry_dir) -> List[TelemetryFixture]:
    """Every ``*.telemetry.json`` under a directory, label order."""
    return _load_artifacts(telemetry_dir, TELEMETRY_SUFFIX, TelemetryFixture)

