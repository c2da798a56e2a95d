"""The committed record's two gates: ``regression`` and ``results``.

**regression** is the acceptance gate for simulator changes:
regenerate the benches into a scratch directory, then compare against
the committed baselines under ``benchmarks/``.  Two contracts:

* **Determinism** — everything except wall-clock must be *identical*:
  rows (simulated makespans, latency tails, byte counts, result-digest
  CRCs), shape-check claims and verdicts, event counts.  Any difference
  is a hard failure; an optimisation that changes simulated results is
  not an optimisation, it is a different simulator.  The same holds for
  the observer fixtures: every regenerated ``*.attribution.json`` /
  ``*.telemetry.json`` anywhere under the candidate directory must
  equal the committed fixture of the same name **byte for byte**, and
  the committed attribution fixtures must still meet the tracer's
  acceptance bounds (:func:`repro.verify.artifacts.check_attributions`).

* **Performance** — the wall-clock fields (``wall_seconds`` /
  ``wall_seconds_total`` / ``*_per_wall_second``) are host-dependent, so
  they are stripped from the exact comparison and instead gated by a
  relative tolerance on each file's ``wall_seconds_total`` (default
  +20%).  Comparing walls across *different* hosts is only a smoke
  guard — pass a wider ``--wall-tolerance`` there, and treat the tight
  default as the bar for same-host before/after runs.

``--history-dir`` additionally keeps an **append-only ledger**: one
JSONL line per checked file per run (``benchmarks/history/<name>.jsonl``
holds the bench name, ``scale_kb``, ``events_dispatched_total``, the
wall total, events/wall-second, and the run's verdict).  Before
appending, the candidate is gated against the most recent *passing*
ledger entry at the same scale: ``events_dispatched_total`` must match
exactly (the event count is deterministic — any drift means the
simulator changed behind the baselines' back), and with
``--throughput-tolerance`` the events-per-wall-second figure may not
drop more than the given fraction below the recorded run (a
same-host-only gate, like ``--wall-tolerance``).

A **newly added bench** — a candidate file with no committed baseline
and no ledger yet — is not an error when ``--history-dir`` is given:
the baseline diff is skipped (there is nothing to diff against), the
run seeds the bench's ledger as its first recorded entry, and the file
passes.  The next run then has a reference.  Without ``--history-dir``
a missing baseline stays a hard failure.

**results** — docs/RESULTS.md is generated from the committed record by
:func:`repro.report.generate_results` (``python -m repro.harness
report`` writes it) and never hand-edited; the gate renders it again
with the same function and requires the committed file to match **byte
for byte**, failing with a unified diff.  The emitter is deterministic
(no timestamps or generating-host walls; volatile fields render as
ranges over the committed ledger), so the gate is exact.  To fix a
legitimate drift, regenerate and commit.
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path
from typing import List

from ..report import generate_results
from ..report.loaders import (
    ATTRIBUTION_SUFFIX,
    TELEMETRY_SUFFIX,
    artifact_paths,
    read_json,
    read_ledger,
    strip_volatile,
)
from .artifacts import check_attributions

#: Default relative wall-clock regression tolerance (+20%).
WALL_TOLERANCE = 0.20

#: Lines of unified diff the results gate shows before truncating.
DIFF_LINES = 40


def diff_paths(a, b, path="$", out=None, limit=20):
    """Human-readable JSON-paths where two stripped payloads differ."""
    if out is None:
        out = []
    if len(out) >= limit:
        return out
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
    elif isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                out.append(f"{path}.{k}: only in candidate")
            elif k not in b:
                out.append(f"{path}.{k}: only in baseline")
            else:
                diff_paths(a[k], b[k], f"{path}.{k}", out, limit)
            if len(out) >= limit:
                break
    elif isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                diff_paths(x, y, f"{path}[{i}]", out, limit)
                if len(out) >= limit:
                    break
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")
    return out


def check_payload(base: dict, cand: dict, wall_tolerance):
    """Failure strings (empty = pass) for one candidate payload; a
    ``wall_tolerance`` of None skips the wall-clock gate."""
    if base.get("scale_kb") != cand.get("scale_kb"):
        return [
            f"scale_kb mismatch (baseline {base.get('scale_kb')},"
            f" candidate {cand.get('scale_kb')}) — payloads are not comparable;"
            " regenerate at the baseline's scale"
        ]
    failures = []
    drift = diff_paths(strip_volatile(cand), strip_volatile(base))
    if drift:
        failures.append("deterministic payload drift:")
        failures.extend(f"  {d}" for d in drift)
    if wall_tolerance is not None:
        base_wall = float(base.get("wall_seconds_total", 0.0))
        cand_wall = float(cand.get("wall_seconds_total", 0.0))
        if base_wall > 0 and cand_wall > base_wall * (1.0 + wall_tolerance):
            failures.append(
                f"wall-clock regression: {cand_wall:.3f}s vs baseline"
                f" {base_wall:.3f}s (>{wall_tolerance:.0%} over)"
            )
        else:
            print(
                f"  wall {cand_wall:.3f}s vs baseline {base_wall:.3f}s"
                f" (tolerance +{wall_tolerance:.0%})"
            )
    return failures


def history_gate(history_dir: Path, name, cand: dict, file_ok, throughput_tolerance):
    """Gate ``cand`` against the ledger, then append this run to it.

    Returns the list of history failures.  The appended entry records
    the final verdict (file checks *and* history gates), and only
    passing entries are compared against later — a bad run is logged
    but never becomes the reference.
    """
    failures = []
    path = history_dir / (Path(name).stem + ".jsonl")
    prior = None
    for entry in read_ledger(path):
        if entry.get("scale_kb") == cand.get("scale_kb") and entry.get("checks_pass"):
            prior = entry  # last passing run at this scale wins
    if prior is not None:
        base_events = prior.get("events_dispatched_total")
        cand_events = cand.get("events_dispatched_total")
        if base_events is not None and cand_events != base_events:
            failures.append(
                f"events-dispatched drift vs history: {cand_events} !="
                f" {base_events} (last passing run at scale_kb"
                f" {cand.get('scale_kb')})"
            )
        if throughput_tolerance is not None:
            base_eps = float(prior.get("events_per_wall_second") or 0.0)
            cand_eps = float(cand.get("events_per_wall_second") or 0.0)
            if base_eps > 0 and cand_eps < base_eps * (1.0 - throughput_tolerance):
                failures.append(
                    f"throughput regression vs history: {cand_eps:.0f}"
                    f" events/wall-second vs {base_eps:.0f} recorded"
                    f" (>{throughput_tolerance:.0%} below)"
                )
        if not failures:
            print(
                f"  history: events {cand.get('events_dispatched_total')}"
                f" match the last passing run"
            )
    else:
        print(f"  history: first recorded run at scale_kb {cand.get('scale_kb')}")
    history_dir.mkdir(parents=True, exist_ok=True)
    entry = {
        "bench": cand.get("bench"),
        "scale_kb": cand.get("scale_kb"),
        "events_dispatched_total": cand.get("events_dispatched_total"),
        "wall_seconds_total": cand.get("wall_seconds_total"),
        "events_per_wall_second": cand.get("events_per_wall_second"),
        "checks_pass": file_ok and not failures,
    }
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return failures


def check_fixture_bytes(baseline: Path, candidate: Path):
    """Byte-compare every regenerated observer fixture under
    ``candidate`` with the committed one of the same name.  A
    regenerated artifact with no committed twin (a traced cell whose
    attribution is not part of the record) is not compared.
    -> (problems, fixtures compared)"""
    problems: List[str] = []
    compared = 0
    for suffix in (ATTRIBUTION_SUFFIX, TELEMETRY_SUFFIX):
        committed = {p.name: p for p in artifact_paths(baseline, suffix)}
        for path in artifact_paths(candidate, suffix):
            twin = committed.get(path.name)
            if twin is None or twin.resolve() == path.resolve():
                continue
            compared += 1
            if path.read_bytes() != twin.read_bytes():
                problems.append(
                    f"{path.name}: regenerated fixture {path} differs from"
                    f" the committed {twin}"
                )
    return problems, compared


def check_regression(
    baseline, candidate, files, wall_tolerance, history_dir, throughput_tolerance
) -> List[str]:
    """The ``regression`` gate (arguments as the CLI flags name them;
    ``wall_tolerance=None`` is ``--no-wall``); every problem, prefixed by
    its file."""
    baseline_dir = Path(baseline)
    candidate_dir = Path(candidate)
    names = set(files or ())
    if not names:
        names = {p.name for p in candidate_dir.glob("BENCH_*.json")}
        if history_dir is None:
            # With a ledger, candidate-only files are newly added benches
            # to seed; without one they are strays to ignore.
            names &= {p.name for p in baseline_dir.glob("BENCH_*.json")}
    if not names:
        return [
            f"no BENCH_*.json files to compare between {baseline_dir}/"
            f" and {candidate_dir}/"
        ]

    problems: List[str] = []
    failed = 0
    for name in sorted(names):
        base_path = baseline_dir / name
        cand_path = candidate_dir / name
        new_bench = not base_path.exists() and history_dir is not None
        missing = [
            str(p)
            for p in (base_path, cand_path)
            if not p.exists() and not (new_bench and p is base_path)
        ]
        if missing:
            failures = [f"missing {', '.join(missing)}"]
        else:
            cand = read_json(cand_path)
            if new_bench:
                print(
                    f"  checking {name} ... no committed baseline — newly"
                    " added bench, seeding its history ledger"
                )
                failures = []
            else:
                print(f"  checking {name} ...")
                failures = check_payload(read_json(base_path), cand, wall_tolerance)
            if history_dir is not None:
                failures += history_gate(
                    Path(history_dir), name, cand, not failures, throughput_tolerance
                )
        print(f"  {'FAIL' if failures else 'PASS'} {name}")
        failed += bool(failures)
        problems += [f"{name}: {line}" for line in failures]

    fixture_problems, compared = check_fixture_bytes(baseline_dir, candidate_dir)
    attribution_dir = baseline_dir / "attribution"
    if attribution_dir.is_dir():
        print(f"  checking attribution fixtures under {attribution_dir}/ ...")
        fixture_problems += check_attributions(attribution_dir)
    print(
        f"  {len(names) - failed}/{len(names)} BENCH payload(s) match their"
        f" baselines; {compared} regenerated fixture(s) byte-compared,"
        f" {len(fixture_problems)} fixture problem(s)"
    )
    return problems + fixture_problems


def check_results(baseline, results) -> List[str]:
    """The ``results`` gate: ``results`` (docs/RESULTS.md) must equal
    what :func:`~repro.report.generate_results` renders from the record
    rooted at ``baseline``."""
    results = Path(results)
    if not results.exists():
        return [
            f"{results} is missing — generate it with"
            " 'PYTHONPATH=src python -m repro.harness report'"
        ]
    committed = results.read_text(encoding="utf-8")
    text = generate_results(baseline)
    if committed == text:
        print(f"  {results.name} matches the committed record byte for byte")
        return []
    diff = list(
        difflib.unified_diff(
            committed.splitlines(),
            text.splitlines(),
            fromfile=f"{results} (committed)",
            tofile=f"{results} (regenerated)",
            lineterm="",
        )
    )
    if len(diff) > DIFF_LINES:
        diff = diff[:DIFF_LINES] + [f"... ({len(diff) - DIFF_LINES} more diff lines)"]
    return [
        f"{results} drifted from the committed inputs — regenerate it"
        " (PYTHONPATH=src python -m repro.harness report) and commit the"
        " result:"
    ] + diff
