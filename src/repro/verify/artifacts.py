"""The ``trace`` and ``telemetry`` gates: exported observer artifacts
must be loadable and sound.

Both sweep the ``--candidate`` directory the harness filled with
``--trace-dir`` / ``--telemetry-dir`` (searched recursively, so one
regeneration directory holding both works).

**trace** — for every ``<label>.trace.json``:

1. The document parses and passes :func:`repro.obs.validate.validate_trace`
   (required trace-event fields present, spans end after they start,
   parent sids exist, children nest inside their parents — detached
   spans excepted).
2. The trace is non-trivial: it carries spans, request root spans
   (device spans are parentless too, so only ``request`` roots count),
   process / thread metadata, and declares the simulated clock.
3. The sibling ``<label>.attribution.json`` exists.

and every ``<label>.attribution.json`` (regenerated or committed — the
``regression`` gate runs the same function over
``benchmarks/attribution/``) must meet the tracer's acceptance bounds:
span coverage of every finished request >= ``MIN_COVERAGE`` and stage
sums within ``MAX_ATTRIBUTION_ERROR`` of each request's latency.  The
headline figures are re-derived from the fixture's per-request rows, so
a fixture edited by hand (or a regeneration that drops rows) fails
rather than being taken at its word.

**telemetry** — for every ``<label>.telemetry.json``:

1. The document carries the ``repro.telemetry/1`` schema marker, a
   positive sampling interval, a positive sample count, and a horizon.
2. Every series is well-formed: a known kind (``counter`` / ``gauge`` /
   ``quantile``), strictly increasing timestamps, every timestamp on
   the ``k * interval`` boundary grid and within the horizon, and
   counter deltas never negative.
3. Every alert scope is well-formed: each ledger entry names a declared
   rule, resolves strictly after it fires (or not at all), and the
   per-rule fire/resolve sequence alternates (no double-fire without a
   resolve in between).

With ``--expect-fired``/``--expect-resolved`` (repeatable) the named
alert rules must appear fired / resolved in at least one artifact.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Set, Tuple

from ..obs.validate import validate_trace
from ..report.loaders import (
    ATTRIBUTION_SUFFIX,
    MAX_ATTRIBUTION_ERROR,
    MIN_COVERAGE,
    TELEMETRY_SCHEMA,
    TELEMETRY_SUFFIX,
    TRACE_SUFFIX,
    artifact_paths,
    read_json,
)
from ..telemetry import KINDS

#: Grid slack: boundaries are k * interval with integer k.
EPS = 1e-9


def check_trace_file(path: Path) -> List[str]:
    doc = read_json(path)
    problems = [f"{path.name}: {issue}" for issue in validate_trace(doc)]

    events = [e for e in doc.get("traceEvents") or [] if isinstance(e, dict)]
    spans = [e for e in events if e.get("ph") == "X"]
    roots = [
        e
        for e in spans
        if e.get("cat") == "request" and (e.get("args") or {}).get("parent") is None
    ]
    if not spans:
        problems.append(f"{path.name}: no complete ('X') span events")
    if not roots:
        problems.append(f"{path.name}: no request root spans")
    if not any(e.get("ph") == "M" for e in events):
        problems.append(f"{path.name}: no process/thread ('M') metadata")
    if (doc.get("otherData") or {}).get("clock") != "simulated":
        problems.append(f"{path.name}: otherData.clock is not 'simulated'")
    if not problems:
        instants = sum(e.get("ph") == "i" for e in events)
        print(
            f"  {path.name}: {len(spans)} spans, {instants} instants,"
            f" {len(roots)} request roots — structurally valid"
        )
    return problems


def check_attribution_file(path: Path) -> List[str]:
    """Gate one attribution report on the tracer's acceptance bounds."""
    doc = read_json(path)
    problems = []
    rows = doc.get("per_request") or []
    requests = doc.get("requests")
    if not rows or requests != len(rows):
        problems.append(
            f"per-request table has {len(rows)} rows but claims"
            f" {requests} requests"
        )
    min_cov = doc.get("min_coverage")
    max_err = doc.get("max_attribution_error")
    if not isinstance(min_cov, (int, float)) or min_cov < MIN_COVERAGE:
        problems.append(
            f"span coverage floor {min_cov!r} below the"
            f" {MIN_COVERAGE:.0%} acceptance bound"
        )
    if not isinstance(max_err, (int, float)) or max_err > MAX_ATTRIBUTION_ERROR:
        problems.append(
            f"attribution error {max_err!r} above the"
            f" {MAX_ATTRIBUTION_ERROR:.0%} acceptance bound"
        )
    if rows and not problems:
        # Re-derive the headlines so an edited fixture can't vouch for
        # itself.  Coverage is defined over finished requests only.
        finished = [
            r for r in rows if r.get("outcome") not in ("expired", "failed")
        ]
        derived_cov = min((r.get("coverage", 0.0) for r in finished), default=0.0)
        if finished and derived_cov < min_cov - 1e-9:
            problems.append(
                f"per-request rows put min coverage at {derived_cov:.4f},"
                f" below the headline {min_cov:.4f}"
            )
    if not problems:
        print(
            f"  {path.name}: {len(rows)} request(s), coverage >="
            f" {min_cov:.4f}, attribution error <= {max_err:.6f}"
        )
    return [f"{path.name}: {p}" for p in problems]


def check_attributions(directory) -> List[str]:
    """Gate every ``*.attribution.json`` at or below ``directory``."""
    paths = artifact_paths(directory, ATTRIBUTION_SUFFIX)
    if not paths:
        return [f"{directory}/: no *{ATTRIBUTION_SUFFIX} fixtures"]
    return [p for path in paths for p in check_attribution_file(path)]


def check_traces(directory) -> List[str]:
    """The ``trace`` gate over one directory."""
    traces = artifact_paths(directory, TRACE_SUFFIX)
    if not traces:
        return [f"no *{TRACE_SUFFIX} files under {directory}"]
    problems: List[str] = []
    for trace in traces:
        problems += check_trace_file(trace)
        label = trace.name[: -len(TRACE_SUFFIX)]
        if not trace.with_name(label + ATTRIBUTION_SUFFIX).exists():
            problems.append(
                f"{label}{ATTRIBUTION_SUFFIX}: missing (exporter should write it)"
            )
    return problems + check_attributions(directory)


def _series_problems(series: dict, interval: float, horizon) -> List[str]:
    """What is wrong with one series (its kind, then its first bad point)."""
    kind = series.get("kind")
    problems = [] if kind in KINDS else [f"has unknown kind {kind!r}"]
    points = series.get("points")
    if not isinstance(points, list):
        return problems + ["has no points list"]
    prev_t = None
    for point in points:
        if not isinstance(point, list) or len(point) != 2:
            return problems + [f"has malformed point {point!r}"]
        t, v = point
        if prev_t is not None and t <= prev_t:
            return problems + [f"timestamps not strictly increasing at t={t:g}"]
        prev_t = t
        if abs(t / interval - round(t / interval)) > 1e-6:
            return problems + [f"point t={t:g} off the {interval:g}s boundary grid"]
        if horizon is not None and t > horizon + EPS:
            return problems + [f"point t={t:g} past the horizon {horizon:g}"]
        if kind == "counter" and v < 0:
            return problems + [f"counter has negative delta {v:g} at t={t:g}"]
    return problems


def _alert_problems(alerts: dict) -> List[str]:
    problems: List[str] = []
    declared = {r.get("name") for r in alerts.get("rules", []) if isinstance(r, dict)}
    open_rules: Set[str] = set()
    for entry in alerts.get("ledger", []):
        rule, fired, resolved = (
            entry.get(k) for k in ("rule", "fired_at", "resolved_at")
        )
        if rule not in declared:
            problems.append(f"ledger entry for undeclared rule {rule!r}")
        if fired is None:
            problems.append(f"ledger entry for {rule!r} never fired")
            continue
        if rule in open_rules:
            problems.append(
                f"rule {rule!r} fired again at {fired:g} while still open"
                " (no resolve in between)"
            )
        if resolved is None:
            open_rules.add(rule)
        elif resolved <= fired:
            problems.append(
                f"rule {rule!r} resolved at {resolved:g}, not strictly"
                f" after its fire at {fired:g}"
            )
        else:
            open_rules.discard(rule)
    return problems


def check_telemetry_file(path: Path) -> Tuple[List[str], Set[str], Set[str]]:
    """-> (problems, fired rule names, resolved rule names)."""
    fired: Set[str] = set()
    resolved: Set[str] = set()
    doc = read_json(path)
    name = path.name
    problems: List[str] = []
    if doc.get("schema") != TELEMETRY_SCHEMA:
        problems.append(
            f"{name}: schema is {doc.get('schema')!r}, not {TELEMETRY_SCHEMA!r}"
        )
    interval = doc.get("interval")
    if not isinstance(interval, (int, float)) or interval <= 0:
        return problems + [
            f"{name}: interval {interval!r} is not a positive number"
        ], fired, resolved
    if not isinstance(doc.get("samples"), int) or doc["samples"] <= 0:
        problems.append(f"{name}: sample count {doc.get('samples')!r}")
    horizon = doc.get("horizon")
    if not isinstance(horizon, (int, float)) or horizon <= 0:
        problems.append(f"{name}: horizon {horizon!r}")
        horizon = None
    scopes = doc.get("scopes")
    if not isinstance(scopes, dict) or not scopes:
        return problems + [f"{name}: no scopes"], fired, resolved

    n_series = n_points = n_ledger = 0
    for scope_name, scope in scopes.items():
        label = f"{name}[{scope_name}]"
        series = scope.get("series")
        if not isinstance(series, dict) or not series:
            problems.append(f"{label}: no series")
            continue
        n_series += len(series)
        for key, entry in series.items():
            n_points += len(entry.get("points") or [])
            problems += [
                f"{label}: series {key!r} {p}"
                for p in _series_problems(entry, interval, horizon)
            ]
        alerts = scope.get("alerts") or {}
        ledger = alerts.get("ledger", [])
        problems += [f"{label}: {p}" for p in _alert_problems(alerts)]
        n_ledger += len(ledger)
        fired |= {e.get("rule") for e in ledger if e.get("fired_at") is not None}
        resolved |= {e.get("rule") for e in ledger if e.get("resolved_at") is not None}
    if not problems:
        print(
            f"  {name}: {len(scopes)} scope(s), {n_series} series,"
            f" {n_points} points, {n_ledger} ledger entries — valid"
        )
    return problems, fired, resolved


def check_telemetry(directory, expect_fired=(), expect_resolved=()) -> List[str]:
    """The ``telemetry`` gate over one directory."""
    artifacts = artifact_paths(directory, TELEMETRY_SUFFIX)
    if not artifacts:
        return [f"no *{TELEMETRY_SUFFIX} files under {directory}"]
    checked = [check_telemetry_file(artifact) for artifact in artifacts]
    problems = [p for file_problems, _, _ in checked for p in file_problems]
    for verb, wanted, seen in (
        ("fired", expect_fired, set().union(*(f for _, f, _ in checked))),
        ("resolved", expect_resolved, set().union(*(r for _, _, r in checked))),
    ):
        problems += [
            f"expected alert rule {rule!r} to have {verb}"
            f" ({verb}: {sorted(seen) or 'none'})"
            for rule in wanted
            if rule not in seen
        ]
    return problems
