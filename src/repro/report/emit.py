"""The docs/RESULTS.md emitter.

One pure function from the committed inputs (bench snapshots, history
ledgers, attribution fixtures) to the full markdown document.  Nothing
volatile enters the output: the generating run's clock, host and wall
times never appear; wall-clock figures are only ever shown as ranges
over the committed history ledger, and the exactly-reproducible fields
(rows, check verdicts, event counts) are printed as-is.  Regenerating
from the same tree therefore reproduces the committed file byte for
byte — the contract ``python -m repro.verify results`` enforces in CI.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .flame import render_flame, sparkline
from .loaders import (
    AttributionFixture,
    BenchSnapshot,
    TelemetryFixture,
    load_attributions,
    load_benchmarks,
    load_history,
    load_telemetry,
)
from .tables import ledger_range, markdown_table, rows_table

__all__ = ["generate_results"]

PASS = "✓"
FAIL = "✗"

#: Where each paper experiment's constructs are mapped to code
#: (docs/PAPER_MAP.md anchors) and what it reproduces from the paper.
PAPER_CLAIM_MAP = (
    ("table1", "Table I — kernel descriptions", "PAPER_MAP.md#section-iv-evaluation"),
    ("fig10", "Fig. 10 — dependence impact, NAS vs TS",
     "PAPER_MAP.md#section-iv-evaluation"),
    ("fig11", "Fig. 11 — NAS / DAS / TS at 24 GB",
     "PAPER_MAP.md#section-iv-evaluation"),
    ("fig12", "Fig. 12 — scaling with data size",
     "PAPER_MAP.md#section-iv-evaluation"),
    ("fig13", "Fig. 13 — scaling with node count",
     "PAPER_MAP.md#section-iv-evaluation"),
    ("fig14", "Fig. 14 — normalized sustained bandwidth",
     "PAPER_MAP.md#section-iv-evaluation"),
    ("ext-oversub", "Conclusion extensions — oversubscribed bisection",
     "PAPER_MAP.md#section-v-conclusion--future-work"),
)

#: Key series the fleet health timeline renders per scope, in order,
#: when the scope sampled them.  Everything else stays in the artifact.
TIMELINE_SERIES = (
    ("serve.queue.depth", "queue depth"),
    ("serve.latency.win_p99", "p99 latency (s, windowed)"),
    ("serve.path.offload", "offloaded ops / tick"),
    ("faults.failover_reads", "failover reads / tick"),
    ("fleet.cells_healthy", "healthy cells"),
    ("fleet.spillovers", "spillovers / tick"),
    ("fleet.routed", "routed requests / tick"),
)

#: Health-strip glyphs: one cell per sampling boundary.
HEALTH_PAGE = "█"
HEALTH_TICKET = "▒"
HEALTH_OK = "·"

_HEADER = """\
# Results

<!-- GENERATED FILE — do not edit by hand.
     Regenerate:  PYTHONPATH=src python -m repro.report
     Drift gate:  PYTHONPATH=src python -m repro.verify results  (CI job: record) -->

The measured state of the repository, rendered from its committed
measurement record and nothing else: the [`benchmarks/`](../benchmarks)
`BENCH_*.json` snapshots (payload schema: [BENCHMARKS.md](BENCHMARKS.md)),
the append-only [`benchmarks/history/`](../benchmarks/history) ledger the
regression gate keeps, the committed critical-path attribution
fixtures under [`benchmarks/attribution/`](../benchmarks/attribution),
and the sampled telemetry artifacts under
[`benchmarks/telemetry/`](../benchmarks/telemetry).
Simulated quantities (rows, check verdicts, event counts) are exactly
reproducible and printed as-is; host-dependent quantities (wall clocks,
events/wall-second) appear only as ranges over the recorded history.
"""


def _check_line(exp: dict) -> str:
    checks = exp.get("checks", [])
    passed = sum(1 for c in checks if c.get("passed"))
    total = len(checks)
    if not total:
        return "*(no shape checks recorded)*"
    if passed == total:
        return f"{PASS} **{passed}/{total}** shape checks pass"
    failing = "; ".join(
        c.get("claim", "?") for c in checks if not c.get("passed")
    )
    return f"{FAIL} **{passed}/{total}** shape checks pass — failing: {failing}"


def _overview(
    snapshots: Sequence[BenchSnapshot], ledgers: Dict[str, List[dict]]
) -> List[str]:
    lines = ["## Snapshot overview", ""]
    rows = []
    for snap in snapshots:
        passed, total = snap.check_counts()
        ledger = ledgers.get(snap.filename.rsplit(".", 1)[0], [])
        rows.append(
            [
                f"`{snap.filename}`",
                snap.bench,
                snap.scale_kb,
                len(snap.experiments),
                f"{PASS} {passed}/{total}" if passed == total
                else f"{FAIL} {passed}/{total}",
                snap.events_dispatched_total,
                ledger_range(ledger, "wall_seconds_total") or "—",
            ]
        )
    lines += markdown_table(
        [
            "snapshot",
            "family",
            "scale_kb",
            "experiments",
            "checks",
            "events dispatched",
            "wall s (recorded range)",
        ],
        rows,
    )
    lines += [
        "",
        "`events dispatched` is the exactly-reproducible engine-event",
        "count — any drift is a behaviour change, not noise.  The wall",
        "range spans every run the",
        "[history ledger](BENCHMARKS.md#the-history-ledger) has recorded",
        "and is host-dependent.",
    ]
    return lines


def _bench_sections(snapshots: Sequence[BenchSnapshot]) -> List[str]:
    lines: List[str] = []
    for snap in snapshots:
        lines += ["", f"## {snap.bench} (`{snap.filename}`)", ""]
        many = len(snap.experiments) > 1
        for name, exp in snap.experiments.items():
            if many:
                lines += [f"### {name}", ""]
            title = exp.get("title", "")
            if title:
                lines += [f"*{title}*", ""]
            lines.append(
                f"{_check_line(exp)}"
                f" · events dispatched: {exp.get('events_dispatched', 0)}"
            )
            notes = exp.get("notes")
            if notes:
                lines += ["", f"Notes: {notes}"]
            lines.append("")
            lines += rows_table(exp.get("rows", []))
            lines.append("")
    return lines


def _trend_section(
    snapshots: Sequence[BenchSnapshot], ledgers: Dict[str, List[dict]]
) -> List[str]:
    lines = [
        "",
        "## Run-over-run trends",
        "",
        "One row per run recorded by",
        "[`python -m repro.verify regression --history-dir`](BENCHMARKS.md#the-history-ledger)",
        "(append order; a new entry lands on every gated regeneration,",
        "so the trajectory grows PR over PR).  `events dispatched` must",
        "be identical between passing runs at the same scale; the wall",
        "and throughput columns are host-dependent context, not gates.",
    ]
    for snap in snapshots:
        entries = ledgers.get(snap.filename.rsplit(".", 1)[0])
        if not entries:
            continue
        lines += ["", f"### {snap.bench} trajectory", ""]
        lines += markdown_table(
            [
                "run",
                "scale_kb",
                "events dispatched",
                "wall s",
                "events / wall s",
                "verdict",
            ],
            [
                [
                    i,
                    e.get("scale_kb"),
                    e.get("events_dispatched_total"),
                    e.get("wall_seconds_total"),
                    e.get("events_per_wall_second"),
                    PASS if e.get("checks_pass") else FAIL,
                ]
                for i, e in enumerate(entries, 1)
            ],
        )
        sparks = _ledger_sparklines(entries)
        if sparks:
            lines += ["", sparks]
    return lines


def _ledger_sparklines(entries: List[dict]) -> str:
    """One-line run-over-run sparklines (oldest left) for a ledger."""
    parts = []
    for key, title in (
        ("wall_seconds_total", "wall s"),
        ("events_per_wall_second", "events / wall s"),
    ):
        values = [e.get(key) for e in entries]
        values = [float(v) for v in values if v is not None]
        if len(values) >= 2:
            parts.append(f"{title} `{sparkline(values)}`")
    if not parts:
        return ""
    return "Run-over-run sparklines (oldest → newest): " + " · ".join(parts)


def _flame_section(fixtures: Sequence[AttributionFixture]) -> List[str]:
    if not fixtures:
        return []
    lines = [
        "",
        "## Where the latency goes (critical path)",
        "",
        "Committed critical-path attributions from traced bench cells",
        "(`--trace-dir`), rendered by the text flame renderer",
        "(`repro.report.flame`; method and schema:",
        "[OBSERVABILITY.md](OBSERVABILITY.md#the-text-flame-renderer-and-the-attribution-file)).",
        "Each request class's bar is its mean latency partitioned into",
        "per-stage segments by the deepest-span rule, so segment widths",
        "are shares of measured latency — not estimates.",
    ]
    for fixture in fixtures:
        lines += ["", "```text"]
        lines += render_flame(fixture.report, fixture.label)
        lines += ["```"]
    return lines


def _health_strip(ledger: List[dict], interval: float, samples: int) -> str:
    """One glyph per sampling boundary from a scope's alert ledger:
    page firing beats ticket firing beats healthy."""
    cells = []
    for k in range(samples):
        t = (k + 1) * interval
        glyph = HEALTH_OK
        for entry in ledger:
            fired = entry.get("fired_at")
            resolved = entry.get("resolved_at")
            if fired is None or t < fired:
                continue
            if resolved is not None and t >= resolved:
                continue
            if entry.get("severity") == "page":
                glyph = HEALTH_PAGE
                break
            glyph = HEALTH_TICKET
        cells.append(glyph)
    return "".join(cells)


def _timeline_section(fixtures: Sequence[TelemetryFixture]) -> List[str]:
    if not fixtures:
        return []
    lines = [
        "",
        "## Fleet health timeline",
        "",
        "Committed telemetry artifacts from sampler-enabled bench cells",
        "(`--telemetry-dir`; sampling method, artifact schema and alert",
        "rules: [OBSERVABILITY.md](OBSERVABILITY.md#live-telemetry-the-clock-driven-sampler-and-the-alert-ledger)).",
        "Each scope gets a health strip — one cell per sampling boundary,",
        f"`{HEALTH_PAGE}` while a page-severity alert is firing,",
        f"`{HEALTH_TICKET}` while only ticket-severity alerts are firing,",
        f"`{HEALTH_OK}` healthy — and a sparkline per key series.  The",
        "sampler rides the simulation clock, so every strip and every",
        "ledger timestamp is exactly reproducible.",
    ]
    for fixture in fixtures:
        lines += [
            "",
            f"### `{fixture.label}`",
            "",
            f"Sampling interval {fixture.interval:g} s ·"
            f" {fixture.samples} boundary samples.",
            "",
            "```text",
        ]
        for scope_name in sorted(fixture.scopes):
            scope = fixture.scopes[scope_name]
            alerts = scope.get("alerts") or {}
            ledger = alerts.get("ledger", [])
            fired = sum(1 for e in ledger if e.get("fired_at") is not None)
            resolved = sum(
                1 for e in ledger if e.get("resolved_at") is not None
            )
            suffix = (
                f" — {fired} alert(s) fired, {resolved} resolved"
                if alerts
                else " — no alert rules attached"
            )
            lines.append(f"{scope_name}{suffix}")
            lines.append(
                "  health"
                f" |{_health_strip(ledger, fixture.interval, fixture.samples)}|"
            )
            series = scope.get("series", {})
            for name, title in TIMELINE_SERIES:
                entry = series.get(name)
                values = [v for _, v in (entry or {}).get("points", [])]
                if not values:
                    continue
                lines.append(
                    f"  {title:<26} |{sparkline(values)}|"
                    f"  min {min(values):g} max {max(values):g}"
                )
            lines.append("")
        if lines[-1] == "":
            lines.pop()
        lines.append("```")
        rows = [
            [
                f"`{entry.get('scope')}`",
                f"`{entry.get('rule')}`",
                entry.get("severity"),
                f"{entry.get('fired_at'):g}",
                "—"
                if entry.get("resolved_at") is None
                else f"{entry.get('resolved_at'):g}",
            ]
            for scope_name in sorted(fixture.scopes)
            for entry in (
                (fixture.scopes[scope_name].get("alerts") or {}).get(
                    "ledger", []
                )
            )
        ]
        if rows:
            lines += ["", "Alert ledger (simulated seconds):", ""]
            lines += markdown_table(
                ["scope", "rule", "severity", "fired at", "resolved at"], rows
            )
    return lines


def _paper_section(snapshots: Sequence[BenchSnapshot]) -> List[str]:
    paper = next((s for s in snapshots if s.bench == "paper"), None)
    if paper is None:
        return []
    lines = [
        "",
        "## Paper claims",
        "",
        "Every quantitative claim reproduced from Chen & Chen (ICPP 2012;",
        "abstract in [PAPER.md](../PAPER.md)), with the measured verdict",
        "from `BENCH_paper.json` and the construct-to-code mapping in",
        "[PAPER_MAP.md](PAPER_MAP.md).  A failing verdict here means the",
        "committed snapshot no longer supports the paper's claim.",
        "",
    ]
    known = {name for name, _, _ in PAPER_CLAIM_MAP}
    entries = [
        (name, what, anchor)
        for name, what, anchor in PAPER_CLAIM_MAP
        if name in paper.experiments
    ] + [
        (name, paper.experiments[name].get("title", name),
         "PAPER_MAP.md#section-iv-evaluation")
        for name in paper.experiments
        if name not in known
    ]
    rows = []
    for name, what, anchor in entries:
        exp = paper.experiments[name]
        checks = exp.get("checks", [])
        passed = sum(1 for c in checks if c.get("passed"))
        rows.append(
            [
                f"`{name}`",
                what,
                f"[map]({anchor})",
                f"{PASS} {passed}/{len(checks)}"
                if passed == len(checks)
                else f"{FAIL} {passed}/{len(checks)}",
            ]
        )
    lines += markdown_table(
        ["experiment", "paper figure / table", "paper-to-code", "claims"], rows
    )
    for name, what, anchor in entries:
        exp = paper.experiments[name]
        lines += ["", f"### {name} claims", ""]
        for check in exp.get("checks", []):
            mark = PASS if check.get("passed") else FAIL
            lines.append(f"- {mark} {check.get('claim', '?')}")
    return lines


def generate_results(
    bench_dir="benchmarks",
    history_dir=None,
    attribution_dir=None,
    telemetry_dir=None,
    snapshots: Optional[Sequence[BenchSnapshot]] = None,
) -> str:
    """The complete docs/RESULTS.md text for one committed input set.

    ``bench_dir`` is the record root; the ledger, attribution fixtures
    and telemetry artifacts default to its ``history/``, ``attribution/``
    and ``telemetry/`` subdirectories (the committed layout) and may be
    absent, in which case their sections render empty/omitted.  ``snapshots`` overrides the directory scan (the
    tests inject fixture payloads directly).
    """
    root = Path(bench_dir)
    history_dir = history_dir or root / "history"
    attribution_dir = attribution_dir or root / "attribution"
    telemetry_dir = telemetry_dir or root / "telemetry"
    if snapshots is None:
        snapshots = load_benchmarks(bench_dir)
    ledgers = load_history(history_dir)
    fixtures = load_attributions(attribution_dir)
    telemetry = load_telemetry(telemetry_dir)
    lines: List[str] = [_HEADER]
    lines += _overview(snapshots, ledgers)
    lines += _bench_sections(snapshots)
    lines += _trend_section(snapshots, ledgers)
    lines += _flame_section(fixtures)
    lines += _timeline_section(telemetry)
    lines += _paper_section(snapshots)
    return "\n".join(lines).rstrip("\n") + "\n"
