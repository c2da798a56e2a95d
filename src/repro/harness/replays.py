"""The one owner of diagnostic replays for the serving benches.

A bench runs its cells once and records rows and checks.  On top of
that it can re-run a representative cell three ways, each proving the
same thing — the re-run is *indistinguishable* from the recorded run:

* **verify** (on unless ``--no-verify``) — a plain re-run must
  reproduce the same summary from the same seed;
* **trace** (``--trace-dir``) — a re-run with a live
  :class:`~repro.obs.Tracer` attached must reproduce it too (the
  zero-perturbation contract of :mod:`repro.obs`), and the collected
  span tree must meet the acceptance bounds: the exported
  Chrome/Perfetto JSON is structurally valid, spans cover at least 95%
  of every finished request's latency, and the critical-path stage
  decomposition sums to each request's latency within 1%.  Writes
  ``<label>.trace.json`` and ``<label>.attribution.json``;
* **telemetry** (``--telemetry-dir``) — a re-run with the clock-driven
  sampler + alert engine attached must reproduce it outside its own
  ``telemetry`` summary block, the alert ledger must be well-formed
  and, when the cell declares them, the expected alerts must have fired
  and resolved.  Writes ``<label>.telemetry.json`` (validated by
  ``python -m repro.verify telemetry``).

The bench supplies what is genuinely its own — which cell, a
``run(tracer=None, telemetry=None) -> (summary, system)`` callable, the
recorded summary, its claim text and artifact metadata; a
:class:`Replays` does the rest.  Nothing beyond verify runs unless a
directory is given, and both observer replays hold one contract: they
run :func:`~repro.sim.core.untallied` (verification overhead, not bench
workload) and report through ``aux_checks``, so the recorded bench
trajectories (``benchmarks/BENCH_*.json``) are bit-identical whatever
diagnostic flags are passed — one ``harness all`` with every directory
regenerates the whole committed record.  Artifact names, the schema
marker and the tracer's acceptance bounds are the committed record's
format, owned by :mod:`repro.report.loaders`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..metrics.critical_path import critical_path
from ..obs import Tracer, trace_document, validate_trace
from ..report.loaders import (
    ATTRIBUTION_SUFFIX,
    MAX_ATTRIBUTION_ERROR,
    MIN_COVERAGE,
    TELEMETRY_SUFFIX,
    TRACE_SUFFIX,
)
from ..sim.core import untallied
from ..telemetry import TelemetryConfig

Check = Tuple[str, bool]
#: ``run(tracer=None, telemetry=None) -> (summary, system)``; ``system``
#: exposes the finalized sampler as ``.telemetry`` when one was attached.
RunCell = Callable[..., Tuple[Dict[str, object], object]]


def _write_json(directory, name: str, doc) -> None:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


@dataclass(frozen=True)
class Replays:
    """Which replays this harness invocation asked for (the CLI flags)."""

    verify: bool = True
    trace_dir: Optional[object] = None
    #: With ``trace_dir``: trace only every Nth request (deterministic by
    #: request id; see :class:`~repro.obs.Tracer`).  The identity and the
    #: coverage/attribution bounds still hold — the latter over the
    #: sampled requests, the only ones with span trees.
    trace_sample: int = 1
    telemetry_dir: Optional[object] = None

    def verified(self, claim: str, run: RunCell, baseline) -> List[Check]:
        """The plain re-run: ``claim`` holds iff it reproduces ``baseline``
        (the recorded summary of the same cell).  Empty with verify off."""
        if not self.verify:
            return []
        return [(claim, run()[0] == baseline)]

    def observed(
        self,
        label: str,
        run: RunCell,
        baseline,
        meta,
        expect_alerts: Sequence[str] = (),
    ) -> List[Check]:
        """Both observer replays of one cell — :meth:`traced` then
        :meth:`sampled` — as one list of aux checks."""
        return self.traced(label, run, baseline, meta) + self.sampled(
            label, run, baseline, meta, expect_alerts
        )

    def traced(self, label: str, run: RunCell, baseline, meta) -> List[Check]:
        """The traced re-run and its four checks (report them as
        ``aux_checks``); writes the trace and attribution artifacts
        (``meta`` lands in the trace document).  Empty without a trace
        directory."""
        if self.trace_dir is None:
            return []
        tracer = Tracer(sample=1.0 / max(1, int(self.trace_sample)))
        # The replay is verification overhead, not bench workload: keep its
        # events out of the process-wide tally so the recorded trajectory is
        # bit-identical with or without --trace-dir.
        with untallied():
            summary, _ = run(tracer=tracer)
        doc = trace_document(
            tracer, meta=dict(meta, sample_every=tracer.sample_every)
        )
        _write_json(self.trace_dir, label + TRACE_SUFFIX, doc)
        problems = validate_trace(doc)
        report = critical_path(tracer)
        _write_json(self.trace_dir, label + ATTRIBUTION_SUFFIX, report.as_dict())
        min_cov = report.min_coverage()
        max_err = report.max_attribution_error()
        return [
            (
                f"{label}: tracing is non-perturbing — the traced cell's summary"
                " (per-request CRCs and latencies included) equals the untraced"
                " run bit for bit",
                summary == baseline,
            ),
            (
                f"{label}: exported trace is structurally valid Perfetto JSON"
                f" ({len(tracer.spans)} spans, {len(problems)} problems)",
                len(tracer.spans) > 0 and not problems,
            ),
            (
                f"{label}: spans cover >= {MIN_COVERAGE:.0%} of every finished"
                f" request's latency (min coverage {min_cov:.4f} over"
                f" {report.count} requests)",
                report.count > 0 and min_cov >= MIN_COVERAGE,
            ),
            (
                f"{label}: critical-path stages sum to each request's latency"
                f" within {MAX_ATTRIBUTION_ERROR:.0%} (max error {max_err:.6f})",
                max_err <= MAX_ATTRIBUTION_ERROR,
            ),
        ]

    def sampled(
        self,
        label: str,
        run: RunCell,
        baseline,
        meta,
        expect_alerts: Sequence[str] = (),
    ) -> List[Check]:
        """The sampled re-run and its checks (report them as
        ``aux_checks``); writes the telemetry artifact.  ``expect_alerts``
        names alert rules the cell must have fired *and* resolved in its
        ledger.  Empty without a telemetry directory."""
        if self.telemetry_dir is None:
            return []
        config = TelemetryConfig()
        with untallied():  # same contract as the traced replay
            summary, system = run(telemetry=config)
        sampler = system.telemetry
        _write_json(
            self.telemetry_dir,
            label + TELEMETRY_SUFFIX,
            sampler.payload(label, meta=dict(meta, interval=config.interval)),
        )
        block = summary.get("telemetry")
        stripped = {k: v for k, v in summary.items() if k != "telemetry"}
        scopes = block["scopes"].values() if block else ()  # type: ignore[union-attr]
        alerts = [scope["alerts"] for scope in scopes if scope.get("alerts")]
        ordered = all(
            e["resolved_at"] is None or e["resolved_at"] > e["fired_at"]
            for scope in alerts
            for e in scope["ledger"]
        )
        checks = [
            (
                f"{label}: sampling is non-perturbing — the sampled cell's"
                " summary (per-request CRCs and latencies included) equals the"
                " unsampled run bit for bit outside its own telemetry block",
                block is not None and stripped == baseline,
            ),
            (
                f"{label}: sampler took {sampler.samples} boundary samples and"
                " the alert ledger is well-formed (every resolve strictly after"
                " its fire)",
                sampler.samples > 0 and ordered,
            ),
        ]
        if expect_alerts:
            want = sorted(expect_alerts)
            for key, text in (
                ("fired", "fired"),
                ("resolved", "resolved before the horizon"),
            ):
                seen = sorted({name for scope in alerts for name in scope[key]})
                checks.append(
                    (
                        f"{label}: declared alerts {text} ({', '.join(want)};"
                        f" ledger {key}: {seen})",
                        set(want) <= set(seen),
                    )
                )
        return checks
