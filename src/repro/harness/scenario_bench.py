"""scenario-bench: run declarative scenarios and enforce their gates.

Each cell is one :class:`~repro.scenarios.ScenarioSpec` — a whole
serving experiment (topology, tenant mix, ramps, chaos, autoscaling)
declared as a JSON document with its own ``checks`` section.  The
bench materializes every requested scenario, runs it, evaluates the
declared checks, and proves bit-identical replay per scenario, so the
named library under ``src/repro/scenarios/library/`` doubles as an
executable regression suite over the serving stack::

    python -m repro.harness scenario-bench --bench-dir benchmarks/
    python -m repro.harness scenario-bench --scenario black-friday
    python -m repro.harness scenario-bench --scenario my_spec.json

Scenarios pin their own durations (a few simulated seconds each) so
their calibrated check thresholds hold at every harness ``--scale-kb``;
the scale flag is accepted for CLI uniformity but does not stretch
scenario runs.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..scenarios import (
    ScenarioSpec,
    evaluate_checks,
    library_names,
    load_scenario,
    reference_spec,
    run_scenario,
)
from .experiment_report import ExperimentReport
from .replays import Replays

#: Wall-clock cheap library members CI smokes on every push.
SMOKE_SCENARIOS = ("rolling-upgrade", "region-loss")


def _resolve(scenarios: Optional[Sequence[object]]) -> List[ScenarioSpec]:
    """Names, paths, dicts or ready specs -> validated specs, in order."""
    if scenarios is None:
        scenarios = library_names()
    return [
        entry if isinstance(entry, ScenarioSpec) else load_scenario(entry)
        for entry in scenarios
    ]


def _scenario_row(spec: ScenarioSpec, summary: dict) -> dict:
    t = summary["tenants"]["_all"]
    row = {
        "scenario": spec.name,
        "scheme": spec.topology.scheme,
        "tenants": len(spec.tenants),
        "generated": summary["generated"],
        "admitted": summary["admitted"],
        "completed": t["completed"],
        "late": t["late"],
        "expired": t["expired"],
        "rejected": t["rejected"],
        "failed": t["failed"],
        "availability": round(t["availability"], 4),
        "p99_s": round(t["lat_p99"], 4) if t["lat_p99"] is not None else None,
        "checks_declared": len(spec.checks),
    }
    if "autoscale" in summary:
        row["final_partition"] = summary["autoscale"]["active"]
    if "faults" in summary:
        row["failover_reads"] = summary["faults"]["failover_reads"]
    return row


def scenario_bench(
    platform=None,
    scale=None,
    verify: bool = True,
    scenarios: Optional[Sequence[object]] = None,
    trace_dir=None,
    trace_sample: int = 1,
) -> ExperimentReport:
    """Run scenarios and their gates (registered as ``scenario-bench``).

    ``scenarios`` selects what runs: library names, spec-file paths,
    raw dicts, or loaded specs; ``None`` runs the whole library.
    ``scale`` is ignored — every scenario declares its own duration so
    its calibrated thresholds stay meaningful (noted in the report).
    ``verify`` re-runs each scenario and asserts the summary (resizes,
    fault tallies and digests included) is bit-identical.
    """
    replays = Replays(verify, trace_dir, trace_sample)
    specs = _resolve(scenarios)

    rows = []
    checks: List[Tuple[str, bool]] = []
    recorded = {}
    for spec in specs:
        run = partial(run_scenario, spec, platform)
        summary, system = run()
        recorded[spec.name] = (run, summary)
        rows.append(_scenario_row(spec, summary))
        reference = None
        if any(c.check == "crc_identity" for c in spec.checks):
            # The fault-free twin every surviving result must match.
            twin_summary, twin = run_scenario(reference_spec(spec), platform)
            reference = (twin_summary, twin.executor.digests)
        for label, ok in evaluate_checks(
            spec.checks,
            summary,
            digests=system.executor.digests,
            reference=reference,
        ):
            checks.append((f"{spec.name}: {label}", ok))
        checks += replays.verified(
            f"{spec.name}: bit-identical replay (summary and"
            " per-request digests reproduce from the spec alone)",
            run,
            summary,
        )

    aux_checks = []
    if specs:
        first = specs[0].name
        aux_checks = replays.traced(
            f"scenario-{first}",
            *recorded[first],
            {"bench": "scenario-bench", "scenario": first},
        )

    return ExperimentReport(
        experiment="scenario-bench",
        title="Declarative scenarios: library runs vs their declared gates",
        rows=rows,
        checks=checks,
        aux_checks=aux_checks,
        notes=(
            f"{len(specs)} scenario(s); every check above is declared in"
            " the scenario document itself (see docs/SCENARIOS.md)."
            " Scenarios pin their own durations, so --scale-kb does not"
            " stretch them."
        ),
    )
