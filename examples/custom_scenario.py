#!/usr/bin/env python
"""Author a scenario in Python, validate it, run it, evaluate its gates.

A scenario is one plain-dict document (see docs/SCENARIOS.md for the
schema): topology, tenant mix, load shape, optional chaos/autoscale
sections, and a `checks` list of declared pass/fail gates.  This
example builds one from scratch — a closed-loop dashboard tenant
sharing the cluster with an open-loop web tenant while a storage
server crashes and recovers — loads it through the validating loader
(so every mistake would be rejected with the offending spec path in
the message), runs it twice to demonstrate bit-identical replay, and
evaluates the declared checks.

To keep a scenario you like, dump it to JSON and run it through the
bench like the shipped library members:

    python -m repro.harness scenario-bench --scenario my_scenario.json

Run:  python examples/custom_scenario.py
"""

import json

from repro.metrics import format_table
from repro.scenarios import evaluate_checks, load_scenario, run_scenario

DOCUMENT = {
    "name": "dashboard-vs-web",
    "description": (
        "A closed-loop dashboard population rides out a storage-server "
        "crash while an open-loop web tenant keeps offering load."
    ),
    "seed": 20120910,
    "topology": {
        "scheme": "DAS",
        # Neighbour-replicated placement: any single crash is survivable.
        "ingest": "replicated",
        "files": ["dem_a", "dem_b"],
    },
    "workload": {
        "duration": 4.0,
        "deadline": 1.5,
        "tenants": [
            {"name": "web", "rate": 4.0, "files": ["dem_a", "dem_b"]},
            {
                "name": "dash",
                "mode": "closed",
                "population": 2,
                "think_time": 0.2,
                "affinity": 0.8,
                "files": ["dem_b"],
            },
        ],
    },
    "chaos": {
        "spec": "crash:s1@1.0;recover:s1@2.5",
        "recovery": {"rpc_timeout": 0.25, "max_attempts": 2},
    },
    "checks": [
        {"check": "conservation"},
        {"check": "availability_min", "value": 0.95},
        {"check": "failover_reads_min", "value": 1},
        {"check": "p99_max", "value": 1.5, "tenant": "dash"},
    ],
}


def main() -> None:
    # The loader accepts dicts, file paths, or library names; a bad
    # document raises ScenarioError naming the offending path.
    spec = load_scenario(DOCUMENT)
    print(f"loaded '{spec.name}': {spec.description}\n")

    summary, system = run_scenario(spec)
    digests = system.executor.digests  # per-request result CRCs
    replay_summary, replay = run_scenario(spec)
    assert summary == replay_summary and digests == replay.executor.digests, (
        "the document pins the seed, so two runs must be bit-identical"
    )

    rows = []
    for name, t in summary["tenants"].items():
        rows.append(
            {
                "tenant": name,
                "admitted": t["admitted"],
                "completed": t["completed"],
                "rejected": t["rejected"],
                "failed": t["failed"],
                "availability": round(t["availability"], 4),
                "p99_s": round(t["lat_p99"], 4) if t["lat_p99"] else None,
            }
        )
    print(format_table(rows))
    print(
        f"\nfailover reads: {summary['faults']['failover_reads']}"
        f" (the crash was real; replicas carried the reads)\n"
    )

    failed = 0
    for label, ok in evaluate_checks(spec.checks, summary, digests=digests):
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        failed += 0 if ok else 1
    assert failed == 0, "every declared gate should hold"

    print("\nthe same document, as JSON (scenario-bench runs it verbatim):")
    print(json.dumps(spec.to_dict(), indent=2)[:400] + " ...")


if __name__ == "__main__":
    main()
