"""Tier-1 pin on the committed record: one row per restructured family.

``benchmarks/BENCH_*.json`` is regenerated and gated in CI
(``python -m repro.verify regression``), which takes minutes.  This is the
seconds-scale version: one cheap cell per serving family is built
straight from its spec, run at full scale, and its row must equal the
committed one — so a change to how a cell is materialised (preset, RNG
draw order, ingest policy, ``ServeConfig`` field mapping) fails here
first.  Also pins the layering that keeps the cell builder below the
harness.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import autoscale_bench, chaos_bench, serve_bench
from repro.report.loaders import read_json
from repro.scenarios import run_scenario

REPO = Path(__file__).resolve().parents[2]


def committed_row(filename, experiment, **match):
    doc = read_json(REPO / "benchmarks" / filename)
    assert doc["scale_kb"] == 1024
    (row,) = [
        r
        for r in doc["experiments"][experiment]["rows"]
        if all(r[k] == v for k, v in match.items())
    ]
    return row


def serve_row():
    summary, _ = run_scenario(serve_bench.serve_spec("TS", 0.5))
    return serve_bench._row(summary)


def chaos_row():
    summary, _ = run_scenario(chaos_bench.fault_spec("DAS", chaos_bench.DURATION))
    return chaos_bench._row("baseline", summary, replicated=True)


def autoscale_row():
    size = autoscale_bench.MAX_SERVERS
    summary, system = run_scenario(
        autoscale_bench.autoscale_spec(size, size, size, autoscale_bench.DURATION)
    )
    return autoscale_bench._row("static-max", summary, system)


@pytest.mark.parametrize(
    "regenerate, filename, experiment, match",
    [
        (serve_row, "BENCH_serve.json", "serve-bench",
         dict(scheme="TS", load=0.5, batch=1)),
        (chaos_row, "BENCH_faults.json", "chaos-bench", dict(cell="baseline")),
        (autoscale_row, "BENCH_autoscale.json", "autoscale-bench",
         dict(cell="static-max")),
    ],
    ids=["serve", "chaos", "autoscale"],
)
def test_spec_built_cell_reproduces_its_committed_row(
    regenerate, filename, experiment, match
):
    assert regenerate() == committed_row(filename, experiment, **match)


def test_importing_scenarios_does_not_load_the_harness():
    code = (
        "import sys, repro.scenarios;"
        "print(sorted(m for m in sys.modules if m.startswith('repro.harness')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
