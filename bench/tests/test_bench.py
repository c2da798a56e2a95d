"""Smoke tests of the benchmark itself (``pytest bench/tests``).

Outside tier-1 ``testpaths``: these run every workload for real (about
a minute).  They pin the benchmark's contract — metric names, exact
metrics repeating, span coverage, failures being counted — not any
timing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import layers, workloads  # noqa: E402
from bench import platform as P  # noqa: E402
from bench.trace import NullRecorder, Recorder  # noqa: E402
from repro.sim.core import events_dispatched_total  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Not the default seed, so the pinned CRCs stay out of the way.
SEED = 7


@pytest.fixture(scope="module")
def passes():
    """Two untraced passes and one traced pass of every workload."""
    out = {}
    for name in workloads.WORKLOADS:
        recorder = Recorder(count=events_dispatched_total)
        out[name] = (
            workloads.run_pass(name, SEED, NullRecorder()),
            workloads.run_pass(name, SEED, NullRecorder()),
            workloads.run_pass(name, SEED, recorder),
            recorder,
        )
    return out


def test_manifest_matches_the_code():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    for kind, table in (("end_to_end", layers.END_TO_END), ("per_layer", layers.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in MANIFEST[kind]]
        assert listed == [tuple(row) for row in table]
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert MANIFEST["paths"] == ["bench"]


def test_every_workload_passes_and_repeats_exactly(passes):
    for name, (first, second, traced, _) in passes.items():
        assert first.failures == [] and second.failures == [], name
        assert first.sim_time_s > 0 and first.sim_wire_mb > 0, name
        assert first.exact() == second.exact() == traced.exact(), name


def test_spans_cover_the_pass(passes):
    for name, (_, _, _, recorder) in passes.items():
        assert recorder.coverage()["covered"] >= 0.95, name


def test_selectivity_between_workloads(passes):
    derived = {
        name: layers.from_pass(traced.results, recorder)
        for name, (_, _, traced, recorder) in passes.items()
    }
    grid, serve = derived["paper_grid"], derived["serve_sweep"]
    numpy_share = lambda m, wall: (m["workloads.synth_s"] + m["kernels.reference_s"]) / wall
    assert numpy_share(grid, passes["paper_grid"][2].wall_s) >= 0.30
    assert numpy_share(serve, passes["serve_sweep"][2].wall_s) <= 0.05
    assert grid["sim.events"] < 100_000 < 250_000 < serve["sim.events"]
    assert grid["pfs.redistribute_mb"] == serve["pfs.redistribute_mb"] == 0
    assert derived["cold_pipeline"]["pfs.redistribute_mb"] > 0
    assert derived["scenario_mix"]["faults.failover_reads"] > 0
    assert derived["scenario_mix"]["fleet.routed"] > 0


def test_a_corrupted_output_is_a_failed_op(monkeypatch):
    from repro.pfs.client import PFSClient

    collect = PFSClient.collect

    def corrupted(self, name):
        data = collect(self, name).copy()
        if name == "dem.ts":
            data.flat[0] += 1.0
        return data

    monkeypatch.setattr(PFSClient, "collect", corrupted)
    result = workloads.run_pass("cold_pipeline", SEED, NullRecorder())
    assert result.failed_ops == len(P.COLD_CELLS)
    assert all("dem.ts differs" in f for f in result.failures)


def test_a_moved_crc_fails_at_the_default_seed(monkeypatch):
    pinned = workloads.load_expected()
    pinned["scenario_mix"]["fleet"] ^= 1
    monkeypatch.setattr(workloads, "load_expected", lambda: pinned)
    result = workloads.run_pass("scenario_mix", P.DEFAULT_SEED, NullRecorder())
    assert result.failed_ops == 1
    assert "pinned" in result.failures[0]


def run_cli(*args):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_the_contract_line(tmp_path, trace, kind):
    code, lines = run_cli(
        "--workload", "scenario_mix", "--seed", str(SEED), "--passes", "1",
        "--trace", trace, "--out", str(tmp_path),
    )  # fmt: skip
    assert code == 0
    last = json.loads(lines[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in MANIFEST[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    if trace == "1":
        doc = json.loads((tmp_path / "trace.scenario_mix.json").read_text())
        assert doc["otherData"]["covered"] >= 0.95
        assert {e["name"] for e in doc["traceEvents"]} >= {"pass", "cell", "sim.run"}
    else:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_bench_does_not_import_the_harness():
    needle = "repro." + "harness"
    offenders = [
        str(path.relative_to(ROOT))
        for path in BENCH.rglob("*")
        if path.is_file()
        and path.suffix in (".py", ".md", ".json")
        and needle in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
