"""The replay owner against a real serving cell, one test per observer.

Tracer and sampler hold the same contract — attach, re-run, and the
cell's summary is bit-identical to the unobserved run — and
:class:`~repro.harness.replays.Replays` is the one place the benches
exercise it.  What is specific to each observer (coverage and
attribution bounds for the tracer; sample count, ledger ordering and
alert expectations for the sampler) is asserted on the checks and the
artifact each replay writes.
"""

import importlib.util
import json
from functools import partial
from pathlib import Path

import pytest

from repro.harness.replays import MIN_COVERAGE, Replays
from repro.harness.serve_bench import serve_spec
from repro.obs import validate_trace
from repro.scenarios import run_scenario

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_telemetry", REPO / "scripts" / "check_telemetry.py"
)
check_telemetry = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_telemetry)

RUN = partial(run_scenario, serve_spec("DAS", 1.0, duration=1.5))


@pytest.fixture(scope="module")
def baseline():
    return RUN()[0]


def test_verified_replay_holds_the_claim(baseline):
    assert Replays().verified("same seed, same summary", RUN, baseline) == [
        ("same seed, same summary", True)
    ]
    assert Replays(verify=False).verified("skipped", RUN, baseline) == []


@pytest.mark.parametrize("observer", ["tracer", "sampler"])
def test_observed_replay_is_non_perturbing(observer, baseline, tmp_path):
    if observer == "tracer":
        idle, active = Replays(), Replays(trace_dir=tmp_path)
        replay = lambda r: r.traced("cell", RUN, baseline, {"cell": "test"})
        n_checks, written = 4, ["cell.attribution.json", "cell.trace.json"]
    else:
        idle, active = Replays(), Replays(telemetry_dir=tmp_path)
        replay = lambda r: r.sampled("cell", RUN, baseline, {"bench": "unit"})
        n_checks, written = 2, ["cell.telemetry.json"]

    # No directory, no replay.
    assert replay(idle) == []

    checks = replay(active)
    assert len(checks) == n_checks
    assert "non-perturbing" in checks[0][0]
    assert all(ok for _, ok in checks), [m for m, ok in checks if not ok]
    assert sorted(p.name for p in tmp_path.iterdir()) == written

    if observer == "tracer":
        doc = json.loads((tmp_path / "cell.trace.json").read_text())
        assert validate_trace(doc) == []
        report = json.loads((tmp_path / "cell.attribution.json").read_text())
        assert report["requests"] > 0
        assert report["min_coverage"] >= MIN_COVERAGE
    else:
        path = tmp_path / "cell.telemetry.json"
        problems, _, _ = check_telemetry.check_telemetry_file(path)
        assert problems == []
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.telemetry/1"
        assert doc["meta"]["bench"] == "unit"
