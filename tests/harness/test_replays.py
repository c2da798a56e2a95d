"""The replay owner against a real serving cell, one test per observer.

Tracer and sampler hold the same contract — attach, re-run, and the
cell's summary is bit-identical to the unobserved run, the replay's
events stay out of the process-wide tally, and its verdicts are aux
checks that never enter a recorded payload — and
:class:`~repro.harness.replays.Replays` is the one place the benches
exercise it.  What is specific to each observer (coverage and
attribution bounds for the tracer; sample count, ledger ordering and
alert expectations for the sampler) is asserted on the checks and the
artifact each replay writes.
"""

import json
from functools import partial

import pytest

from repro.harness.common import bench_timer
from repro.harness.replays import Replays
from repro.harness.serve_bench import serve_bench, serve_spec
from repro.harness.trajectory import trajectory_payload
from repro.obs import validate_trace
from repro.report.loaders import MIN_COVERAGE, strip_volatile
from repro.scenarios import run_scenario
from repro.sim.core import events_dispatched_total
from repro.units import KiB
from repro.verify import artifacts

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

    before = events_dispatched_total()
    checks = replay(active)
    # Verification overhead, not bench workload: no observer's replay
    # may move the tally a recorded payload is stamped with.
    assert events_dispatched_total() == before
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
        problems, _, _ = artifacts.check_telemetry_file(path)
        assert problems == []
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.telemetry/1"
        assert doc["meta"]["bench"] == "unit"


def test_trace_gate_rejects_a_span_ending_before_it_starts(baseline, tmp_path):
    Replays(trace_dir=tmp_path).traced("cell", RUN, baseline, {})
    assert artifacts.check_traces(tmp_path) == []

    path = tmp_path / "cell.trace.json"
    doc = json.loads(path.read_text())
    span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
    span["dur"] = -1.0
    path.write_text(json.dumps(doc))
    problems = artifacts.check_traces(tmp_path)
    assert problems and "cell.trace.json" in problems[0]
    assert "ends before it starts" in problems[0]

    # The exporter writes the pair; a trace without its attribution fails.
    (tmp_path / "cell.attribution.json").unlink()
    assert any("cell.attribution.json: missing" in p
               for p in artifacts.check_traces(tmp_path))


def test_trace_gate_wants_request_roots_not_just_device_spans(baseline, tmp_path):
    Replays(trace_dir=tmp_path).traced("cell", RUN, baseline, {})
    path = tmp_path / "cell.trace.json"
    doc = json.loads(path.read_text())
    # Device spans are parentless and nest nowhere: a trace left with
    # only them is structurally valid but holds no request tree.
    doc["traceEvents"] = [
        e for e in doc["traceEvents"]
        if e["ph"] == "M" or e.get("cat") in ("cpu", "disk")
    ]
    assert validate_trace(doc) == []
    path.write_text(json.dumps(doc))
    assert any("no request root spans" in p
               for p in artifacts.check_traces(tmp_path))


def test_diagnostic_directories_leave_the_payload_bit_identical(tmp_path):
    """serve-bench at reduced scale, recorded plain vs with ``--trace-dir``
    and ``--telemetry-dir`` too: the observers' verdicts arrive as aux
    checks, and the two ``BENCH_serve.json`` payloads are equal once the
    volatile keys are stripped (at the parent they differed by the four
    tracer checks and the traced replay's events)."""
    kwargs = dict(scale=256 * KiB, schemes=("DAS",), loads=(1.0,), batch_max=1)

    def record(**dirs):
        with bench_timer() as timing:
            report = serve_bench(**kwargs, **dirs)
        return report, trajectory_payload("serve", 256, [(report, timing)])

    plain, plain_payload = record()
    observed, observed_payload = record(
        trace_dir=tmp_path / "trace", telemetry_dir=tmp_path / "telemetry"
    )
    assert plain.aux_checks == []
    assert len(observed.aux_checks) == 4 + 2 and observed.all_checks_pass
    assert len(list(tmp_path.rglob("serve_DAS_x1.*.json"))) == 3
    assert plain_payload["events_dispatched_total"] > 0
    assert strip_volatile(observed_payload) == strip_volatile(plain_payload)
