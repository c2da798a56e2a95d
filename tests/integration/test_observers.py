"""Observers do not perturb the run they observe.

Each observer combination — none, a span :class:`~repro.obs.Tracer`
(request spans plus every CPU / disk busy interval), the telemetry
sampler, and both at once — replays one DAS serving cell and one
two-cell fleet run from the same seed.  Three things must come out
equal to the unobserved run: the summary outside its own ``telemetry``
block, every request's result digest, and the number of events the
engine dispatched (an observer that scheduled anything would show up
there even if no result moved).
"""

import pytest

from repro.harness.fleet_bench import fleet_run, fleet_tenants
from repro.harness.serve_bench import serve_spec
from repro.obs import Tracer, trace_document, validate_trace
from repro.scenarios import run_scenario
from repro.telemetry import TelemetryConfig

OBSERVERS = ("none", "tracer", "telemetry", "both")


def observers(kind):
    tracer = Tracer() if kind in ("tracer", "both") else None
    telemetry = TelemetryConfig() if kind in ("telemetry", "both") else None
    return tracer, telemetry


def serve_cell(kind):
    tracer, telemetry = observers(kind)
    summary, system = run_scenario(
        serve_spec("DAS", 1.0, duration=1.5), tracer=tracer, telemetry=telemetry
    )
    digests = dict(system.executor.digests)
    return summary, digests, system.cluster.env.dispatched, tracer


def fleet(kind):
    tracer, telemetry = observers(kind)
    summary, system = fleet_run(
        2,
        fleet_tenants(),
        1.0,
        policy="least-loaded",
        chaos_cell=0,
        longtail=True,
        tracer=tracer,
        telemetry=telemetry,
    )
    digests = {
        (cell.name, req_id): digest
        for cell in system.cells
        for req_id, digest in cell.executor.digests.items()
    }
    return summary, digests, system.env.dispatched, tracer


RUNS = {"serve": serve_cell, "fleet": fleet}


@pytest.fixture(scope="module")
def baselines():
    return {name: run("none") for name, run in RUNS.items()}


def without_telemetry(summary):
    return {k: v for k, v in summary.items() if k != "telemetry"}


@pytest.mark.parametrize("kind", OBSERVERS)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_observers_are_non_perturbing(baselines, name, kind):
    summary, digests, dispatched, tracer = RUNS[name](kind)
    base_summary, base_digests, base_dispatched, _ = baselines[name]
    assert digests, "the run settled no requests"
    assert ("telemetry" in summary) == (kind in ("telemetry", "both"))
    assert without_telemetry(summary) == base_summary
    assert digests == base_digests
    assert dispatched == base_dispatched
    if tracer is not None:
        # The traced runs really did record device time.
        assert {"cpu", "disk"} <= {span.cat for span in tracer.spans}


def test_fleet_device_lanes_stay_apart_per_cell():
    tracer, _ = observers("tracer")
    fleet_run(2, fleet_tenants(), 1.0, policy="least-loaded", tracer=tracer)
    tracks = {s.track for s in tracer.spans if s.cat in ("cpu", "disk")}
    cells = {track.split("/", 1)[0] for track in tracks}
    assert cells == {"cell-0", "cell-1"}
    assert {"cell-0/s0", "cell-1/s0"} <= tracks
    # Each lane is named in the Perfetto export, beside the request threads.
    doc = trace_document(tracer)
    named = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 0
    }
    assert tracks <= named
    assert validate_trace(doc) == []
