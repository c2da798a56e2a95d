"""Tests for timeline reconstruction and utilisation reporting.

The timeline is a projection of the device spans a live tracer on the
cluster's monitor hub collects; ``traced_run`` pins what that
projection must read for one small NAS operation.
"""

import numpy as np
import pytest

from repro.hw import Cluster
from repro.metrics import Timeline, render_gantt, utilization_table
from repro.obs import Span, Tracer
from repro.pfs import ParallelFileSystem
from repro.schemes import NormalActiveStorageScheme
from repro.units import KiB
from repro.workloads import fractal_dem

#: Busy seconds per (node, kind) of ``traced_run`` and its horizon, as
#: the monitor hub's own trace log read them before device time moved
#: onto the tracer; the tracer-fed timeline must reproduce them exactly.
PINNED_BUSY = {
    ("s0", "cpu"): 2.1706666666666626e-05,
    ("s0", "disk"): 0.0001962939453125,
    ("s1", "cpu"): 2.1706666666666626e-05,
    ("s1", "disk"): 0.0001962939453125,
}
PINNED_HORIZON = 0.00023457685384114583
PINNED_ROWS = [
    {
        "node": node,
        "cpu_util": 0.09253541562700923,
        "disk_util": 0.8368001450195474,
        "cpu_busy_s": 2.1706666666666626e-05,
        "disk_busy_s": 0.0001962939453125,
    }
    for node in ("s0", "s1")
]


def nas_gaussian(tracer=None):
    """One NAS gaussian over a 64x64 DEM on 2 + 2 nodes; the tracer (if
    any) sits on the hub from cluster build on, ingest included."""
    cluster = Cluster.build(n_compute=2, n_storage=2)
    if tracer is not None:
        cluster.monitors.tracer = tracer.bind(lambda: cluster.env.now)
    pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
    dem = fractal_dem(64, 64, rng=np.random.default_rng(44))
    pfs.client("c0").ingest("dem", dem, pfs.round_robin())
    scheme = NormalActiveStorageScheme(pfs)
    cluster.run(until=scheme.run_operation("gaussian", "dem", "out"))
    return cluster


@pytest.fixture
def traced_run():
    tracer = Tracer()
    nas_gaussian(tracer)
    return Timeline.from_spans(tracer.spans)


def test_tracer_timeline_reproduces_the_pinned_busy_seconds(traced_run):
    tl = traced_run
    assert tl.horizon == PINNED_HORIZON
    assert {key: tl.busy_seconds(*key) for key in tl.busy} == PINNED_BUSY
    assert utilization_table(tl) == PINNED_ROWS


def test_timeline_collects_cpu_and_disk_intervals(traced_run):
    tl = traced_run
    assert tl.horizon > 0
    # Both storage nodes computed and did disk I/O.
    for node in ("s0", "s1"):
        assert tl.busy_seconds(node, "cpu") > 0
        assert tl.busy_seconds(node, "disk") > 0


def test_intervals_are_well_formed(traced_run):
    tl = traced_run
    for (node, kind), intervals in tl.busy.items():
        for a, b in intervals:
            assert 0 <= a < b <= tl.horizon + 1e-12


def test_busy_seconds_merges_overlaps():
    spans = [
        Span(0, "kernel", 0.0, cat="cpu", track="n", end=2.0),
        Span(1, "kernel", 1.0, cat="cpu", track="n", end=3.0),
        Span(2, "kernel", 9.0, cat="cpu", track="n", end=10.0),
        # Request-scoped and still-open spans are not device time.
        Span(3, "request", 0.0, cat="request", track=7, end=20.0),
        Span(4, "kernel", 11.0, cat="cpu", track="n"),
    ]
    tl = Timeline.from_spans(spans)
    assert tl.busy_seconds("n", "cpu") == pytest.approx(4.0)  # [0,3) + [9,10)
    assert tl.utilization("n", "cpu") == pytest.approx(0.4)
    assert tl.nodes() == ["n"]


def test_utilization_bounded(traced_run):
    tl = traced_run
    for node in tl.nodes():
        for kind in ("cpu", "disk"):
            assert 0.0 <= tl.utilization(node, kind) <= 1.0


def test_gantt_renders_rows(traced_run):
    art = render_gantt(traced_run, width=40)
    assert "s0" in art and "#" in art
    for line in art.splitlines():
        assert line.endswith("|")


def test_gantt_empty_timeline():
    assert "empty" in render_gantt(Timeline.from_spans([]))


def test_utilization_table_rows(traced_run):
    rows = utilization_table(traced_run)
    assert {row["node"] for row in rows} >= {"s0", "s1"}
    for row in rows:
        assert row["cpu_util"] <= 1.0


def test_untraced_run_yields_empty_timeline():
    cluster = nas_gaussian()  # the hub keeps its NULL_TRACER
    late = Tracer().bind(lambda: cluster.env.now)
    cluster.monitors.tracer = late  # attached after the devices went idle
    assert Timeline.from_spans(late.spans).busy == {}
