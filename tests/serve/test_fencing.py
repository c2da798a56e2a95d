"""Redistribution vs in-flight reads: the per-file reader-writer fence.

A cold (round-robin) file under DAS serving triggers a redistribution
on first use.  These tests hammer one file with many concurrent
requests — some offloading, some diverted to normal-path reads — while
the move happens, and assert the fence kept every result correct and
the move exactly-once.
"""

import numpy as np
import pytest

from repro.hw import Cluster
from repro.pfs import ParallelFileSystem
from repro.serve.dispatch import LoadAwareExecutor
from repro.serve.workload import ServeRequest
from repro.units import KiB
from repro.workloads import fractal_dem


@pytest.fixture
def world():
    cluster = Cluster.build(n_compute=2, n_storage=4)
    pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
    dem = fractal_dem(128, 128, rng=np.random.default_rng(31))  # 16 strips
    pfs.client("c0").ingest("dem", dem, pfs.round_robin())
    return cluster, pfs, dem


def make_request(req_id, meta_size, pipeline_length=2):
    # pipeline_length=2 amortises the redistribution penalty so the
    # engine picks offload-redistribute on the cold round-robin layout;
    # pipeline_length=1 requests stay on the normal path.  Neither
    # changes the result bytes — it is purely a cost-model knob.
    return ServeRequest(
        req_id=req_id,
        tenant="t",
        operator="gaussian",
        file="dem",
        arrival=0.0,
        deadline=1e9,
        cost=meta_size,
        pipeline_length=pipeline_length,
    )


def hammer(cluster, executor, n_requests):
    """Launch ``n_requests`` concurrent executions against one file:
    every third request is a short (normal-path) pipeline, the rest
    offload — so reads race the redistribution both ways."""
    size = executor.pfs.metadata.lookup("dem").size
    procs = [
        executor.execute_batch(
            [make_request(i, size, pipeline_length=1 if i % 3 == 2 else 2)]
        )
        for i in range(n_requests)
    ]
    results = []

    def join():
        for proc in procs:
            results.append((yield proc))

    cluster.run(until=cluster.env.process(join()))
    return results


def test_redistribution_races_in_flight_reads(world):
    cluster, pfs, _ = world
    executor = LoadAwareExecutor(pfs, scheme="DAS")
    results = hammer(cluster, executor, 12)
    assert len(results) == 12
    # The cold file was moved exactly once, not once per request: the
    # write fence serialised the movers and the re-consult found the
    # improved layout already installed.
    assert cluster.monitors.counter("serve.redistributions").value == 1
    # Mixed traffic really happened: both paths served requests.
    paths = {r["path"] for r in results}
    assert paths == {"offload", "normal"}
    # Every request produced the same result bytes, whether its read ran
    # before, during or after the move.
    digests = set(executor.digests.values())
    assert len(executor.digests) == 12
    assert len(digests) == 1


def test_replicas_consistent_after_racing_move(world):
    cluster, pfs, dem = world
    executor = LoadAwareExecutor(pfs, scheme="DAS")
    hammer(cluster, executor, 8)
    meta = pfs.metadata.lookup("dem")
    assert type(meta.layout).__name__ == "ReplicatedGroupedLayout"

    # After the dust settles the file's primaries and replicas agree
    # and a plain read returns the original bytes.
    assert pfs.client("c0").verify_replicas("dem")

    def check():
        return (yield pfs.client("c0").read("dem", 0, dem.nbytes))

    proc = cluster.env.process(check())
    cluster.run(until=proc)
    assert np.array_equal(proc.value, dem.view(np.uint8).reshape(-1))


def test_sequential_requests_reuse_the_moved_layout(world):
    cluster, pfs, _ = world
    executor = LoadAwareExecutor(pfs, scheme="DAS")
    size = pfs.metadata.lookup("dem").size

    def one(req_id):
        proc = executor.execute_batch([make_request(req_id, size)])
        cluster.run(until=proc)
        return proc.value

    first = one(0)
    second = one(1)
    assert first["path"] == "offload"
    assert second["path"] == "offload"
    assert cluster.monitors.counter("serve.redistributions").value == 1
