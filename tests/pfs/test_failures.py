"""Failure-injection tests: degraded reads via DAS replicas.

The DAS layout's boundary replication buys limited fault tolerance for
free: a read touching a replicated strip survives the primary holder's
failure by redirecting to the neighbour's copy.  Unreplicated strips
(round-robin striping) have no fallback.
"""

import numpy as np
import pytest

from repro.errors import NodeDownError
from repro.hw import Cluster
from repro.pfs import ParallelFileSystem
from repro.units import KiB
from repro.workloads import fractal_dem


@pytest.fixture
def world():
    cluster = Cluster.build(n_compute=1, n_storage=4)
    pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
    dem = fractal_dem(64, 64, rng=np.random.default_rng(21))  # 8 strips
    return cluster, pfs, dem


def test_replicated_strip_read_survives_primary_failure(world, drive):
    cluster, pfs, dem = world
    client = pfs.client("c0")
    # group=2, halo=1: strip 2 (primary s1) is replicated on s0.
    client.ingest("dem", dem, pfs.replicated_grouped(group=2, halo_strips=1))
    cluster.node("s1").fail()

    raw = dem.view(np.uint8).reshape(-1)

    def main():
        return (yield client.read("dem", 2 * 4096, 4096))

    got = drive(cluster, cluster.env.process(main()))
    assert np.array_equal(got, raw[2 * 4096 : 3 * 4096])


def test_full_file_read_with_one_dead_server_needs_full_replication(drive):
    # 16 strips, group=4: interior strips of a group have no replica.
    cluster = Cluster.build(n_compute=1, n_storage=4)
    pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
    dem = fractal_dem(128, 64, rng=np.random.default_rng(22))  # 16 strips
    client = pfs.client("c0")
    client.ingest("dem", dem, pfs.replicated_grouped(group=4, halo_strips=1))
    cluster.node("s1").fail()

    # Strips 5 and 6 (interior of group 1, primary s1) have no replica
    # -> the read of the whole file must fail loudly, not silently
    # corrupt.
    def main():
        yield client.read("dem", 0, dem.nbytes)

    with pytest.raises(NodeDownError):
        drive(cluster, cluster.env.process(main()))


def test_round_robin_has_no_fallback(world, drive):
    cluster, pfs, dem = world
    client = pfs.client("c0")
    client.ingest("dem", dem, pfs.round_robin())
    cluster.node("s2").fail()

    def main():
        yield client.read("dem", 2 * 4096, 100)  # strip 2 lives on s2 only

    with pytest.raises(NodeDownError):
        drive(cluster, cluster.env.process(main()))


def test_reads_not_touching_the_dead_server_still_work(world, drive):
    cluster, pfs, dem = world
    client = pfs.client("c0")
    client.ingest("dem", dem, pfs.round_robin())
    cluster.node("s2").fail()
    raw = dem.view(np.uint8).reshape(-1)

    def main():
        return (yield client.read("dem", 0, 4096))  # strip 0 on s0

    got = drive(cluster, cluster.env.process(main()))
    assert np.array_equal(got, raw[:4096])


def test_recovery_restores_primary_path(world, drive):
    cluster, pfs, dem = world
    client = pfs.client("c0")
    client.ingest("dem", dem, pfs.round_robin())
    cluster.node("s2").fail()
    cluster.node("s2").recover()
    raw = dem.view(np.uint8).reshape(-1)

    def main():
        return (yield client.read("dem", 2 * 4096, 4096))

    got = drive(cluster, cluster.env.process(main()))
    assert np.array_equal(got, raw[2 * 4096 : 3 * 4096])


def test_failover_read_charges_the_replica_server(world, drive):
    cluster, pfs, dem = world
    client = pfs.client("c0")
    client.ingest("dem", dem, pfs.replicated_grouped(group=2, halo_strips=1))
    cluster.node("s1").fail()

    def main():
        yield client.read("dem", 2 * 4096, 4096)

    drive(cluster, cluster.env.process(main()))
    # The bytes flowed from s0 (the replica holder), not s1.
    assert cluster.monitors.counter("net.flow.s0->c0").value >= 4096
    assert cluster.monitors.counter("net.flow.s1->c0").value == 0


def test_write_to_down_server_fails_loudly(world, drive):
    """Writes have no failover: a write touching a dead holder must
    fail rather than leave replicas divergent."""
    cluster, pfs, dem = world
    client = pfs.client("c0")
    client.ingest("dem", dem, pfs.replicated_grouped(group=2, halo_strips=1))
    cluster.node("s1").fail()

    def main():
        yield client.write_elems("dem", 0, np.zeros(dem.size, dtype=np.float64))

    with pytest.raises(NodeDownError):
        drive(cluster, cluster.env.process(main()))


def test_offload_with_dead_server_fails_loudly(world, drive):
    """An exec fan-out that cannot reach a storage node must surface the
    failure, never return partial coverage as success."""
    from repro.core import ActiveRequest, ActiveStorageClient

    cluster, pfs, dem = world
    client = pfs.client("c0")
    client.ingest("dem", dem, pfs.round_robin())
    asc = ActiveStorageClient(pfs, home="c0")
    cluster.node("s3").fail()
    req = ActiveRequest("gaussian", "dem", "out", replicate_output=False)
    with pytest.raises(NodeDownError):
        drive(cluster, asc.execute_offload(req, asc.decide(req)))


# -- runs fail over strip by strip ---------------------------------------------
# The counters below were pinned on the per-strip store this run store
# replaced: a read's extents are maximal runs now, but failover, the
# `faults.failover_reads` count and the wire's extent descriptors stay
# per strip.
def grouped_world(halo, recovery=None):
    cluster = Cluster.build(n_compute=1, n_storage=4)
    pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
    dem = fractal_dem(128, 64, rng=np.random.default_rng(22))  # 16 strips
    client = pfs.client("c0")
    client.recovery = recovery
    # group=4: s1 holds strips 4-7; with halo=2, 4-5 are also on s0 and
    # 6-7 on s2, so s1's whole run has somewhere to go.
    client.ingest("dem", dem, pfs.replicated_grouped(group=4, halo_strips=halo))
    return cluster, client, dem.view(np.uint8).reshape(-1)


def counters(cluster):
    m = cluster.monitors
    return m.counter("faults.failover_reads").value, m.counter("pfs.rpc.extent_desc_bytes").value


@pytest.mark.parametrize("midflight", [False, True], ids=["down", "crash-in-flight"])
def test_replicated_run_fails_over_strip_by_strip(midflight):
    from repro.faults import RecoveryPolicy

    cluster, client, raw = grouped_world(halo=2, recovery=RecoveryPolicy() if midflight else None)

    def crash():
        yield cluster.env.timeout(1e-6)
        cluster.node("s1").fail()

    if midflight:
        cluster.env.process(crash())  # the fault-tolerant path remaps
    else:
        cluster.node("s1").fail()  # the read path remaps up front
    lo, n = 3 * 4096 + 7, 6 * 4096 - 20  # strips 3..8: s0 | s1 x4 | s2

    got = cluster.run(until=cluster.env.process(iter_read(client, lo, n)))
    assert np.array_equal(got, raw[lo : lo + n])
    assert counters(cluster) == ((4.0, 448.0) if midflight else (4.0, 192.0))


def test_unreplicated_strip_of_a_run_still_raises():
    cluster, client, raw = grouped_world(halo=1)
    cluster.node("s1").fail()

    def ok():
        a = yield client.read("dem", 2 * 4096 + 100, 3 * 4096 - 200)  # head of s1's run
        b = yield client.read("dem", 7 * 4096 + 10, 2 * 4096 + 100)  # tail of s1's run
        return a, b

    a, b = cluster.run(until=cluster.env.process(ok()))
    assert np.array_equal(a, raw[2 * 4096 + 100 : 5 * 4096 - 100])
    assert np.array_equal(b, raw[7 * 4096 + 10 : 9 * 4096 + 110])
    assert counters(cluster) == (2.0, 192.0)

    # Strips 3..8: strip 4 fails over, then strip 5 has no replica.
    with pytest.raises(NodeDownError, match="strip 5 unreachable: holder 's1' is down"):
        cluster.run(until=cluster.env.process(iter_read(client, 3 * 4096, 6 * 4096)))
    assert counters(cluster) == (3.0, 192.0)


def iter_read(client, offset, length):
    return (yield client.read("dem", offset, length))
