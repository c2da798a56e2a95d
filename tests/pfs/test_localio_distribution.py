"""Integration tests for the local I/O API and the redistribution engine."""

import numpy as np
import pytest

from repro.errors import PFSError
from repro.pfs import ParallelFileSystem, plan_moves, planned_bytes
from repro.units import KiB


@pytest.fixture
def world(small_cluster, dem_64):
    pfs = ParallelFileSystem(small_cluster, strip_size=4 * KiB)
    client = pfs.client("c0")
    client.ingest("dem", dem_64, pfs.round_robin())
    return small_cluster, pfs, client, dem_64


class TestLocalFile:
    def test_primary_runs_match_layout(self, world):
        cl, pfs, client, dem = world
        lf = pfs.local_file("s2", "dem")
        assert lf.primary_runs() == [(2, 2), (6, 6)]

    def test_run_elem_range(self, world):
        cl, pfs, client, dem = world
        lf = pfs.local_file("s0", "dem")
        first, count = lf.run_elem_range((0, 0))
        assert (first, count) == (0, 512)  # 4096 B / 8

    def test_is_local_detects_presence(self, world):
        cl, pfs, client, dem = world
        lf = pfs.local_file("s0", "dem")
        assert lf.is_local(0, 4096)         # strip 0 on s0
        assert not lf.is_local(4096, 10)    # strip 1 on s1
        assert not lf.is_local(0, 5000)     # spans into strip 1

    def test_is_local_out_of_bounds_false(self, world):
        cl, pfs, client, dem = world
        lf = pfs.local_file("s0", "dem")
        assert not lf.is_local(dem.nbytes - 4, 8)

    def test_read_elems_matches_source(self, world, drive):
        cl, pfs, client, dem = world
        lf = pfs.local_file("s1", "dem")
        first, count = lf.run_elem_range((1, 1))

        def main():
            return (yield lf.read_elems(first, count))

        got = drive(cl, cl.env.process(main()))
        assert np.array_equal(got, dem.reshape(-1)[first : first + count])

    def test_read_nonlocal_raises(self, world, drive):
        cl, pfs, client, dem = world
        lf = pfs.local_file("s0", "dem")

        def main():
            yield lf.read(4096, 100)

        with pytest.raises(PFSError):
            drive(cl, cl.env.process(main()))

    def test_read_replica_strip_locally(self, small_cluster, dem_64, drive):
        pfs = ParallelFileSystem(small_cluster, strip_size=4 * KiB)
        client = pfs.client("c0")
        client.ingest("dem", dem_64, pfs.replicated_grouped(group=2, halo_strips=1))
        # Strip 2 heads group 1 (primary s1, replica s0).
        lf = pfs.local_file("s0", "dem")
        assert lf.is_local(2 * 4096, 100)

        def main():
            return (yield lf.read(2 * 4096, 100))

        got = drive(small_cluster, small_cluster.env.process(main()))
        raw = dem_64.view(np.uint8).reshape(-1)
        assert np.array_equal(got, raw[2 * 4096 : 2 * 4096 + 100])

    def test_write_elems_rejects_foreign_strip(self, world, drive):
        cl, pfs, client, dem = world
        pfs.metadata.create("out", dem.nbytes, pfs.round_robin(), shape=dem.shape)
        lf = pfs.local_file("s0", "out")

        def main():
            yield lf.write_elems(512, np.zeros(10, dtype=np.float64))  # strip 1

        with pytest.raises(PFSError):
            drive(cl, cl.env.process(main()))

    def test_write_elems_dtype_checked(self, world):
        cl, pfs, client, dem = world
        lf = pfs.local_file("s0", "dem")
        with pytest.raises(PFSError):
            lf.write_elems(0, np.zeros(4, dtype=np.int32))


class TestRedistribution:
    def test_plan_moves_round_robin_to_grouped(self, world):
        cl, pfs, client, dem = world
        meta = pfs.metadata.lookup("dem")
        target = pfs.grouped(2)
        moves = plan_moves(meta, target)
        # Strip 1 (rr: s1) belongs to group 0 -> s0 under grouped(2).
        assert (1, 1) in moves[("s1", "s0")]
        # Strip 0 stays on s0: no move recorded.
        assert all(first > 0 for runs in moves.values() for first, _ in runs)

    def test_planned_bytes_match_moved_bytes(self, world, drive):
        cl, pfs, client, dem = world
        target = pfs.replicated_grouped(group=2, halo_strips=1)
        predicted = planned_bytes(pfs.metadata.lookup("dem"), target)

        def main():
            return (yield pfs.redistributor.redistribute("dem", target))

        moved = drive(cl, cl.env.process(main()))
        assert moved == predicted

    def test_redistribution_preserves_content(self, world, drive):
        cl, pfs, client, dem = world
        target = pfs.replicated_grouped(group=2, halo_strips=1)

        def main():
            yield pfs.redistributor.redistribute("dem", target)

        drive(cl, cl.env.process(main()))
        assert np.array_equal(client.collect("dem"), dem)
        assert client.verify_replicas("dem")
        assert pfs.metadata.lookup("dem").layout is target

    def test_redistribution_drops_stale_copies(self, world, drive):
        cl, pfs, client, dem = world
        target = pfs.grouped(2)

        def main():
            yield pfs.redistributor.redistribute("dem", target)

        drive(cl, cl.env.process(main()))
        # Under grouped(2) with 8 strips, s2/s3 hold strips 4-7 only.
        assert pfs.servers["s0"].held_strips("dem") == [0, 1]
        assert pfs.servers["s2"].held_strips("dem") == [4, 5]

    def test_redistribution_joins_the_lent_views(self, world, drive):
        """Lent strips that continue one another in the ingested buffer
        end up as one stored run per local run, with no copy."""
        cl, pfs, client, dem = world
        target = pfs.replicated_grouped(group=2, halo_strips=1)
        drive(cl, pfs.redistributor.redistribute("dem", target))
        for name, server in pfs.servers.items():
            runs = server._runs("dem").runs  # the store itself, not views of it
            assert [(f, e - 1) for f, e, _ in runs] == target.local_runs(name, dem.nbytes)
            for _, _, buf in runs:
                assert not buf.flags.writeable and np.shares_memory(buf, dem)

    def test_strip_size_change_rejected(self, world):
        cl, pfs, client, dem = world
        from repro.pfs import RoundRobinLayout

        other = RoundRobinLayout(pfs.server_names, strip_size=8 * KiB)
        with pytest.raises(PFSError):
            plan_moves(pfs.metadata.lookup("dem"), other)

    def test_identity_redistribution_moves_nothing(self, world, drive):
        cl, pfs, client, dem = world
        meta = pfs.metadata.lookup("dem")
        assert planned_bytes(meta, meta.layout) == 0

        def main():
            return (yield pfs.redistributor.redistribute("dem", meta.layout))

        assert drive(cl, cl.env.process(main())) == 0

    def test_counter_records_redistributed_bytes(self, world, drive):
        cl, pfs, client, dem = world
        target = pfs.grouped(4)

        def main():
            return (yield pfs.redistributor.redistribute("dem", target))

        moved = drive(cl, cl.env.process(main()))
        assert cl.monitors.counter("pfs.redistribute_bytes").value == moved
