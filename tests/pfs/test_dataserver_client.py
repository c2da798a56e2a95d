"""Integration tests: data servers + PFS client over the fabric."""

import numpy as np
import pytest

from repro.errors import PFSError, StripMissingError
from repro.pfs import ParallelFileSystem, ReadPiece, WritePiece
from repro.units import KiB


@pytest.fixture
def pfs(small_cluster):
    return ParallelFileSystem(small_cluster, strip_size=4 * KiB)


@pytest.fixture
def loaded(pfs, small_cluster, dem_64):
    client = pfs.client("c0")
    client.ingest("dem", dem_64, pfs.round_robin())
    return pfs, small_cluster, client, dem_64


class TestIngestCollect:
    def test_roundtrip_identity(self, loaded):
        pfs, cl, client, dem = loaded
        assert np.array_equal(client.collect("dem"), dem)

    def test_strips_placed_round_robin(self, loaded):
        pfs, cl, client, dem = loaded
        assert pfs.servers["s0"].held_strips("dem") == [0, 4]
        assert pfs.servers["s3"].held_strips("dem") == [3, 7]

    def test_ingest_rejects_misaligned_strip_size(self, pfs):
        data = np.zeros(100, dtype=np.float64)
        bad = pfs.round_robin()
        bad.strip_size = 1001  # not a multiple of 8
        with pytest.raises(PFSError):
            pfs.client("c0").ingest("f", data, bad)

    def test_ingest_replicated_layout_places_copies(self, pfs, dem_64):
        layout = pfs.replicated_grouped(group=2, halo_strips=1)
        client = pfs.client("c0")
        client.ingest("dem", dem_64, layout)
        assert client.verify_replicas("dem")
        # s0 holds group 0 (strips 0,1) plus the head of group 1 (strip 2).
        assert 2 in pfs.servers["s0"].held_strips("dem")

    def test_stored_bytes_accounts_replicas(self, pfs, dem_64):
        client = pfs.client("c0")
        client.ingest("plain", dem_64, pfs.round_robin())
        base = pfs.stored_bytes()
        client.ingest("repl", dem_64, pfs.replicated_grouped(group=2, halo_strips=1))
        assert pfs.stored_bytes() - base > dem_64.nbytes


class TestTimedReadWrite:
    def test_read_returns_exact_bytes(self, loaded, drive):
        pfs, cl, client, dem = loaded
        raw = dem.view(np.uint8).reshape(-1)

        def main():
            got = yield client.read("dem", 100, 9000)
            return got

        got = drive(cl, cl.env.process(main()))
        assert np.array_equal(got, raw[100:9100])
        assert cl.env.now > 0  # it took simulated time

    def test_batches_one_request_per_server(self, loaded, drive):
        pfs, cl, client, dem = loaded

        def main():
            return (yield client.read("dem", 0, dem.nbytes))

        got = drive(cl, cl.env.process(main()))
        assert np.array_equal(got, dem.view(np.uint8).reshape(-1))
        # 8 strips round-robin on 4 servers, 2 each -> exactly 4 PFS requests.
        assert cl.monitors.counter("net.tag.pfs").events == 4

    def test_read_past_eof_rejected(self, loaded, drive):
        pfs, cl, client, dem = loaded

        def main():
            yield client.read("dem", dem.nbytes - 10, 20)

        with pytest.raises(PFSError):
            drive(cl, cl.env.process(main()))

    def test_write_then_read_elems(self, loaded, drive):
        pfs, cl, client, dem = loaded
        fresh = np.arange(64, dtype=np.float64)

        def main():
            yield client.write_elems("dem", 640, fresh)
            got = yield client.read_elems("dem", 640, 64)
            return got

        got = drive(cl, cl.env.process(main()))
        assert np.array_equal(got, fresh)

    def test_write_dtype_mismatch_rejected(self, loaded):
        pfs, cl, client, dem = loaded
        with pytest.raises(PFSError):
            client.write_elems("dem", 0, np.zeros(4, dtype=np.float32))

    def test_write_updates_every_replica(self, pfs, small_cluster, dem_64, drive):
        client = pfs.client("c0")
        client.ingest("dem", dem_64, pfs.replicated_grouped(group=2, halo_strips=1))
        patch = np.full(1024, 7.0)  # covers strips 0-1 (and replica ranges)

        def main():
            yield client.write_elems("dem", 0, patch)

        drive(small_cluster, small_cluster.env.process(main()))
        assert client.verify_replicas("dem")
        assert np.array_equal(client.collect("dem").reshape(-1)[:1024], patch)

    def test_read_charges_disk_and_network(self, loaded, drive):
        pfs, cl, client, dem = loaded

        def main():
            yield client.read("dem", 0, dem.nbytes)

        drive(cl, cl.env.process(main()))
        m = cl.monitors
        assert m.counter("disk.read_total").value >= dem.nbytes
        assert m.counter("net.rx.c0").value >= dem.nbytes


class TestDataServerDirect:
    def test_read_pieces_concatenates(self, loaded, drive):
        pfs, cl, client, dem = loaded
        ds = pfs.servers["s0"]
        raw = dem.view(np.uint8).reshape(-1)

        def main():
            data = yield ds.read_pieces(
                "dem", [ReadPiece(0, 0, 100), ReadPiece(4, 50, 25)]
            )
            return data

        got = drive(cl, cl.env.process(main()))
        expected = np.concatenate(
            [raw[0:100], raw[4 * 4096 + 50 : 4 * 4096 + 75]]
        )
        assert np.array_equal(got, expected)

    def test_missing_strip_raises(self, loaded, drive):
        pfs, cl, client, dem = loaded
        ds = pfs.servers["s0"]

        def main():
            yield ds.read_pieces("dem", [ReadPiece(1, 0, 10)])  # strip 1 on s1

        with pytest.raises(StripMissingError):
            drive(cl, cl.env.process(main()))

    def test_read_past_strip_end_raises(self, loaded, drive):
        pfs, cl, client, dem = loaded
        ds = pfs.servers["s0"]

        def main():
            yield ds.read_pieces("dem", [ReadPiece(0, 4090, 100)])

        with pytest.raises(PFSError):
            drive(cl, cl.env.process(main()))

    def test_write_allocates_known_strip(self, loaded, drive):
        pfs, cl, client, dem = loaded
        pfs.metadata.create("out", dem.nbytes, pfs.round_robin())
        ds = pfs.servers["s1"]

        def main():
            yield ds.write_pieces(
                "out", [WritePiece(1, 0, np.full(16, 9, dtype=np.uint8))]
            )

        drive(cl, cl.env.process(main()))
        assert ds.strip_bytes("out", 1)[:16].tolist() == [9] * 16

    def test_write_beyond_eof_strip_rejected(self, loaded, drive):
        pfs, cl, client, dem = loaded
        pfs.metadata.create("tiny", 100, pfs.round_robin())
        ds = pfs.servers["s1"]

        def main():
            yield ds.write_pieces("tiny", [WritePiece(1, 0, np.zeros(4, np.uint8))])

        with pytest.raises(PFSError):
            drive(cl, cl.env.process(main()))

    def test_drop_file_clears_strips(self, loaded):
        pfs, cl, client, dem = loaded
        assert pfs.servers["s0"].drop_file("dem") == 2
        assert pfs.servers["s0"].held_strips("dem") == []


class TestFacade:
    def test_client_cached_per_home(self, pfs):
        assert pfs.client("c0") is pfs.client("c0")
        assert pfs.client("c0") is not pfs.client("c1")

    def test_local_file_requires_server(self, loaded):
        pfs, cl, client, dem = loaded
        with pytest.raises(PFSError):
            pfs.local_file("c0", "dem")

    def test_requires_storage_nodes(self):
        from repro.hw import Cluster
        from repro.pfs import ParallelFileSystem as PFS

        cl = Cluster.build(n_compute=1, n_storage=1)
        assert PFS(cl).server_names == ["s0"]
