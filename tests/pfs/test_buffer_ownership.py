"""The buffer rule on the PFS: adopt on ingest and on hand-over, copy
on write, per strip.

``PFSClient.ingest`` adopts a C-contiguous array instead of copying it
(every run a server holds, primaries and replicas alike, is a read-only
view of that one buffer) and flags the handed array read-only; the
whole strips of a write piece its sender hands over (an AS stage
output, a redistributed run) become a run holding the piece,
read-only, while client writes are copied; a timed write copies only
the strips it touches out of a read-only run.  So a later write through
the caller's handle raises instead of silently changing stored bytes,
and no write through the file system ever reaches the source raster or
a handed-over buffer (see docs/ARCHITECTURE.md, "Ownership and
lifetime").
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ActiveRequest, ActiveStorageClient, Pipeline
from repro.hw import Cluster
from repro.kernels import default_registry
from repro.pfs import ParallelFileSystem, WritePiece
from repro.pfs.dataserver import fan_out
from repro.schemes import TraditionalScheme
from repro.units import KiB
from repro.workloads import fractal_dem


@pytest.fixture
def world():
    cluster = Cluster.build(n_compute=2, n_storage=4)
    pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
    return cluster, pfs, pfs.client("c0")


def strips_of(pfs, name):
    return [
        server.strip_bytes(name, strip)
        for server in pfs.servers.values()
        for strip in server.held_strips(name)
    ]


class TestAdoptOnIngest:
    def test_strips_and_replicas_are_read_only_views_of_the_handed_array(self, world):
        cluster, pfs, client = world
        dem = fractal_dem(64, 64, rng=np.random.default_rng(1))
        client.ingest("dem", dem, pfs.replicated_grouped(group=2, halo_strips=1))
        strips = strips_of(pfs, "dem")
        assert len(strips) > 8  # 8 primaries plus boundary replicas
        for strip in strips:
            assert strip.dtype == np.uint8
            assert not strip.flags.writeable
            assert np.shares_memory(strip, dem)
        assert client.verify_replicas("dem")

    def test_writing_through_the_handed_array_raises(self, world):
        cluster, pfs, client = world
        dem = fractal_dem(64, 64, rng=np.random.default_rng(1))
        client.ingest("dem", dem, pfs.round_robin())
        with pytest.raises(ValueError, match="read-only"):
            dem[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            dem += 1.0

    def test_stored_bytes_unchanged_by_adoption(self, world):
        cluster, pfs, client = world
        dem = fractal_dem(64, 64, rng=np.random.default_rng(1))
        client.ingest("plain", dem, pfs.round_robin())
        assert pfs.stored_bytes() == dem.nbytes
        layout = pfs.replicated_grouped(group=2, halo_strips=1)
        client.ingest("repl", dem, layout)
        copies = sum(len(layout.replicas(s)) for s in range(layout.n_strips(dem.nbytes)))
        assert pfs.stored_bytes() == dem.nbytes + copies * 4 * KiB

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda a: a[:, ::2], id="non-contiguous"),
            pytest.param(lambda a: a.T, id="transposed"),
            pytest.param(lambda a: a[8:24], id="view-of-a-writeable-array"),
        ],
    )
    def test_input_that_cannot_be_adopted_is_copied_and_left_writeable(self, world, make):
        cluster, pfs, client = world
        owner = fractal_dem(64, 64, rng=np.random.default_rng(1))
        handed = make(owner)
        before = handed.copy()
        client.ingest("f", handed, pfs.round_robin())
        assert handed.flags.writeable and owner.flags.writeable
        assert not any(np.shares_memory(strip, owner) for strip in strips_of(pfs, "f"))
        owner[:] = -1.0  # the caller keeps using its array ...
        assert np.array_equal(client.collect("f"), before)  # ... the PFS its bytes

    def test_converted_input_is_copied(self, world):
        cluster, pfs, client = world
        rows = [[float(r * 8 + c) for c in range(8)] for r in range(64)]
        client.ingest("listed", rows, pfs.round_robin())
        assert np.array_equal(client.collect("listed"), np.array(rows))

    def test_preload_converts_other_dtypes_and_leaves_the_caller_writeable(self, world):
        cluster, pfs, client = world
        pfs.metadata.create("raw", 16, pfs.round_robin(), dtype=np.uint8)
        values = np.arange(16, dtype=np.int64)
        server = pfs.servers["s0"]
        server.preload("raw", 0, values)
        assert values.flags.writeable
        strip = server.strip_bytes("raw", 0)
        assert strip.dtype == np.uint8 and not strip.flags.writeable
        assert not np.shares_memory(strip, values)
        assert strip.tolist() == list(range(16))


class TestCopyOnWrite:
    def test_write_elems_never_reaches_the_source(self, world, drive):
        cluster, pfs, client = world
        dem = fractal_dem(64, 64, rng=np.random.default_rng(1))
        source = dem.tobytes()
        client.ingest("dem", dem, pfs.replicated_grouped(group=2, halo_strips=1))
        patch = np.arange(700, dtype=np.float64)  # partial strip, whole strip, partial

        drive(cluster, client.write_elems("dem", 300, patch))

        assert dem.tobytes() == source
        expected = np.frombuffer(source, dtype=np.float64).copy()
        expected[300:1000] = patch
        assert np.array_equal(client.collect("dem").reshape(-1), expected)
        assert client.verify_replicas("dem")
        # Touched strips became private; untouched ones are still views.
        strips = strips_of(pfs, "dem")
        assert any(s.flags.writeable and not np.shares_memory(s, dem) for s in strips)
        assert any(not s.flags.writeable and np.shares_memory(s, dem) for s in strips)

    def test_local_write_never_reaches_the_source(self, world, drive):
        cluster, pfs, client = world
        dem = fractal_dem(64, 64, rng=np.random.default_rng(1))
        source = dem.tobytes()
        client.ingest("dem", dem, pfs.round_robin())
        local = pfs.local_file("s1", "dem")
        first, count = local.run_elem_range(local.primary_runs()[0])

        drive(cluster, local.write_elems(first + 3, np.full(count - 3, 7.0)))

        assert dem.tobytes() == source
        got = client.collect("dem").reshape(-1)
        assert (got[first + 3 : first + count] == 7.0).all()
        assert got[first + 2] == dem.reshape(-1)[first + 2]

    def test_redistribution_never_changes_the_source(self, world, drive):
        cluster, pfs, client = world
        dem = fractal_dem(64, 64, rng=np.random.default_rng(1))
        source = dem.tobytes()
        client.ingest("dem", dem, pfs.round_robin())
        layout = pfs.replicated_grouped(group=2, halo_strips=1)

        moved = drive(cluster, pfs.redistributor.redistribute("dem", layout))

        assert moved > 0
        assert dem.tobytes() == source
        assert np.array_equal(client.collect("dem"), dem)
        assert client.verify_replicas("dem")
        # A strip shipped to a new holder shares the source, read-only ...
        for s in strips_of(pfs, "dem"):
            assert not s.flags.writeable and np.shares_memory(s, dem)
        # ... until a write gives the holder a private copy.
        patch = np.arange(700, dtype=np.float64)  # partial, whole, partial strip
        drive(cluster, client.write_elems("dem", 300, patch))
        assert dem.tobytes() == source
        expected = dem.reshape(-1).copy()
        expected[300:1000] = patch
        assert np.array_equal(client.collect("dem").reshape(-1), expected)
        assert client.verify_replicas("dem")
        assert any(
            s.flags.writeable and not np.shares_memory(s, dem)
            for s in strips_of(pfs, "dem")
        )

    def test_pipeline_and_write_back_never_change_the_source(self, world, drive):
        cluster, pfs, client = world
        dem = fractal_dem(128, 192, rng=np.random.default_rng(5))
        source = dem.tobytes()
        client.ingest("dem", dem, pfs.round_robin())

        pipeline = Pipeline(("flow-routing", "gaussian"))
        stages = drive(
            cluster, pipeline.submit(ActiveStorageClient(pfs, home="c0"), "dem")
        )
        drive(
            cluster,
            TraditionalScheme(pfs, write_back=True).run_operation(
                "gaussian", "dem", "dem.ts"
            ),
        )

        assert all(stage.offloaded for stage in stages)
        assert dem.tobytes() == source
        routed = default_registry.get("flow-routing").reference(dem)
        outputs = [request.output for request in pipeline.requests("dem")]
        wanted = [routed, default_registry.get("gaussian").reference(routed)]
        wanted.append(default_registry.get("gaussian").reference(dem))
        for output, want in zip(outputs + ["dem.ts"], wanted):
            assert np.array_equal(client.collect(output), want)
            assert client.verify_replicas(output)
        assert np.array_equal(client.collect("dem"), dem)

    def test_whole_strip_write_creates_the_strip_from_the_piece(self, world, drive):
        cluster, pfs, client = world
        pfs.metadata.create("out", 8 * KiB, pfs.round_robin(), dtype=np.uint8)
        server = pfs.servers["s1"]  # round-robin: strip 1 lives on s1
        piece = np.full(4 * KiB, 9, dtype=np.uint8)

        drive(cluster, server.write_pieces("out", [WritePiece(1, 0, piece)]))

        strip = server.strip_bytes("out", 1)
        assert strip.flags.writeable and not np.shares_memory(strip, piece)
        piece[:] = 0  # the sender's buffer is the sender's again
        assert (strip == 9).all()


class TestHandOver:
    """A whole-strip piece its sender hands over (``adopt=True``: AS
    stage outputs, redistributed strips) becomes the strip, read-only,
    and primary and replicas share one array; any other piece is copied."""

    def test_handed_over_whole_strip_piece_is_adopted_read_only(self, world, drive):
        cluster, pfs, client = world
        pfs.metadata.create("out", 8 * KiB, pfs.round_robin(), dtype=np.uint8)
        server = pfs.servers["s1"]
        piece = np.full(4 * KiB, 9, dtype=np.uint8)

        drive(cluster, server.write_pieces("out", [WritePiece(1, 0, piece)], adopt=True))

        strip = server.strip_bytes("out", 1)
        assert np.shares_memory(strip, piece) and not strip.flags.writeable
        assert server.stored_bytes() == 4 * KiB
        # A later partial write copies first; the handed buffer is untouched.
        drive(cluster, server.write_pieces("out", [WritePiece(1, 8, np.zeros(8, np.uint8))]))
        assert (piece == 9).all() and not np.shares_memory(server.strip_bytes("out", 1), piece)

    def test_client_write_of_a_read_only_array_is_copied(self, world, drive):
        cluster, pfs, client = world
        layout = pfs.replicated_grouped(group=2, halo_strips=1)
        pfs.metadata.create("out", 16 * KiB, layout, dtype=np.uint8)
        data = np.full(16 * KiB, 9, dtype=np.uint8)
        data.flags.writeable = False

        drive(cluster, client.write("out", 0, data))

        strips = strips_of(pfs, "out")
        assert len(strips) > 4  # every strip plus boundary replicas
        assert not any(np.shares_memory(strip, data) for strip in strips)
        assert client.verify_replicas("out")

    def test_replicated_stage_output_replicas_share_their_primary(self, world, drive):
        cluster, pfs, client = world
        dem = fractal_dem(64, 128, rng=np.random.default_rng(3))
        client.ingest("dem", dem, pfs.replicated_grouped(group=2, halo_strips=1))
        output = "out"
        request = ActiveRequest("gaussian", "dem", output)
        drive(cluster, ActiveStorageClient(pfs, home="c0").submit(request, force_offload=True))
        layout = pfs.metadata.lookup(output).layout
        assert np.array_equal(
            client.collect(output), default_registry.get("gaussian").reference(dem)
        )
        size = dem.nbytes
        shared = 0
        for strip in range(layout.n_strips(size)):
            holders = layout.replicas(strip)
            primary = pfs.servers[holders[0]].strip_bytes(output, strip)
            for server in holders[1:]:
                replica = pfs.servers[server].strip_bytes(output, strip)
                assert not replica.flags.writeable
                assert np.shares_memory(replica, primary)
                shared += 1
        assert shared > 0 and client.verify_replicas(output)
        # Sharing changes what is resident, not what is counted.
        source = pfs.metadata.lookup("dem").layout
        assert pfs.stored_bytes() == source.storage_bytes(size) + layout.storage_bytes(size)


# -- (d) random ingest + random element-range writes == a NumPy model ---------
@st.composite
def write_plans(draw):
    n_servers = draw(st.integers(1, 4))
    per_strip = draw(st.sampled_from([8, 16, 32]))  # elements per strip
    n = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["rr", "grouped", "replicated"]))
    group = draw(st.integers(1, 3))
    halo = draw(st.integers(0, group))
    writes = []
    for _ in range(draw(st.integers(0, 5))):
        first = draw(st.integers(0, n - 1))
        count = draw(st.integers(1, n - first))
        writes.append((first, count, draw(st.integers(0, 2**16)), draw(st.booleans())))
    plan = (n_servers, per_strip * 8, n, kind, group, halo)
    return plan + (draw(st.integers(0, 2**16)), writes)


@given(plan=write_plans())
@settings(max_examples=80, deadline=None)
def test_random_writes_over_an_adopted_file_match_a_numpy_model(plan):
    """Random writes — crossing strip and run boundaries, copied (client
    writes) or handed over (``adopt=True``, as stage outputs are) — over
    an adopted file agree with a NumPy model, and the store copies only
    the strips a write touches: every strip no write reached is still a
    read-only view of the ingested array."""
    n_servers, strip, n, kind, group, halo, seed, writes = plan
    cluster = Cluster.build(n_compute=1, n_storage=n_servers)
    pfs = ParallelFileSystem(cluster, strip_size=strip)
    layout = {
        "rr": pfs.round_robin,
        "grouped": lambda: pfs.grouped(group),
        "replicated": lambda: pfs.replicated_grouped(group, halo_strips=halo),
    }[kind]()
    data = np.random.default_rng(seed).random(n)
    model = data.copy()
    source = data.tobytes()
    client = pfs.client("c0")
    client.ingest("f", data, layout)
    assert not data.flags.writeable
    handed, touched = [], set()

    def main():
        for first, count, patch_seed, adopt in writes:
            patch = np.random.default_rng(patch_seed).random(count)
            model[first : first + count] = patch
            touched.update(range(first * 8 // strip, ((first + count) * 8 - 1) // strip + 1))
            if not adopt:
                yield client.write_elems("f", first, patch)
                continue
            patch.flags.writeable = False
            handed.append((patch, patch.tobytes()))
            raw = patch.view(np.uint8)
            for server, (pieces, _) in fan_out(layout, first * 8, raw).items():
                yield pfs.servers[server].write_pieces("f", pieces, adopt=True)
        return (yield client.read_elems("f", 0, n))

    got = cluster.run(until=cluster.env.process(main()))
    assert np.array_equal(got, model)
    assert np.array_equal(client.collect("f"), model)
    assert client.verify_replicas("f")
    assert data.tobytes() == source
    assert all(patch.tobytes() == before for patch, before in handed)
    assert pfs.stored_bytes() == sum(
        layout.strip_extent_bytes(s, data.nbytes) * len(layout.replicas(s))
        for s in range(layout.n_strips(data.nbytes))
    )
    table = layout.placement_table(data.nbytes)
    for name, server in pfs.servers.items():
        assert server.held_strips("f") == table[name]
        for s in server.held_strips("f"):
            view = server.strip_bytes("f", s)
            assert np.shares_memory(view, data) == (s not in touched)
            assert not view.flags.writeable or s in touched
