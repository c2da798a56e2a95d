"""Property-based tests for the PFS data path.

For arbitrary raster shapes, strip sizes, layouts and access patterns:
bytes written through the system come back identical (through the
timed path, the local path and after redistribution).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Cluster
from repro.pfs import ParallelFileSystem


@st.composite
def worlds(draw):
    n_servers = draw(st.integers(1, 5))
    spe = draw(st.sampled_from([16, 32, 64]))  # elements per strip
    strip = spe * 8
    rows = draw(st.integers(1, 24))
    cols = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["rr", "grouped", "replicated"]))
    group = draw(st.integers(1, 4))
    return n_servers, strip, rows, cols, seed, kind, group


def build(n_servers, strip, rows, cols, seed, kind, group):
    cluster = Cluster.build(n_compute=1, n_storage=n_servers)
    pfs = ParallelFileSystem(cluster, strip_size=strip)
    if kind == "rr":
        layout = pfs.round_robin()
    elif kind == "grouped":
        layout = pfs.grouped(group)
    else:
        layout = pfs.replicated_grouped(group, halo_strips=min(1, group))
    data = np.random.default_rng(seed).random((rows, cols))
    pfs.client("c0").ingest("f", data, layout)
    return cluster, pfs, data


@given(params=worlds())
@settings(max_examples=60, deadline=None)
def test_ingest_collect_roundtrip(params):
    cluster, pfs, data = build(*params)
    client = pfs.client("c0")
    assert np.array_equal(client.collect("f"), data)
    assert client.verify_replicas("f")


@given(
    params=worlds(),
    frac_lo=st.floats(0, 1),
    frac_len=st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_timed_read_any_range(params, frac_lo, frac_len):
    cluster, pfs, data = build(*params)
    client = pfs.client("c0")
    raw = data.view(np.uint8).reshape(-1)
    offset = int(frac_lo * (raw.size - 1))
    length = int(frac_len * (raw.size - offset))

    def main():
        return (yield client.read("f", offset, length))

    got = cluster.run(until=cluster.env.process(main()))
    assert np.array_equal(got, raw[offset : offset + length])


@given(params=worlds(), seed2=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_overwrite_roundtrip(params, seed2):
    cluster, pfs, data = build(*params)
    client = pfs.client("c0")
    rng = np.random.default_rng(seed2)
    n = data.size
    first = int(rng.integers(0, n))
    count = int(rng.integers(0, n - first)) if n - first else 0
    patch = rng.random(count)

    def main():
        if count:
            yield client.write_elems("f", first, patch)
        return (yield client.read_elems("f", 0, n))

    got = cluster.run(until=cluster.env.process(main()))
    expected = data.reshape(-1).copy()
    expected[first : first + count] = patch
    assert np.array_equal(got, expected)
    assert client.verify_replicas("f")


@given(params=worlds(), group2=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_redistribution_preserves_bytes(params, group2):
    cluster, pfs, data = build(*params)
    client = pfs.client("c0")
    target = pfs.replicated_grouped(group2, halo_strips=min(1, group2))

    def main():
        return (yield pfs.redistributor.redistribute("f", target))

    cluster.run(until=cluster.env.process(main()))
    assert np.array_equal(client.collect("f"), data)
    assert client.verify_replicas("f")
    # The store holds exactly what the new layout wants: no stale copies.
    meta = pfs.metadata.lookup("f")
    for server, ds in pfs.servers.items():
        held = set(ds.held_strips("f"))
        wanted = {
            s
            for s in range(target.n_strips(meta.size))
            if target.holds(server, s)
        }
        assert held == wanted


@given(params=worlds(), group_a=st.integers(1, 4), group_b=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_redistribution_round_trip(params, group_a, group_b):
    """A -> B -> A returns to exactly the original placement and bytes."""
    cluster, pfs, data = build(*params)
    client = pfs.client("c0")
    original = pfs.metadata.lookup("f").layout
    layout_a = pfs.replicated_grouped(group_a, halo_strips=min(1, group_a))
    layout_b = pfs.replicated_grouped(group_b, halo_strips=min(1, group_b))

    def main():
        yield pfs.redistributor.redistribute("f", layout_a)
        yield pfs.redistributor.redistribute("f", layout_b)
        yield pfs.redistributor.redistribute("f", original)

    cluster.run(until=cluster.env.process(main()))
    assert np.array_equal(client.collect("f"), data)
    assert client.verify_replicas("f")
    meta = pfs.metadata.lookup("f")
    for server, ds in pfs.servers.items():
        held = set(ds.held_strips("f"))
        wanted = {
            s
            for s in range(original.n_strips(meta.size))
            if original.holds(server, s)
        }
        assert held == wanted
