"""Property-based tests for striping layouts.

Invariants that must hold for *any* layout, file size and byte range:

* ``map_extent`` partitions the requested range exactly (no gaps, no
  overlap, each piece within one strip);
* every strip has exactly one primary and the primary is in its replica
  list;
* placement tables cover every strip of the file;
* the replicated layout's defining guarantee: each server can reach
  ``halo_strips`` strips on each side of every primary run locally;
* ``period`` is where placement repeats (the predictor costs one run
  per class of each period; see ``test_prop_predictor.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs import GroupedLayout, ReplicatedGroupedLayout, RoundRobinLayout
from repro.pfs.layout import Layout

servers_st = st.integers(min_value=1, max_value=9).map(
    lambda n: [f"s{i}" for i in range(n)]
)
strip_size_st = st.sampled_from([64, 256, 1024, 4096])


@st.composite
def layouts(draw):
    servers = draw(servers_st)
    strip_size = draw(strip_size_st)
    kind = draw(st.sampled_from(["rr", "grouped", "replicated"]))
    if kind == "rr":
        return RoundRobinLayout(servers, strip_size)
    group = draw(st.integers(min_value=1, max_value=6))
    if kind == "grouped":
        return GroupedLayout(servers, strip_size, group)
    halo = draw(st.integers(min_value=0, max_value=group))
    return ReplicatedGroupedLayout(servers, strip_size, group, halo_strips=halo)


@given(layout=layouts(), offset=st.integers(0, 10_000), length=st.integers(0, 20_000))
@settings(max_examples=200)
def test_map_extent_partitions_range(layout, offset, length):
    extents = layout.map_extent(offset, length)
    assert sum(e.length for e in extents) == length
    pos = offset
    for e in extents:
        assert e.offset == pos
        assert e.length >= 1
        assert e.in_strip == e.offset - e.strip * layout.strip_size
        assert 0 <= e.in_strip < layout.strip_size
        assert e.in_strip + e.length <= layout.strip_size
        assert e.server in layout.replicas(e.strip)
        pos = e.end
    assert pos == offset + length


@given(layout=layouts(), strip=st.integers(0, 5000))
@settings(max_examples=200)
def test_primary_is_first_replica(layout, strip):
    replicas = layout.replicas(strip)
    assert replicas[0] == layout.primary_server(strip)
    assert len(set(replicas)) == len(replicas)
    for server in replicas:
        assert layout.holds(server, strip)


@given(layout=layouts(), file_size=st.integers(1, 500_000))
@settings(max_examples=100)
def test_placement_table_covers_file(layout, file_size):
    table = layout.placement_table(file_size)
    n = layout.n_strips(file_size)
    primaries = {
        s
        for server, strips in table.items()
        for s in strips
        if layout.primary_server(s) == server
    }
    assert primaries == set(range(n))


@given(layout=layouts(), file_size=st.integers(0, 200_000))
@settings(max_examples=200)
def test_closed_form_inventories_match_the_definition(layout, file_size):
    """The concrete layouts compute their inventories arithmetically;
    :class:`Layout`'s own methods are the per-strip definition.  Same
    values, same order — for servers outside the layout too."""
    table = {s: [] for s in layout.servers}
    for strip in range(layout.n_strips(file_size)):
        for server in layout.replicas(strip):
            table[server].append(strip)
    assert layout.placement_table(file_size) == table
    for server in layout.servers + ["elsewhere"]:
        assert layout.primary_strips(server, file_size) == Layout.primary_strips(
            layout, server, file_size
        )
        assert layout.local_strips(server, file_size) == Layout.local_strips(
            layout, server, file_size
        )
        runs = layout.primary_runs(server, file_size)
        strips = [s for first, last in runs for s in range(first, last + 1)]
        assert strips == Layout.primary_strips(layout, server, file_size)
        assert all(a[1] + 1 < b[0] for a, b in zip(runs, runs[1:]))  # maximal


@given(layout=layouts(), file_size=st.integers(1, 500_000))
@settings(max_examples=100)
def test_primary_runs_partition_strips(layout, file_size):
    n = layout.n_strips(file_size)
    seen = []
    for server in layout.servers:
        for first, last in layout.primary_runs(server, file_size):
            assert first <= last
            for s in range(first, last + 1):
                assert layout.primary_server(s) == server
            seen.extend(range(first, last + 1))
    assert sorted(seen) == list(range(n))


@given(
    servers=servers_st,
    strip_size=strip_size_st,
    group=st.integers(1, 6),
    halo=st.integers(0, 6),
    n_strips=st.integers(1, 200),
)
@settings(max_examples=150)
def test_replicated_layout_halo_locality(servers, strip_size, group, halo, n_strips):
    halo = min(halo, group)
    layout = ReplicatedGroupedLayout(servers, strip_size, group, halo_strips=halo)
    file_size = n_strips * strip_size
    for server in layout.servers:
        for first, last in layout.primary_runs(server, file_size):
            for d in range(1, halo + 1):
                if first - d >= 0:
                    assert layout.holds(server, first - d)
                if last + d < n_strips:
                    assert layout.holds(server, last + d)


@given(layout=layouts(), file_size=st.integers(0, 100_000))
@settings(max_examples=100)
def test_storage_bytes_at_least_file_size(layout, file_size):
    stored = layout.storage_bytes(file_size)
    assert stored >= file_size
    if isinstance(layout, ReplicatedGroupedLayout):
        # Paper's bound: overhead <= 2h/r of the file plus edge effects.
        bound = file_size * (1 + layout.capacity_overhead()) + 2 * layout.strip_size
        assert stored <= bound
    elif not isinstance(layout, ReplicatedGroupedLayout):
        assert stored == file_size


@given(layout=layouts(), shift=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_placement_repeats_after_the_stated_period(layout, shift):
    for strip in range(layout.period, 3 * layout.period):
        assert layout.replicas(strip + shift * layout.period) == layout.replicas(strip)
