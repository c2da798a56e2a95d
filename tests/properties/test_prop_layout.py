"""Property-based tests for striping layouts.

Invariants that must hold for *any* layout, file size and byte range:

* ``map_extent`` partitions the requested range exactly (no gaps, no
  overlap) into maximal runs of strips with one holder each;
* every strip has exactly one primary and the primary is in its replica
  list;
* placement tables cover every strip of the file;
* the replicated layout's defining guarantee: each server can reach
  ``halo_strips`` strips on each side of every primary run locally;
* ``period`` is where placement repeats (the predictor costs one run
  per class of each period; see ``test_prop_predictor.py``);
* run-level planning (``storage_bytes``, ``plan_moves``,
  ``planned_bytes``) equals its per-strip definition.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs import (
    FileMeta,
    GroupedLayout,
    ReplicatedGroupedLayout,
    RoundRobinLayout,
    plan_moves,
    planned_bytes,
)

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


@given(
    layout=layouts(),
    offset=st.integers(0, 10_000),
    length=st.integers(0, 20_000),
    prefer=st.sampled_from([None, "s0", "s1"]),
)
@settings(max_examples=200)
def test_map_extent_partitions_range(layout, offset, length, prefer):
    extents = layout.map_extent(offset, length, prefer=prefer)
    assert sum(e.length for e in extents) == length
    touched = {b // layout.strip_size for b in (offset, offset + length - 1)} if length else set()
    assert sum(e.n_strips for e in extents) == (max(touched) - min(touched) + 1 if touched else 0)
    pos = offset
    for e in extents:
        assert e.offset == pos
        assert e.length >= 1
        assert e.in_strip == e.offset - e.strip * layout.strip_size
        assert 0 <= e.in_strip < layout.strip_size
        assert (e.end - 1) // layout.strip_size == e.strip + e.n_strips - 1
        for strip in range(e.strip, e.strip + e.n_strips):
            holders = layout.replicas(strip)
            want = prefer if prefer in holders else holders[0]
            assert e.server == want
        pos = e.end
    assert pos == offset + length
    # Maximal runs: neighbours have different holders.
    assert all(a.server != b.server for a, b in zip(extents, extents[1:]))


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


def runs_of(strips):
    """Consecutive strips as inclusive ``(first, last)`` runs."""
    runs = []
    for s in strips:
        if runs and runs[-1][1] == s - 1:
            runs[-1] = (runs[-1][0], s)
        else:
            runs.append((s, s))
    return runs


@given(layout=layouts(), file_size=st.integers(0, 200_000))
@settings(max_examples=200)
def test_closed_form_inventories_match_the_definition(layout, file_size):
    """The concrete layouts compute their inventories arithmetically, as
    runs; the per-strip definition walks every strip's replica list.
    Same values, same order — for servers outside the layout too."""
    table = {s: [] for s in layout.servers}
    for strip in range(layout.n_strips(file_size)):
        for server in layout.replicas(strip):
            table[server].append(strip)
    assert layout.placement_table(file_size) == table
    for server in layout.servers + ["elsewhere"]:
        primary = [
            s for s in range(layout.n_strips(file_size)) if layout.primary_server(s) == server
        ]
        assert layout.primary_runs(server, file_size) == runs_of(primary)
        assert layout.local_runs(server, file_size) == runs_of(table.get(server, []))
        for first in range(0, layout.n_strips(file_size) + 2, 1 + file_size // 4096):
            held = sum(layout.holds(server, s) for s in range(first, first + 5))
            assert layout.local_count(server, first, first + 5) == held


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


@st.composite
def layout_pairs(draw):
    """Two layouts over the same servers and strip size (any kinds, D=1
    and halos of 0 and r included)."""
    servers, strip_size = draw(servers_st), draw(strip_size_st)

    def one():
        kind = draw(st.sampled_from(["rr", "grouped", "replicated"]))
        if kind == "rr":
            return RoundRobinLayout(servers, strip_size)
        group = draw(st.integers(min_value=1, max_value=6))
        if kind == "grouped":
            return GroupedLayout(servers, strip_size, group)
        halo = draw(st.sampled_from([0, group, draw(st.integers(0, group))]))
        return ReplicatedGroupedLayout(servers, strip_size, group, halo_strips=halo)

    return one(), one()


@given(pair=layout_pairs(), file_size=st.integers(0, 60_000))
@settings(max_examples=200, deadline=None)
def test_run_planning_matches_the_per_strip_definition(pair, file_size):
    """``storage_bytes``, ``plan_moves`` and ``planned_bytes`` work one
    run at a time; the per-strip definitions are the oracle (file sizes
    that leave a short last strip included)."""
    old, new = pair
    strips = range(old.n_strips(file_size))
    length = [old.strip_extent_bytes(s, file_size) for s in strips]
    for layout in pair:
        assert layout.storage_bytes(file_size) == sum(
            length[s] * len(layout.replicas(s)) for s in strips
        )
    moves = {}
    for s in strips:
        for dst in new.replicas(s):
            if dst not in old.replicas(s):
                moves.setdefault((old.primary_server(s), dst), []).append(s)
    meta = FileMeta("f", file_size, old)
    planned = plan_moves(meta, new)
    assert list(planned) == list(moves)  # same pairs, same order
    for pair_key, runs in planned.items():
        assert [s for a, b in runs for s in range(a, b + 1)] == moves[pair_key]
        assert all(a[1] + 1 < b[0] for a, b in zip(runs, runs[1:]))  # maximal
    assert planned_bytes(meta, new) == sum(
        length[s] for ss in moves.values() for s in ss
    )
