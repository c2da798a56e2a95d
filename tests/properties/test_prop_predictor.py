"""Property-based tests for the bandwidth model.

* The vectorised Eq. (5) accounting equals a brute-force oracle for
  arbitrary layouts, file sizes and offset sets.
* The paper's Eq. (17) divisibility criterion is *sound*: whenever it
  holds, the exact per-element count of cross-server dependencies for
  that stride is zero.
* Model ordering: strip-granular transfers never move fewer bytes than
  exact transfers; a replicated layout never moves more than its
  unreplicated counterpart.
* Period evaluation is exact: ``offload_interserver_bytes`` (one
  evaluation per interior run class) equals the per-run loop it
  replaced, for both granularities.
* Model against system: the predicted halo of a generated NAS run is
  the ``as.halo_bytes_remote`` the simulator moved.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    cross_server_elements,
    dependence_is_local,
    offload_interserver_bytes,
    remote_halo_bytes,
)
from repro.hw import Cluster
from repro.kernels import DependencePattern
from repro.kernels.pattern import OffsetTerm
from repro.pfs import (
    GroupedLayout,
    ParallelFileSystem,
    ReplicatedGroupedLayout,
    RoundRobinLayout,
)
from repro.pfs.datafile import FileMeta
from repro.schemes import SCHEMES
from repro.workloads import fractal_dem

E = 8


def brute_force(layout, n_elements, offsets):
    total = 0
    for i in range(n_elements):
        src = layout.server_index((i * E) // layout.strip_size)
        for d in offsets:
            j = i + d
            if 0 <= j < n_elements and layout.server_index(
                (j * E) // layout.strip_size
            ) != src:
                total += 1
    return total


@st.composite
def small_layouts(draw):
    n_servers = draw(st.integers(1, 5))
    servers = [f"s{i}" for i in range(n_servers)]
    spe = draw(st.sampled_from([2, 4, 8]))  # elements per strip
    strip = spe * E
    if draw(st.booleans()):
        return RoundRobinLayout(servers, strip)
    return GroupedLayout(servers, strip, draw(st.integers(1, 4)))


@given(
    layout=small_layouts(),
    n_elements=st.integers(1, 300),
    offsets=st.lists(st.integers(-40, 40), min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_cross_server_elements_matches_brute_force(layout, n_elements, offsets):
    got = cross_server_elements(layout, n_elements, E, np.array(offsets))
    assert got == brute_force(layout, n_elements, offsets)


@given(
    n_servers=st.integers(1, 6),
    spe=st.sampled_from([2, 4, 8]),
    group=st.integers(1, 4),
    rounds=st.integers(1, 5),
    n_elements=st.integers(10, 400),
)
@settings(max_examples=100, deadline=None)
def test_eq17_criterion_soundness(n_servers, spe, group, rounds, n_elements):
    """A stride of whole server rounds is free under the grouped layout."""
    servers = [f"s{i}" for i in range(n_servers)]
    strip = spe * E
    stride = rounds * group * spe * n_servers
    assert dependence_is_local(stride, E, strip, n_servers, group)
    layout = GroupedLayout(servers, strip, group)
    assert (
        cross_server_elements(layout, n_elements, E, np.array([-stride, stride])) == 0
    )


@given(
    n_servers=st.integers(2, 6),
    spe=st.sampled_from([4, 8]),
    stride_strips=st.integers(1, 10),
    n_strips=st.integers(4, 60),
)
@settings(max_examples=100, deadline=None)
def test_eq17_criterion_completeness_for_strip_aligned_strides(
    n_servers, spe, stride_strips, n_strips
):
    """For strip-aligned strides the criterion is exact: it holds iff
    no dependency crosses servers (when the file is long enough for the
    stride to matter)."""
    servers = [f"s{i}" for i in range(n_servers)]
    strip = spe * E
    stride = stride_strips * spe
    layout = RoundRobinLayout(servers, strip)
    n_elements = n_strips * spe
    crossings = cross_server_elements(layout, n_elements, E, np.array([stride]))
    local = dependence_is_local(stride, E, strip, n_servers)
    if stride < n_elements:
        assert local == (crossings == 0)


@given(
    n_servers=st.integers(1, 5),
    spe=st.sampled_from([4, 8]),
    group=st.integers(1, 4),
    halo=st.integers(0, 4),
    n_strips=st.integers(2, 40),
    width=st.sampled_from([2, 4]),
)
@settings(max_examples=100, deadline=None)
def test_strip_model_dominates_exact_model(n_servers, spe, group, halo, n_strips, width):
    servers = [f"s{i}" for i in range(n_servers)]
    strip = spe * E
    halo = min(halo, group)
    layout = ReplicatedGroupedLayout(servers, strip, group, halo_strips=halo)
    size = n_strips * strip
    n_elements = size // E
    if n_elements % width:
        return
    meta = FileMeta("f", size=size, layout=layout, shape=(n_elements // width, width))
    pattern = DependencePattern.eight_neighbor("op")
    strip_cost = offload_interserver_bytes(layout, meta, pattern, "strip")
    exact_cost = offload_interserver_bytes(layout, meta, pattern, "exact")
    assert strip_cost >= exact_cost >= 0


@given(
    n_servers=st.integers(1, 5),
    spe=st.sampled_from([4, 8]),
    group=st.integers(1, 4),
    n_strips=st.integers(2, 40),
    width=st.sampled_from([2, 4]),
)
@settings(max_examples=100, deadline=None)
def test_replication_never_increases_halo_traffic(n_servers, spe, group, n_strips, width):
    servers = [f"s{i}" for i in range(n_servers)]
    strip = spe * E
    size = n_strips * strip
    n_elements = size // E
    if n_elements % width:
        return
    plain = GroupedLayout(servers, strip, group)
    replicated = ReplicatedGroupedLayout(servers, strip, group, halo_strips=min(1, group))
    pattern = DependencePattern.eight_neighbor("op")
    meta_plain = FileMeta(
        "f", size=size, layout=plain, shape=(n_elements // width, width)
    )
    meta_repl = FileMeta(
        "f", size=size, layout=replicated, shape=(n_elements // width, width)
    )
    assert offload_interserver_bytes(
        replicated, meta_repl, pattern, "strip"
    ) <= offload_interserver_bytes(plain, meta_plain, pattern, "strip")


# -- period evaluation == the per-run loop ------------------------------------
def per_run_oracle(layout, meta, pattern, granularity):
    """What ``offload_interserver_bytes`` computed before it evaluated by
    period: every primary run of every server, directly."""
    width = meta.width if any(t.width_coef for t in pattern.terms) else 1
    offsets = pattern.offsets(width) * meta.element_size
    return sum(
        remote_halo_bytes(layout, meta.size, server, run, offsets, granularity)
        for server in layout.servers
        for run in layout.primary_runs(server, meta.size)
    )


@st.composite
def periodic_layouts(draw, max_servers=4, max_group=4):
    servers = [f"s{i}" for i in range(draw(st.integers(1, max_servers)))]
    strip = draw(st.sampled_from([2, 4, 8])) * E
    kind = draw(st.sampled_from(["rr", "grouped", "replicated"]))
    if kind == "rr":
        return RoundRobinLayout(servers, strip)
    group = draw(st.integers(1, max_group))
    if kind == "grouped":
        return GroupedLayout(servers, strip, group)
    halo = draw(st.integers(0, group))
    return ReplicatedGroupedLayout(servers, strip, group, halo_strips=halo)


@st.composite
def offset_patterns(draw, strip_elements, period):
    kind = draw(st.sampled_from(["dense", "sparse", "width"]))
    if kind == "dense":
        reach = draw(st.integers(0, 2 * strip_elements))
        return DependencePattern.from_offsets("op", range(-reach, reach + 1))
    if kind == "sparse":
        stride = draw(st.integers(1, 3 * period * strip_elements))
        return DependencePattern.stride("op", stride)
    terms = draw(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-3, 3)), min_size=1, max_size=6
        )
    )
    return DependencePattern("op", [OffsetTerm(wc, c) for wc, c in terms])


@st.composite
def periodic_cases(draw):
    """A layout, a raster from shorter than two periods to several
    periods long (short last strips and partial last groups included)
    and a dense, sparse-stride or width-term pattern."""
    layout = draw(periodic_layouts())
    spe = layout.strip_size // E
    width = draw(st.integers(1, 3 * spe))
    rows = draw(st.integers(1, max(1, (7 * layout.period * spe) // width)))
    meta = FileMeta("f", size=rows * width * E, layout=layout, shape=(rows, width))
    return layout, meta, draw(offset_patterns(spe, layout.period))


@given(case=periodic_cases(), granularity=st.sampled_from(["strip", "exact"]))
@settings(max_examples=300, deadline=None)
def test_offload_bytes_by_period_equal_the_per_run_loop(case, granularity):
    layout, meta, pattern = case
    assert offload_interserver_bytes(
        layout, meta, pattern, granularity
    ) == per_run_oracle(layout, meta, pattern, granularity)


@given(
    n_servers=st.integers(2, 4),
    spe=st.sampled_from([16, 32]),
    width=st.integers(8, 24),
    rows=st.integers(4, 20),
    kernel=st.sampled_from(["gaussian", "flow-routing"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=8, deadline=None)
# A 4-element last strip under a 14-element reach: both halo extents of
# that run touch strip 2, which the helper pulls once (the predictor
# used to charge it twice: 800 predicted against 672 moved).
@example(n_servers=2, spe=16, width=13, rows=4, kernel="gaussian", seed=0)
def test_predicted_nas_halo_is_the_measured_halo(n_servers, spe, width, rows, kernel, seed):
    """On a generated NAS run, the predictor's ``offload_halo_bytes`` is
    exactly the ``as.halo_bytes_remote`` the simulator moved."""
    cluster = Cluster.build(n_compute=1, n_storage=n_servers)
    pfs = ParallelFileSystem(cluster, strip_size=spe * E)
    dem = fractal_dem(rows, width, rng=np.random.default_rng(seed))
    pfs.client("c0").ingest("input", dem, pfs.round_robin())
    result = cluster.run(until=SCHEMES["NAS"](pfs).run_operation(kernel, "input", "output"))
    measured = cluster.monitors.counter("as.halo_bytes_remote").value
    assert result.decision.prediction_current.offload_halo_bytes == measured
