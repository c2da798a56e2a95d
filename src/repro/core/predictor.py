"""Bandwidth analysis and prediction (paper Section III-C).

Implements the paper's location equations and bandwidth-cost model:

* Eq. (1)–(2): ``strip(i) = i*E // strip_size``,
  ``location(i) = strip(i) mod D`` (round-robin);
* Eq. (3)–(5): per-element dependent-data cost
  ``bwcost = E * sum_j a_j`` with ``a_j = [location(d_j) != location(i)]``;
* Eq. (11)–(13) and (17): the divisibility criterion
  ``(stride * E) % (r * strip_size * D) == 0`` under which all dependent
  data is co-located and offloading moves nothing.

Three cost models are provided, because the paper's analytic criterion
and a real system's transfer behaviour differ in instructive ways:

* ``element`` — the paper's Eq. (5): counts, element by element, the
  dependencies that land on a different server, exactly (vectorised per
  strip, O(strips x offsets)).
* ``strip``  — what the evaluated NAS prototype actually moves:
  dependent data is requested at whole-strip granularity, so each
  processing run pulls its neighbour strips in full ("each strip was
  transferred multiple times among the storage nodes").
* ``exact``  — batched transfers of exactly the halo bytes each run
  needs (an idealised NAS; used for ablations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import KernelError
from ..kernels.pattern import DependencePattern
from ..obs.span import merge_intervals
from ..pfs.datafile import FileMeta
from ..pfs.layout import Layout

COST_MODELS = ("element", "strip", "exact")


# --------------------------------------------------------------------------
# The paper's location equations (standalone, for tests and teaching).
# --------------------------------------------------------------------------
def strip_of_element(i: int, element_size: int, strip_size: int) -> int:
    """Eq. (1): the strip holding element ``i``."""
    return (i * element_size) // strip_size


def location_round_robin(
    i: int, element_size: int, strip_size: int, n_servers: int
) -> int:
    """Eq. (2): the server index holding element ``i`` under round-robin."""
    return strip_of_element(i, element_size, strip_size) % n_servers


def location_grouped(
    i: int, element_size: int, strip_size: int, n_servers: int, group: int
) -> int:
    """Eq. (14): server index under the DAS grouped layout (r = group)."""
    return (i * element_size) // (group * strip_size) % n_servers


def dependence_is_local(
    stride: int,
    element_size: int,
    strip_size: int,
    n_servers: int,
    group: int = 1,
) -> bool:
    """Eq. (17) (and Eq. 11–13 for group=1): True iff a ±stride
    dependence never leaves its server under the given layout.

    The divisibility criterion holds when the stride displaces an
    element by a whole number of server rounds.
    """
    return (stride * element_size) % (group * strip_size * n_servers) == 0


# --------------------------------------------------------------------------
# Exact per-element accounting (Eq. 5 aggregated over a file).
# --------------------------------------------------------------------------
def cross_server_elements(
    layout: Layout, n_elements: int, element_size: int, offsets: np.ndarray
) -> int:
    """Count (element, offset) pairs whose dependent element lives on a
    different server — ``sum_i sum_j a_j`` of Eq. (5).

    Exact and vectorised per strip: within one strip, ``i + d`` spans at
    most two destination strips, so each (strip, offset) contributes two
    closed-form segments.
    """
    if element_size <= 0 or layout.strip_size % element_size != 0:
        raise KernelError(
            f"element size {element_size} must divide strip size"
            f" {layout.strip_size}"
        )
    spe = layout.strip_size // element_size  # elements per strip
    file_size = n_elements * element_size
    n_strips = layout.n_strips(file_size)
    if n_strips == 0:
        return 0
    servers = np.array(
        [layout.server_index(s) for s in range(n_strips)], dtype=np.int64
    )

    total = 0
    for d in np.asarray(offsets, dtype=np.int64):
        if d == 0:
            continue
        for s in range(n_strips):
            a = s * spe
            b = min((s + 1) * spe, n_elements)
            # Valid source elements: dependent index must stay in-file.
            lo = max(a, -d if d < 0 else 0)
            hi = min(b, n_elements - d if d > 0 else n_elements)
            if lo >= hi:
                continue
            # Destination strips for i in [lo, hi): floor((i+d)/spe).
            t_first = (lo + d) // spe
            t_last = (hi - 1 + d) // spe
            src_server = servers[s]
            for t in range(t_first, t_last + 1):
                seg_lo = max(lo, t * spe - d)
                seg_hi = min(hi, (t + 1) * spe - d)
                if seg_lo >= seg_hi:
                    continue
                if servers[t] != src_server:
                    total += seg_hi - seg_lo
    return int(total)


def element_movement_bytes(
    layout: Layout, n_elements: int, element_size: int, offsets: np.ndarray
) -> int:
    """Eq. (5) summed over the file: total dependent-data bytes that
    cross servers when every element is processed on its own server."""
    return element_size * cross_server_elements(
        layout, n_elements, element_size, offsets
    )


# --------------------------------------------------------------------------
# Run-level (batched) halo accounting — what offload execution moves.
# --------------------------------------------------------------------------
def run_halo_extents(
    layout: Layout,
    file_size: int,
    run: Tuple[int, int],
    offsets_bytes: np.ndarray,
) -> List[Tuple[int, int]]:
    """Byte ranges of dependent data around a strip run.

    Offset-accurate: each dependence offset ``d`` shifts the run's byte
    range by ``d``; the halo is the union of the shifted ranges minus
    the run itself, clamped to the file.  For dense stencils (the
    8-neighbour patterns) this coincides with the contiguous reach
    window; for sparse strides (paper Fig. 6) it charges only the two
    shifted windows, not everything in between.
    """
    first_strip, last_strip = run
    lo = first_strip * layout.strip_size
    hi = min((last_strip + 1) * layout.strip_size, file_size)
    intervals: List[Tuple[int, int]] = []
    for d in np.asarray(offsets_bytes, dtype=np.int64):
        if d == 0:
            continue
        a = max(0, lo + int(d))
        b = min(file_size, hi + int(d))
        if a >= b:
            continue
        # Remove the run's own range; a shifted window overlaps it on
        # one side only (|d| < run length) or not at all.
        if a < lo:
            intervals.append((a, min(b, lo)))
        if b > hi:
            intervals.append((max(a, hi), b))
    # Merge overlapping intervals (offsets of like sign overlap heavily).
    return [(a, b - a) for a, b in merge_intervals(intervals)]


def remote_halo_bytes(
    layout: Layout,
    file_size: int,
    server: str,
    run: Tuple[int, int],
    offsets_bytes: np.ndarray,
    granularity: str = "strip",
) -> int:
    """Bytes a server must pull from peers to process one strip run.

    ``granularity='strip'`` rounds each remote halo up to whole strips
    (the NAS prototype behaviour); ``'exact'`` counts only the bytes in
    the dependence reach.  Strips already held locally (DAS replicas)
    cost nothing either way.  A strip two halo extents touch (a run
    shorter than the reach) is pulled once, as the helper does.
    """
    total, pulled = 0, set()
    for offset, length in run_halo_extents(layout, file_size, run, offsets_bytes):
        first = offset // layout.strip_size
        last = (offset + length - 1) // layout.strip_size
        for strip in range(first, last + 1):
            if layout.holds(server, strip) or strip in pulled:
                continue
            if granularity == "strip":
                pulled.add(strip)
                total += layout.strip_extent_bytes(strip, file_size)
            else:
                s_lo = strip * layout.strip_size
                s_hi = s_lo + layout.strip_extent_bytes(strip, file_size)
                total += min(offset + length, s_hi) - max(offset, s_lo)
    return total


def offload_interserver_bytes(
    layout: Layout,
    meta: FileMeta,
    pattern: DependencePattern,
    granularity: str = "strip",
) -> int:
    """Total server-to-server dependent-data traffic for one offloaded
    pass over the whole file under ``layout``.

    By period (:attr:`Layout.period`), exactly: an interior run (its halo
    clear of the first period and of the file's end) costs what its
    (server, phase, length) class costs; edge runs are costed directly."""
    if pattern.is_independent:
        return 0
    width = meta.width if any(t.width_coef for t in pattern.terms) else 1
    offsets_bytes = pattern.offsets(width) * meta.element_size
    period, size, strip = layout.period, meta.size, layout.strip_size
    # Strips a run's halo reaches before its first and after its last strip.
    before = max(0, -(int(offsets_bytes.min()) // strip))
    after = max(0, -(-int(offsets_bytes.max()) // strip))
    interior_end = size // strip - after
    costs = {}  # class -> bytes; an edge run is a class of its own
    total = 0
    for server in layout.servers:
        for run in layout.primary_runs(server, size):
            first, last = run
            interior = first - before >= period and last < interior_end
            key = (server, first % period, last - first) if interior else run
            if key not in costs:
                costs[key] = remote_halo_bytes(
                    layout, size, server, run, offsets_bytes, granularity
                )
            total += costs[key]
    return total


def replication_bytes(layout: Layout, file_size: int) -> int:
    """Bytes of replica copies the layout stores beyond one copy of the
    file — the traffic needed to maintain replicas of a same-size output."""
    return layout.storage_bytes(file_size) - file_size


@dataclass(frozen=True)
class BandwidthPrediction:
    """Predicted byte movement for serving one operation each way."""

    #: File and operator this prediction is for.
    file: str
    operator: str
    #: Client <-> storage traffic if served as normal I/O (read input +
    #: write same-size output through the PFS client).
    normal_bytes: int
    #: Server <-> server dependent-data traffic if offloaded in place.
    offload_halo_bytes: int
    #: Server <-> server traffic to maintain output replicas (DAS layouts).
    offload_replication_bytes: int
    #: Cost model used for the halo term.
    model: str

    @property
    def offload_bytes(self) -> int:
        return self.offload_halo_bytes + self.offload_replication_bytes

    @property
    def offload_beneficial(self) -> bool:
        """The paper's acceptance test: offload iff it moves less."""
        return self.offload_bytes < self.normal_bytes


class BandwidthPredictor:
    """The DAS client's embedded "bandwidth prediction core"."""

    def __init__(self, model: str = "strip"):
        if model not in COST_MODELS:
            raise KernelError(f"unknown cost model {model!r}; pick from {COST_MODELS}")
        self.model = model

    def halo_bytes(
        self, layout: Layout, meta: FileMeta, pattern: DependencePattern
    ) -> int:
        if self.model == "element":
            width = meta.width if any(t.width_coef for t in pattern.terms) else 1
            return element_movement_bytes(
                layout, meta.n_elements, meta.element_size, pattern.offsets(width)
            )
        return offload_interserver_bytes(layout, meta, pattern, self.model)

    def predict(
        self,
        meta: FileMeta,
        pattern: DependencePattern,
        layout: Optional[Layout] = None,
        output_replicated: bool = True,
        normal_write_back: bool = False,
    ) -> BandwidthPrediction:
        """Predict byte movement for one operation over ``meta``.

        ``layout`` defaults to the file's current layout; pass a
        candidate layout to evaluate a planned redistribution.
        ``output_replicated`` charges replica maintenance for the
        same-size output when the layout keeps replicas.
        ``normal_write_back`` charges the normal-I/O path for writing
        the output back through the clients (off by default: the
        client-side baseline consumes results in place).
        """
        layout = layout or meta.layout
        halo = self.halo_bytes(layout, meta, pattern)
        repl = replication_bytes(layout, meta.size) if output_replicated else 0
        normal = meta.size * (2 if normal_write_back else 1)
        return BandwidthPrediction(
            file=meta.name,
            operator=pattern.name,
            normal_bytes=normal,
            offload_halo_bytes=halo,
            offload_replication_bytes=repl,
            model=self.model,
        )
