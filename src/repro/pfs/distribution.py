"""Redistribution engine: move a file between striping layouts.

DAS "calculates an appropriate data distribution method ... and
arranges the data to minimize data movement among storage servers"
(paper Section III-A, workflow step 4 "Reconfig Parallel File System").
This component executes that reconfiguration: given a file and a target
layout, it ships every run of strips that needs a new holder from a
current holder to the new one (disk read, wire transfer, disk write),
drops copies that are no longer wanted, and updates the metadata record.

Transfers are batched per (source, destination) server pair so the cost
is dominated by bytes, not message count, and all pair-flows run
concurrently — the fabric and NIC models serialise them where they
genuinely contend.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import PFSError
from ..hw.cluster import Cluster
from .dataserver import DataServer, ReadPiece, request_wire_size
from .layout import Layout
from .metadata import MetadataService

#: Transport tag for redistribution traffic (accounted separately).
TAG_REDIST = "redist"


def plan_moves(meta, new_layout: Layout) -> Dict[Tuple[str, str], List[Tuple[int, int]]]:
    """``{(src, dst): [(first, last)]}``: the runs of strips to ship to
    move ``meta``'s file from its current layout to ``new_layout``.

    A strip is shipped to each new holder that lacks it, from its
    current primary; strips whose holder set is unchanged move nothing.
    Pure function of the two layouts — usable by the decision engine
    before any redistribution is committed.
    """
    old = _source_layout(meta, new_layout)
    moves: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    strip, n = 0, old.n_strips(meta.size)
    while strip < n:
        stop = min(n, old.placement_end(strip), new_layout.placement_end(strip))
        held = old.replicas(strip)
        for dst in new_layout.replicas(strip):
            if dst not in held:
                runs = moves.setdefault((held[0], dst), [])
                if runs and runs[-1][1] == strip - 1:
                    runs[-1] = (runs[-1][0], stop - 1)
                else:
                    runs.append((strip, stop - 1))
        strip = stop
    return moves


def planned_bytes(meta, new_layout: Layout) -> int:
    """Total bytes :func:`plan_moves` would put on the wire: per run
    the new holder stores, its bytes less those it holds already."""
    old, size = _source_layout(meta, new_layout), meta.size
    n, strip = old.n_strips(size), old.strip_size
    total = 0
    for dst in new_layout.servers:
        for first, last in new_layout.local_runs(dst, size):
            fresh = last + 1 - first - old.local_count(dst, first, last + 1)
            total += fresh * strip
            if last == n - 1 and not old.holds(dst, last):
                total -= n * strip - size  # the short last strip
    return total


def _source_layout(meta, new_layout: Layout) -> Layout:
    if new_layout.strip_size != meta.layout.strip_size:
        raise PFSError(
            "redistribution cannot change the strip size"
            f" ({meta.layout.strip_size} -> {new_layout.strip_size})"
        )
    return meta.layout


class Redistributor:
    """Executes layout changes for files already resident in the PFS."""

    def __init__(
        self,
        cluster: Cluster,
        metadata: MetadataService,
        servers: Dict[str, DataServer],
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.transport = cluster.transport
        self.metadata = metadata
        self.servers = servers
        self.monitors = cluster.monitors

    def redistribute(self, name: str, new_layout: Layout):
        """Process: perform the layout change; value is bytes moved."""
        return self.env.process(
            self._redistribute(name, new_layout), name=f"redistribute:{name}"
        )

    def _redistribute(self, name: str, new_layout: Layout):
        meta = self.metadata.lookup(name)
        old_layout = meta.layout
        moves = plan_moves(meta, new_layout)

        flows = [
            self.env.process(
                self._flow(name, src, dst, strips), name=f"redist:{src}->{dst}"
            )
            for (src, dst), strips in moves.items()
        ]
        moved = 0
        for flow in flows:
            moved += yield flow

        # Drop copies the new layout no longer wants; join what was lent.
        for server in dict.fromkeys(old_layout.servers + new_layout.servers):
            self.servers[server].retain(name, new_layout.local_runs(server, meta.size))

        self.metadata.set_layout(name, new_layout)
        self.monitors.counter("pfs.redistribute_bytes").add(moved)
        return moved

    def _flow(self, name: str, src: str, dst: str, runs: List[Tuple[int, int]]):
        """Ship ``runs`` of strips from ``src`` to ``dst``: disk read, wire
        and disk write are charged by size (one extent descriptor per
        strip), while the new holder adopts the source's buffers, lent
        read-only, instead of copying them."""
        meta = self.metadata.lookup(name)
        reads = [ReadPiece(f, 0, meta.layout.run_bytes(f, l, meta.size)) for f, l in runs]
        pieces = yield self.servers[src].read_pieces(name, reads, lend=True)
        total = sum(p.length for p in pieces)
        if src != dst:
            n_strips = sum(last - first + 1 for first, last in runs)
            yield self.transport.send(
                src, dst, total + request_wire_size(n_strips), None, tag=TAG_REDIST
            )
        yield self.servers[dst].write_pieces(name, pieces, adopt=True)
        return total
