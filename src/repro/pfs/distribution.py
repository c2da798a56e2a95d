"""Redistribution engine: move a file between striping layouts.

DAS "calculates an appropriate data distribution method ... and
arranges the data to minimize data movement among storage servers"
(paper Section III-A, workflow step 4 "Reconfig Parallel File System").
This component executes that reconfiguration: given a file and a target
layout, it ships every strip that needs a new holder from a current
holder to the new one (disk read, wire transfer, disk write), drops
copies that are no longer wanted, and updates the metadata record.

Transfers are batched per (source, destination) server pair so the cost
is dominated by bytes, not message count, and all pair-flows run
concurrently — the fabric and NIC models serialise them where they
genuinely contend.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import PFSError
from ..hw.cluster import Cluster
from .dataserver import DataServer, WritePiece, request_wire_size
from .layout import Layout
from .metadata import MetadataService

#: Transport tag for redistribution traffic (accounted separately).
TAG_REDIST = "redist"


def plan_moves(meta, new_layout: Layout) -> Dict[Tuple[str, str], List[int]]:
    """``{(src, dst): [strips]}`` transfers required to move ``meta``'s
    file from its current layout to ``new_layout``.

    A strip is shipped to each new holder that lacks it, from its
    current primary; strips whose holder set is unchanged move nothing.
    Pure function of the two layouts — usable by the decision engine
    before any redistribution is committed.
    """
    old = meta.layout
    if new_layout.strip_size != old.strip_size:
        raise PFSError(
            "redistribution cannot change the strip size"
            f" ({old.strip_size} -> {new_layout.strip_size})"
        )
    moves: Dict[Tuple[str, str], List[int]] = {}
    for strip in range(old.n_strips(meta.size)):
        src = old.primary_server(strip)
        current = set(old.replicas(strip))
        for dst in new_layout.replicas(strip):
            if dst not in current:
                moves.setdefault((src, dst), []).append(strip)
    return moves


def planned_bytes(meta, new_layout: Layout) -> int:
    """Total bytes :func:`plan_moves` would put on the wire."""
    return sum(
        meta.layout.strip_extent_bytes(strip, meta.size)
        for strips in plan_moves(meta, new_layout).values()
        for strip in strips
    )


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

        # Drop copies the new layout no longer wants.
        for server in old_layout.servers:
            store = self.servers[server]
            wanted = set(new_layout.local_strips(server, meta.size))
            for strip in old_layout.local_strips(server, meta.size):
                if strip not in wanted:
                    store.drop_strip(name, strip)

        self.metadata.set_layout(name, new_layout)
        self.monitors.counter("pfs.redistribute_bytes").add(moved)
        return moved

    def _flow(self, name: str, src: str, dst: str, strips: List[int]):
        """Ship ``strips`` from ``src`` to ``dst``: disk read, wire and
        disk write are charged by size, while the new holder adopts the
        source's arrays, lent read-only, instead of copying them."""
        arrays = yield self.servers[src].lend_strips(name, strips)
        total = sum(a.nbytes for a in arrays)
        if src != dst:
            yield self.transport.send(
                src, dst, total + request_wire_size(len(strips)), None, tag=TAG_REDIST
            )
        yield self.servers[dst].write_pieces(
            name, [WritePiece(s, 0, a) for s, a in zip(strips, arrays)], adopt=True
        )
        return total
