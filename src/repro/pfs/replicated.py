"""The DAS improved data distribution (paper Section III-D, Fig. 9).

``r`` successive strips are grouped on one server; additionally the
first ``halo_strips`` strips of each group are replicated onto the
server holding the *previous* group, and the last ``halo_strips``
strips onto the server holding the *next* group.  With a dependence
reach of at most ``halo_strips`` strips, every server can then process
all of its primary strips from purely local data — no inter-server
transfer during the offloaded computation.

Storage overhead is ``2 * halo_strips / r`` of the file size (the
paper's "reduced to 2/r" with the implicit one-strip halo).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import LayoutError
from .layout import GroupedLayout


class ReplicatedGroupedLayout(GroupedLayout):
    """Grouped layout plus boundary-strip replication onto neighbours."""

    def __init__(
        self,
        servers: Sequence[str],
        strip_size: int,
        group: int,
        halo_strips: int = 1,
    ):
        super().__init__(servers, strip_size, group)
        if halo_strips < 0:
            raise LayoutError(f"halo_strips must be >= 0, got {halo_strips!r}")
        if halo_strips > group:
            raise LayoutError(
                f"halo_strips ({halo_strips}) cannot exceed the group factor"
                f" ({group}); dependent data would span whole groups"
            )
        self.halo_strips = int(halo_strips)

    def replicas(self, strip: int) -> List[str]:
        """Primary server first, then the neighbour(s) replicating it."""
        primary = self.primary_server(strip)
        out = [primary]
        if self.halo_strips == 0:
            return out
        pos_in_group = strip % self.group
        group = strip // self.group
        # Head of a group -> replicated on the previous group's server.
        if pos_in_group < self.halo_strips and group > 0:
            prev_server = self.servers[(group - 1) % self.n_servers]
            if prev_server not in out:
                out.append(prev_server)
        # Tail of a group -> replicated on the next group's server.
        if pos_in_group >= self.group - self.halo_strips:
            next_server = self.servers[(group + 1) % self.n_servers]
            if next_server not in out:
                out.append(next_server)
        return out

    def placement_end(self, strip: int) -> int:
        """Groups split at the replicated head and tail."""
        start = strip - strip % self.group
        cuts = (self.halo_strips, self.group - self.halo_strips, self.group)
        return min(start + c for c in cuts if start + c > strip)

    def local_runs(self, server: str, file_size: int) -> List[Tuple[int, int]]:
        """Each primary group widened by the neighbours' replicated tail
        and head — and one group past the end: the last group's tail lands
        on the next server even when that server has no group there."""
        return self.primary_runs(server, file_size, halo=self.halo_strips)

    def capacity_overhead(self) -> float:
        """Fractional extra storage vs. an unreplicated layout (≈ 2h/r)."""
        return 2.0 * self.halo_strips / self.group
