"""Striping layouts: how a logical file maps onto storage servers.

A file in the parallel file system is a one-dimensional byte array cut
into fixed-size *strips* (the paper follows PVFS2's 64 KB default).  A
:class:`Layout` answers, for any byte range, which strips it spans and
which server holds each strip — the paper's Eqs. (1)–(4) for the
round-robin default and Eqs. (14)–(16) for the DAS grouped layout.

Three concrete layouts:

* :class:`RoundRobinLayout` — strip ``i`` on server ``i mod D``
  (the default of most parallel file systems, Fig. 5 of the paper).
* :class:`GroupedLayout` — ``r`` successive strips per server,
  group ``g = i // r`` on server ``g mod D`` (Fig. 7).
* :class:`ReplicatedGroupedLayout` (in :mod:`repro.pfs.replicated`) —
  grouped plus boundary-strip replication (Fig. 9).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..errors import LayoutError
from ..obs.span import merge_intervals


class StripExtent:
    """One contiguous piece of a byte range held by one server: a run of
    ``n_strips`` strips from ``strip``, starting ``in_strip`` bytes into
    it at absolute file ``offset``.  The wire charges one extent
    descriptor per strip.  Plain ``__slots__`` record: hot path."""

    __slots__ = ("strip", "server", "offset", "length", "in_strip", "n_strips")

    def __init__(
        self, strip: int, server: str, offset: int, length: int, in_strip: int, n_strips: int
    ):
        self.strip = strip
        self.server = server
        self.offset = offset
        self.length = length
        self.in_strip = in_strip
        self.n_strips = n_strips

    @property
    def end(self) -> int:
        return self.offset + self.length


class Layout(ABC):
    """Maps byte offsets to strips and strips to servers."""

    def __init__(self, servers: Sequence[str], strip_size: int):
        if not servers:
            raise LayoutError("layout needs at least one server")
        if len(set(servers)) != len(servers):
            raise LayoutError("duplicate server names in layout")
        if strip_size <= 0:
            raise LayoutError(f"strip size must be positive, got {strip_size!r}")
        self.servers: List[str] = list(servers)
        self.strip_size = int(strip_size)

    # -- core mapping (subclasses implement placement) ----------------------
    @property
    @abstractmethod
    def period(self) -> int:
        """Strips after which placement repeats: ``replicas(s + period)
        == replicas(s)`` for every ``s >= period``."""

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    def strip_of(self, offset: int) -> int:
        """Strip index containing byte ``offset`` — Eq. (1) with E folded in."""
        if offset < 0:
            raise LayoutError(f"negative file offset {offset!r}")
        return offset // self.strip_size

    def n_strips(self, file_size: int) -> int:
        return -(-file_size // self.strip_size) if file_size > 0 else 0

    @abstractmethod
    def server_index(self, strip: int) -> int:
        """Index (0..D-1) of the *primary* server for ``strip``."""

    def placement_end(self, strip: int) -> int:
        """First strip after ``strip`` whose :meth:`replicas` may differ."""
        return strip + 1

    def primary_server(self, strip: int) -> str:
        return self.servers[self.server_index(strip)]

    def replicas(self, strip: int) -> List[str]:
        """All servers holding ``strip`` (primary first)."""
        return [self.primary_server(strip)]

    def holds(self, server: str, strip: int) -> bool:
        return server in self.replicas(strip)

    # -- byte-range mapping ------------------------------------------------------
    def segments(self, offset: int, length: int) -> Iterator[Tuple[int, int, int]]:
        """Split ``[offset, offset+length)`` into ``(strip, lo, hi)`` pieces
        whose strips all share ``replicas(strip)``."""
        if offset < 0 or length < 0:
            raise LayoutError(f"invalid extent ({offset!r}, {length!r})")
        pos, end = offset, offset + length
        while pos < end:
            strip = pos // self.strip_size
            hi = min(end, self.placement_end(strip) * self.strip_size)
            yield strip, pos, hi
            pos = hi

    def map_extent(self, offset: int, length: int, prefer: str | None = None) -> List[StripExtent]:
        """Split ``[offset, offset+length)`` into one extent per maximal
        run of strips with the same holder.

        When ``prefer`` names a server, a replica on that server is
        chosen where one exists (used by local reads of replicated
        boundary strips); otherwise the primary is used.
        """
        size = self.strip_size
        extents: List[StripExtent] = []
        for strip, lo, hi in self.segments(offset, length):
            server = self.primary_server(strip)
            if prefer is not None and prefer != server and self.holds(prefer, strip):
                server = prefer
            count = (hi - 1) // size - strip + 1
            if extents and extents[-1].server == server:
                extents[-1].length += hi - lo
                extents[-1].n_strips += count
            else:
                in_strip = lo - strip * size
                extents.append(StripExtent(strip, server, lo, hi - lo, in_strip, count))
        return extents

    # -- per-server inventories (closed form, as runs) -------------------------
    @abstractmethod
    def primary_runs(self, server: str, file_size: int) -> List[Tuple[int, int]]:
        """Maximal runs ``(first, last)`` of consecutive primary strips on
        ``server`` — the natural processing unit for offloaded kernels."""

    def local_runs(self, server: str, file_size: int) -> List[Tuple[int, int]]:
        """Maximal runs ``(first, last)`` of strips present on ``server``
        (primary or replica) — one stored buffer each at ingest."""
        return self.primary_runs(server, file_size)

    def local_count(self, server: str, first: int, end: int) -> int:
        """How many strips of ``[first, end)`` are present on ``server``."""
        runs = self.local_runs(server, end * self.strip_size)
        return sum(max(0, min(last + 1, end) - max(lo, first)) for lo, last in runs)

    def strip_extent_bytes(self, strip: int, file_size: int) -> int:
        """Actual byte length of ``strip`` (the last strip may be short)."""
        return max(0, self.run_bytes(strip, strip, file_size))

    def run_bytes(self, first: int, last: int, file_size: int) -> int:
        """Byte length of strips ``first..last`` (the last strip may be short)."""
        return min((last + 1) * self.strip_size, file_size) - first * self.strip_size

    def placement_table(self, file_size: int) -> Dict[str, List[int]]:
        """``{server: [strips]}`` for every strip of a file (replicas included)."""
        runs = {server: self.local_runs(server, file_size) for server in self.servers}
        return {k: [s for a, b in v for s in range(a, b + 1)] for k, v in runs.items()}

    def storage_bytes(self, file_size: int) -> int:
        """Total bytes stored across all servers, replication included:
        one term per stored run."""
        return sum(
            self.run_bytes(first, last, file_size)
            for server in self.servers
            for first, last in self.local_runs(server, file_size)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shape = [f"{k}={v}" for k, v in vars(self).items() if k in ("group", "halo_strips")]
        name = " ".join([type(self).__name__, f"D={self.n_servers}", *shape])
        return f"<{name} strip_size={self.strip_size}>"


class RoundRobinLayout(Layout):
    """Strip ``i`` lives on server ``i mod D`` — Eq. (2) of the paper."""

    def server_index(self, strip: int) -> int:
        if strip < 0:
            raise LayoutError(f"negative strip index {strip!r}")
        return strip % len(self.servers)

    @property
    def period(self) -> int:
        return len(self.servers)

    def primary_runs(self, server: str, file_size: int) -> List[Tuple[int, int]]:
        """Closed form of the inventory: strips ``i, i+D, i+2D, ...``."""
        if server not in self.servers:
            return []
        i, d = self.servers.index(server), self.n_servers
        return merged_runs((s, s + 1) for s in range(i, self.n_strips(file_size), d))

    def local_count(self, server: str, first: int, end: int) -> int:
        if server not in self.servers:
            return 0
        i, d = self.servers.index(server), len(self.servers)
        return len(range(first + (i - first) % d, end, d))

    def storage_bytes(self, file_size: int) -> int:
        return max(file_size, 0)  # one copy of every strip


class GroupedLayout(Layout):
    """``r`` successive strips per server: strip ``i`` lives on server
    ``(i // r) mod D`` — the placement of Eqs. (14)–(16) without
    replication."""

    def __init__(self, servers: Sequence[str], strip_size: int, group: int):
        super().__init__(servers, strip_size)
        if group <= 0:
            raise LayoutError(f"group factor r must be positive, got {group!r}")
        self.group = int(group)

    def server_index(self, strip: int) -> int:
        if strip < 0:
            raise LayoutError(f"negative strip index {strip!r}")
        return (strip // self.group) % len(self.servers)

    def placement_end(self, strip: int) -> int:
        return (strip // self.group + 1) * self.group

    @property
    def period(self) -> int:
        """``r * D``, replicated or not (only group 0's head differs)."""
        return self.group * len(self.servers)

    def primary_runs(self, server: str, file_size: int, halo: int = 0) -> List[Tuple[int, int]]:
        """Closed form of the inventory: every D-th group of ``r`` strips,
        widened by ``halo`` strips on both sides (and one group past the
        end of the file considered) when ``halo`` is set."""
        if server not in self.servers:
            return []
        n, r, d = self.n_strips(file_size), self.group, self.n_servers
        groups = range(self.servers.index(server), -(-n // r) + bool(halo), d)
        return merged_runs((max(g * r - halo, 0), min(g * r + r + halo, n)) for g in groups)


def merged_runs(spans: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Half-open ``(lo, hi)`` strip spans as maximal inclusive runs ``(first, last)``."""
    return [(lo, hi - 1) for lo, hi in merge_intervals(spans) if hi > lo]
