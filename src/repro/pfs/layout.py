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
from typing import Dict, List, Sequence, Tuple

from ..errors import LayoutError


class StripExtent:
    """One contiguous piece of a byte range, confined to a single strip.

    ``offset`` is the absolute file offset of the piece; ``in_strip``
    is the piece's offset within the strip on the holding server.

    Plain ``__slots__`` record (one per strip crossing per mapped byte
    range — hot on the data path); use :meth:`rehomed` where
    ``dataclasses.replace`` would have been used.
    """

    __slots__ = ("strip", "server", "offset", "length", "in_strip")

    def __init__(self, strip: int, server: str, offset: int, length: int, in_strip: int):
        self.strip = strip
        self.server = server
        self.offset = offset
        self.length = length
        self.in_strip = in_strip

    @property
    def end(self) -> int:
        return self.offset + self.length

    def rehomed(self, server: str) -> "StripExtent":
        """A copy of this extent held by a different server."""
        return StripExtent(self.strip, server, self.offset, self.length, self.in_strip)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StripExtent(strip={self.strip}, server={self.server!r},"
            f" offset={self.offset}, length={self.length}, in_strip={self.in_strip})"
        )


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

    def primary_server(self, strip: int) -> str:
        return self.servers[self.server_index(strip)]

    def replicas(self, strip: int) -> List[str]:
        """All servers holding ``strip`` (primary first)."""
        return [self.primary_server(strip)]

    def holds(self, server: str, strip: int) -> bool:
        return server in self.replicas(strip)

    # -- byte-range mapping ------------------------------------------------------
    def map_extent(self, offset: int, length: int, prefer: str | None = None) -> List[StripExtent]:
        """Split ``[offset, offset+length)`` into per-strip extents.

        When ``prefer`` names a server, a replica on that server is
        chosen where one exists (used by local reads of replicated
        boundary strips); otherwise the primary is used.
        """
        if offset < 0 or length < 0:
            raise LayoutError(f"invalid extent ({offset!r}, {length!r})")
        extents: List[StripExtent] = []
        pos = offset
        end = offset + length
        while pos < end:
            strip = pos // self.strip_size
            strip_end = (strip + 1) * self.strip_size
            piece = min(end, strip_end) - pos
            server = self.primary_server(strip)
            if prefer is not None and prefer != server and self.holds(prefer, strip):
                server = prefer
            extents.append(
                StripExtent(
                    strip=strip,
                    server=server,
                    offset=pos,
                    length=piece,
                    in_strip=pos - strip * self.strip_size,
                )
            )
            pos += piece
        return extents

    # -- per-server inventories ------------------------------------------------------
    def primary_strips(self, server: str, file_size: int) -> List[int]:
        """Strips whose primary copy lives on ``server``."""
        return [
            s
            for s in range(self.n_strips(file_size))
            if self.primary_server(s) == server
        ]

    def local_strips(self, server: str, file_size: int) -> List[int]:
        """All strips present on ``server`` (primary or replica)."""
        return [s for s in range(self.n_strips(file_size)) if self.holds(server, s)]

    def primary_runs(self, server: str, file_size: int) -> List[Tuple[int, int]]:
        """Maximal runs ``(first, last)`` of consecutive primary strips on
        ``server`` — the natural processing unit for offloaded kernels."""
        strips = self.primary_strips(server, file_size)
        runs: List[Tuple[int, int]] = []
        for s in strips:
            if runs and runs[-1][1] == s - 1:
                runs[-1] = (runs[-1][0], s)
            else:
                runs.append((s, s))
        return runs

    def strip_extent_bytes(self, strip: int, file_size: int) -> int:
        """Actual byte length of ``strip`` (the last strip may be short)."""
        start = strip * self.strip_size
        if start >= file_size:
            return 0
        return min(self.strip_size, file_size - start)

    def placement_table(self, file_size: int) -> Dict[str, List[int]]:
        """``{server: [strips]}`` for every strip of a file (replicas included)."""
        return {s: self.local_strips(s, file_size) for s in self.servers}

    def storage_bytes(self, file_size: int) -> int:
        """Total bytes stored across all servers, replication included."""
        return sum(
            self.strip_extent_bytes(strip, file_size) * len(self.replicas(strip))
            for strip in range(self.n_strips(file_size))
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} D={self.n_servers}"
            f" strip_size={self.strip_size}>"
        )


class RoundRobinLayout(Layout):
    """Strip ``i`` lives on server ``i mod D`` — Eq. (2) of the paper."""

    def server_index(self, strip: int) -> int:
        if strip < 0:
            raise LayoutError(f"negative strip index {strip!r}")
        return strip % len(self.servers)

    @property
    def period(self) -> int:
        return len(self.servers)

    def primary_strips(self, server: str, file_size: int) -> List[int]:
        """Closed form of the inventory: ``i, i+D, i+2D, ...``."""
        if server not in self.servers:
            return []
        first, step = self.servers.index(server), len(self.servers)
        return list(range(first, self.n_strips(file_size), step))

    local_strips = primary_strips  # nothing is replicated


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

    @property
    def period(self) -> int:
        """``r * D``, replicated or not (only group 0's head differs)."""
        return self.group * len(self.servers)

    def primary_strips(self, server: str, file_size: int) -> List[int]:
        """Closed form of the inventory: every D-th group of ``r`` strips."""
        if server not in self.servers:
            return []
        n, r = self.n_strips(file_size), self.group
        groups = range(self.servers.index(server), -(-n // r), len(self.servers))
        return [s for g in groups for s in range(g * r, min(g * r + r, n))]

    local_strips = primary_strips  # nothing is replicated

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<GroupedLayout D={self.n_servers} r={self.group}"
            f" strip_size={self.strip_size}>"
        )
