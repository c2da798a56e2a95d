"""Local I/O API (paper Fig. 2, "Local I/O API").

"It provides a function that abstracts local strips as a file and
reads local data for Processing Kernels."  A :class:`LocalFile` is
bound to one data server and one file; it lets an offloaded kernel read
element ranges that are present on that server (primary strips *or*
DAS replicas) with disk timing but no network traffic, and tells the
active-storage machinery exactly which ranges are local.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import PFSError
from .dataserver import DataServer, ReadPiece, WritePiece
from .datafile import FileMeta


class LocalFile:
    """A server-local view of one PFS file."""

    def __init__(self, server: DataServer, meta: FileMeta):
        self.server = server
        self.meta = meta
        self.env = server.env

    @property
    def name(self) -> str:
        return self.meta.name

    # -- inventory -------------------------------------------------------------
    def primary_runs(self) -> List[Tuple[int, int]]:
        """Maximal runs of consecutive primary strips on this server."""
        return self.meta.layout.primary_runs(self.server.name, self.meta.size)

    def run_elem_range(self, run: Tuple[int, int]) -> Tuple[int, int]:
        """(first element, count) covered by a strip run (clamped to EOF)."""
        first_strip, last_strip = run
        lo = first_strip * self.meta.layout.strip_size
        hi = min((last_strip + 1) * self.meta.layout.strip_size, self.meta.size)
        e = self.meta.element_size
        return lo // e, (hi - lo) // e

    def is_local(self, offset: int, length: int) -> bool:
        """True iff every byte of the range is held on this server."""
        if offset < 0 or offset + length > self.meta.size:
            return False
        me = self.server.name
        extents = self.meta.layout.map_extent(offset, max(length, 1), prefer=me)
        return all(e.server == me for e in extents)

    # -- timed reads/writes --------------------------------------------------------
    def read(self, offset: int, length: int):
        """Process: disk-read local bytes; value is uint8[length]."""
        if not self.is_local(offset, length):
            raise PFSError(
                f"range ({offset}, {length}) of {self.name!r} is not fully local"
                f" to {self.server.name!r}"
            )
        extents = self.meta.layout.map_extent(offset, length, prefer=self.server.name)
        pieces = [ReadPiece(e.strip, e.in_strip, e.length) for e in extents]
        return self.server.read_pieces(self.name, pieces)

    def read_elems(self, first: int, count: int):
        """Process: disk-read ``count`` local elements from ``first``;
        value is an array of the file's dtype."""
        return self.env.process(self._read_elems(first, count), name="localio-read")

    def _read_elems(self, first: int, count: int):
        offset, length = self.meta.elem_range_bytes(first, count)
        raw = yield self.read(offset, length)
        return raw.view(self.meta.dtype)

    def write_elems(self, first: int, data: np.ndarray):
        """Process: disk-write elements into local strips.

        The layout must place every touched strip here (primary or
        replica); remote strips are the caller's responsibility."""
        if np.dtype(data.dtype) != self.meta.dtype:
            raise PFSError(
                f"dtype mismatch writing {self.name!r}: {data.dtype} != {self.meta.dtype}"
            )
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        offset = first * self.meta.element_size
        pieces = []
        for e in self.meta.layout.map_extent(offset, raw.nbytes, prefer=self.server.name):
            if e.server != self.server.name:
                raise PFSError(
                    f"strip {e.strip} of {self.name!r} is not local to"
                    f" {self.server.name!r}"
                )
            data = raw[e.offset - offset : e.end - offset]
            pieces.append(WritePiece(e.strip, e.in_strip, data))
        return self.server.write_pieces(self.name, pieces)
