"""Data server: the per-storage-node run store and its request loop.

Each storage node runs one :class:`DataServer`.  It owns the *real
bytes* of every strip placed on the node (primary copies and DAS
replicas alike), serves read/write RPCs arriving over the fabric, and
exposes a direct local-access path with disk timing for co-located
components (the active-storage helper reads its strips through
:class:`~repro.pfs.localio.LocalFile`, never through the network).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Dict, List, Tuple

import numpy as np

from ..errors import LinkDownError, NodeDownError, PFSError, StripMissingError
from ..hw.node import Node
from ..net.message import Message
from ..net.transport import Transport
from .cache import StripCache
from .metadata import MetadataService

#: Transport tag carrying PFS data-path traffic.
TAG_PFS = "pfs"

#: Fixed per-request wire overhead (headers), plus per-extent descriptor.
REQUEST_HEADER_BYTES = 128
EXTENT_DESC_BYTES = 32
ACK_BYTES = 64

_FIRST = itemgetter(0)


class ReadPiece:
    """A read of ``length`` bytes from ``in_strip`` bytes into ``strip``,
    possibly running on through the following strips.  Plain
    ``__slots__`` record: one is built per extent on the data path."""

    __slots__ = ("strip", "in_strip", "length")

    def __init__(self, strip: int, in_strip: int, length: int):
        self.strip = strip
        self.in_strip = in_strip
        self.length = length


class WritePiece:
    """A write of ``data`` starting ``in_strip`` bytes into ``strip``
    (possibly running on through the following strips)."""

    __slots__ = ("strip", "in_strip", "data")

    def __init__(self, strip: int, in_strip: int, data: np.ndarray):
        self.strip = strip
        self.in_strip = in_strip
        self.data = data

    @property
    def length(self) -> int:
        return self.data.nbytes


def copy_views(views, wanted, out: np.ndarray) -> None:
    """Copy out of a read reply: its views, taken end to end as one byte
    stream, give ``out[pos : pos + n]`` the stream's ``[at, at + n)`` for
    each ``(at, pos, n)`` of ``wanted`` (ascending, disjoint) — each
    byte is copied once, straight from the stored run."""
    wanted = iter(wanted)
    at, pos, n = next(wanted, (None, 0, 0))
    start = 0
    for view in views:
        stop = start + view.nbytes
        while at is not None and at < stop:
            lo, hi = max(at, start), min(at + n, stop)
            out[pos + lo - at : pos + hi - at] = view[lo - start : hi - start]
            if at + n > stop:
                break
            at, pos, n = next(wanted, (None, 0, 0))
        start = stop


def request_wire_size(n_extents: int) -> int:
    """On-wire size of a read/write request header."""
    return REQUEST_HEADER_BYTES + EXTENT_DESC_BYTES * n_extents


def accounted_wire_size(monitors, n_extents: int) -> int:
    """Like :func:`request_wire_size`, but books the fixed header and
    the per-extent descriptors into separate counters
    (``pfs.rpc.header_bytes`` / ``pfs.rpc.extent_desc_bytes``).

    The split is what makes batching measurable: a vector-of-extents
    request pays ``REQUEST_HEADER_BYTES`` once per *message* however
    many extents it carries, so amortisation shows up as header bytes
    falling while extent-descriptor (and payload) bytes stay identical.
    """
    monitors.counter("pfs.rpc.header_bytes").add(REQUEST_HEADER_BYTES)
    if n_extents:
        monitors.counter("pfs.rpc.extent_desc_bytes").add(
            EXTENT_DESC_BYTES * n_extents
        )
    return request_wire_size(n_extents)


def fan_out(layout, offset: int, raw: np.ndarray, replicate: bool = True) -> Dict:
    """``{server: (pieces, strip count)}`` writing ``raw`` at ``offset`` to
    every holder of its strips (primaries only unless ``replicate``), in
    order of first touch: one :class:`WritePiece` per run a server holds."""
    size, out = layout.strip_size, {}
    for strip, lo, hi in layout.segments(offset, raw.nbytes):
        holders = layout.replicas(strip) if replicate else [layout.primary_server(strip)]
        for server in holders:
            spans, n = out.get(server, ([], 0))
            if spans and spans[-1][3] == lo - offset:
                spans[-1][3] = hi - offset
            else:
                spans.append([strip, lo - strip * size, lo - offset, hi - offset])
            out[server] = (spans, n + (hi - 1) // size - strip + 1)
    return {
        server: ([WritePiece(f, i, raw[a:b]) for f, i, a, b in spans], n)
        for server, (spans, n) in out.items()
    }


class _Runs:
    """One file's bytes on one server: sorted, disjoint, strip-aligned
    runs ``(first, end, buffer)`` holding strips ``[first, end)``."""

    __slots__ = ("strip", "size", "runs")

    def __init__(self, meta):
        self.strip, self.size, self.runs = meta.layout.strip_size, meta.size, []

    def span(self, first: int, end: int) -> Tuple[int, int]:
        """Indices ``[j0, j1)`` of the runs meeting strips ``[first, end)``."""
        i = bisect_right(self.runs, first, key=_FIRST) - 1
        j0 = i if i >= 0 and self.runs[i][1] > first else i + 1
        return j0, bisect_left(self.runs, end, key=_FIRST)

    def splice(self, first: int, end: int, buf=None) -> None:
        """Put ``buf`` in place of strips ``[first, end)`` (drop them when
        ``None``); runs reaching past either edge keep their outer part
        as a view."""
        size, runs = self.strip, self.runs
        mid = [(first, end, buf)] if buf is not None else []
        if not runs or runs[-1][1] <= first:  # past every run: append
            runs.extend(mid)
            return
        j0, j1 = self.span(first, end)
        old = runs[j0:j1]
        new = [(f, first, b[: (first - f) * size]) for f, _, b in old[:1] if f < first]
        new += mid + [(end, e, b[(end - f) * size :]) for f, e, b in old[-1:] if e > end]
        runs[j0:j1] = new

    def join_views(self) -> None:
        """Make each chain of adjacent read-only views that continue one
        another in one C-contiguous buffer a single run (no copy)."""
        chains = []  # [first, end, base, start address, stop address, view]
        for first, end, buf in self.runs:
            base, at = buf.base, None
            if isinstance(base, np.ndarray) and base.flags.c_contiguous:
                at = None if buf.flags.writeable else buf.__array_interface__["data"][0]
            last = chains[-1] if chains and at is not None else [None] * 6
            if last[1] == first and last[2] is base and last[4] == at:
                last[1], last[4], last[5] = end, at + buf.nbytes, None
            else:
                chains.append([first, end, base, at, at and at + buf.nbytes, buf])
        self.runs = []
        for first, end, base, start, stop, buf in chains:
            if buf is None:
                at = start - base.__array_interface__["data"][0]
                buf = base.reshape(-1).view(np.uint8)[at : at + stop - start]
                buf.flags.writeable = False
            self.runs.append((first, end, buf))


class DataServer:
    """Run store + request service for one storage node."""

    def __init__(
        self,
        node: Node,
        transport: Transport,
        metadata: MetadataService,
    ):
        if not node.is_storage or node.disk is None:
            raise PFSError(f"data server requires a storage node, got {node.name!r}")
        self.node = node
        self.env = node.env
        self.transport = transport
        self.metadata = metadata
        self.monitors = node.monitors
        self._files: Dict[str, _Runs] = {}
        self.cache = StripCache(
            node.spec.server_cache_bytes, monitors=node.monitors, owner=node.name
        )
        self._service_proc = transport.serve(self, TAG_PFS, "pfs")

    @property
    def name(self) -> str:
        return self.node.name

    # -- run store ---------------------------------------------------------------
    def _runs(self, file: str) -> _Runs:
        runs = self._files.get(file)
        return runs or self._files.setdefault(file, _Runs(self.metadata.lookup(file)))

    def preload(self, file: str, first: int, data: np.ndarray) -> np.ndarray:
        """Place strips ``first, first + 1, ...`` instantly (setup, not
        timed); value is the stored run, a read-only view of the caller's
        ``uint8`` buffer (other input is converted, which copies), which it
        must not write to — :meth:`PFSClient.ingest` flags it read-only."""
        adopted = np.asarray(data, dtype=np.uint8).view()
        adopted.flags.writeable = False
        runs = self._runs(file)
        runs.splice(first, first - (-adopted.nbytes // runs.strip), adopted)
        return adopted

    def _views(self, file: str, lo: int, hi: int, lend: bool = False):
        """``(position, view)`` pairs covering held bytes ``[lo, hi)``, one
        per stored run crossed; ``lend`` flags those runs read-only."""
        runs = self._runs(file)
        while lo < hi:
            strip = lo // runs.strip
            i, j = runs.span(strip, strip + 1)
            if i == j:
                missing = f"strip {strip} of {file!r}"
                raise StripMissingError(f"server {self.name!r} does not hold {missing}")
            first, _, buf = runs.runs[i]
            base = first * runs.strip
            stop = min(hi, base + buf.nbytes)
            if stop <= lo:
                raise PFSError(f"read past EOF of {file!r} ({hi} > {stop})")
            if lend:
                buf.flags.writeable = False
            yield lo, buf[lo - base : stop - base]
            lo = stop

    def view(self, file: str, lo: int, hi: int) -> np.ndarray:
        """Held bytes ``[lo, hi)``: a view where one stored run holds them
        all (the common case), else a copy."""
        views = [view for _, view in self._views(file, lo, hi)]
        return views[0] if len(views) == 1 else np.concatenate(views)

    def strip_bytes(self, file: str, strip: int) -> np.ndarray:
        """A view of one held strip's bytes."""
        size = self._runs(file).strip  # the last strip may be short
        return next(self._views(file, strip * size, strip * size + size))[1]

    def copy_range(self, file: str, offset: int, out: np.ndarray) -> None:
        """Copy the held bytes at ``offset`` into ``out`` (untimed): one
        slice per stored run crossed."""
        for pos, view in self._views(file, offset, offset + out.nbytes):
            out[pos - offset : pos - offset + view.nbytes] = view

    def retain(self, file: str, keep: List[Tuple[int, int]]) -> None:
        """Drop every held strip outside the runs ``(first, last)`` in
        ``keep``, and join the views lent here — after redistribution."""
        runs = self._runs(file)
        n = -(-runs.size // runs.strip)
        edges = [-1] + [x for first, last in keep for x in (first, last)] + [n]
        for first, end in zip(edges[0::2], edges[1::2]):
            runs.splice(first + 1, end)
            for strip in range(first + 1, end) if self.cache.enabled else ():
                self.cache.invalidate((file, strip))
        runs.join_views()

    def drop_file(self, file: str) -> int:
        """Remove all strips of ``file``; returns the count removed."""
        self.cache.invalidate_file(file)
        runs = self._files.pop(file, None)
        return sum(e - f for f, e, _ in runs.runs) if runs else 0

    def held_strips(self, file: str) -> List[int]:
        return [s for f, e, _ in self._runs(file).runs for s in range(f, e)]

    def stored_bytes(self) -> int:
        return sum(r[2].nbytes for runs in self._files.values() for r in runs.runs)

    # -- timed local I/O (direct path for co-located components) ----------------
    def read_pieces(self, file: str, pieces, out=None, positions=None, lend=False):
        """Process: disk-read the pieces; value is their bytes, lent.

        Lent means the stored runs themselves, flagged read-only (a later
        write copies the strips it touches): one view per stored run a
        piece crosses, in piece order — the sender keeps the bytes it
        read, whatever is written after.  ``lend`` wraps each view in a
        :class:`WritePiece` for a new holder to adopt (redistribution).
        Given ``out`` and one byte position per piece, the pieces are
        gathered in place instead: run to ``out`` in one copy."""
        return self.env.process(
            self._read_pieces(file, pieces, out, positions, lend), name=f"dsr:{self.name}"
        )

    def _read_pieces(self, file: str, pieces, out=None, positions=None, lend=False):
        yield from self._disk_read(file, pieces)
        size = self._runs(file).strip
        spans = [(p.strip * size + p.in_strip, p.length) for p in pieces]
        if out is None:
            views = [
                pair
                for lo, length in spans
                for pair in self._views(file, lo, lo + length, lend=True)
            ]
            if lend:
                return [WritePiece(pos // size, 0, view) for pos, view in views]
            return [view for _, view in views]
        for (lo, length), pos in zip(spans, positions):
            self.copy_range(file, lo, out[pos : pos + length])
        return out

    def _strips_touched(self, file: str, pieces):
        """``(strip, bytes touched, strip length)`` for every strip the
        pieces cover, in order — what the per-strip page cache sees."""
        runs = self._runs(file)
        size = runs.strip
        for p in pieces:
            lo = p.strip * size + p.in_strip
            hi = lo + p.length
            for strip in range(p.strip, (hi - 1) // size + 1):
                start = strip * size
                touched = min(hi, start + size) - max(lo, start)
                yield strip, touched, min(size, runs.size - start)

    def _disk_read(self, file: str, pieces: List[ReadPiece]):
        """Charge the disk for the pieces; value is their total bytes."""
        total = sum(p.length for p in pieces)
        assert self.node.disk is not None
        # Page-cache model: bytes in cached strips skip the disk.
        cold = total
        if self.cache.enabled:
            cold = 0
            for strip, touched, length in self._strips_touched(file, pieces):
                if self.cache.lookup((file, strip)):
                    continue
                cold += touched
                self.cache.insert((file, strip), length)
            self.monitors.counter(f"pfs.cache_hit_bytes.{self.name}").add(total - cold)
        if cold:
            yield self.node.disk.read(cold)
        return total

    def write_pieces(self, file: str, pieces: List[WritePiece], adopt=False):
        """Process: disk-write the pieces into the run store.

        With ``adopt`` the sender hands its buffers over: a piece's
        whole strips become a run holding the piece itself, flagged
        read-only.  Otherwise the bytes are copied."""
        return self.env.process(
            self._write_pieces(file, pieces, adopt), name=f"dsw:{self.name}"
        )

    def _write_pieces(self, file: str, pieces: List[WritePiece], adopt=False):
        total = sum(p.length for p in pieces)
        assert self.node.disk is not None
        yield self.node.disk.write(total)
        runs = self._runs(file)
        for p in pieces:
            self._put(file, runs, p.strip * runs.strip + p.in_strip, p.data, adopt)
        if self.cache.enabled:
            # Write-through: freshly written strips are memory-resident.
            for strip, _, length in self._strips_touched(file, pieces):
                self.cache.insert((file, strip), length)
        return total

    def _put(self, file: str, runs: _Runs, offset: int, data, adopt: bool) -> None:
        """Store ``data`` at byte ``offset``, copy-on-write per strip: a
        private run covering the write takes it in place; else the strips
        it touches become one new run — the piece itself if it covers them
        and ``adopt``, else a copy of it or of their old bytes (zeros where
        none were held) with the write applied."""
        data = np.asarray(data, dtype=np.uint8)
        size, end = runs.strip, offset + data.nbytes
        if end > runs.size:
            raise PFSError(f"write past EOF of {file!r}: {end} > {runs.size}")
        first, last = offset // size, -(-end // size)
        lo, hi = first * size, min(last * size, runs.size)
        whole = offset == lo and end == hi
        if whole and adopt:
            data.flags.writeable = False
            return runs.splice(first, last, data)
        j0, j1 = runs.span(first, last)
        if j1 == j0 + 1:
            start, stop, held = runs.runs[j0]
            if held.flags.writeable and start <= first and stop >= last:
                held[offset - start * size : end - start * size] = data
                return
        if whole:
            buf = data.copy()
        else:
            buf = np.zeros(hi - lo, np.uint8)
            for start, stop, held in runs.runs[j0:j1]:
                a, b = max(start * size, lo), min(stop * size, hi)
                buf[a - lo : b - lo] = held[a - start * size : b - start * size]
            buf[offset - lo : end - lo] = data
        runs.splice(first, last, buf)

    # -- network request service ----------------------------------------------------
    def _handle(self, msg: Message):
        if not self.node.is_up:
            # A crashed server cannot answer; the request that was
            # already in its mailbox vanishes with the process state.
            self.monitors.counter("faults.dropped_requests").add()
            return
        request = msg.payload
        op = request.get("op")
        # Per-request control-plane work on the node's engine: this is
        # the load the paper attributes to "serving the requests from
        # other storage nodes".
        yield self.node.cpu.service(self.node.spec.rpc_overhead, f"pfs-{op}")
        if op == "read":
            pieces = request["pieces"]
            views = yield from self._read_pieces(request["file"], pieces)
            reply = self.transport.reply_gen(msg, views, sum(p.length for p in pieces))
        elif op == "write":
            total = yield from self._write_pieces(
                request["file"], request["pieces"], request.get("adopt", False)
            )
            reply = self.transport.reply_gen(msg, {"written": total}, ACK_BYTES)
        else:
            raise PFSError(f"unknown PFS op {op!r} from {msg.src!r}")
        try:
            yield from reply
        except (NodeDownError, LinkDownError):
            # The requester (or the path back to it) died while we were
            # serving; nothing left to tell anyone.
            self.monitors.counter("faults.dropped_replies").add()
