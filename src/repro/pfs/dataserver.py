"""Data server: the per-storage-node strip store and its request loop.

Each storage node runs one :class:`DataServer`.  It owns the *real
bytes* of every strip placed on the node (primary copies and DAS
replicas alike), serves read/write RPCs arriving over the fabric, and
exposes a direct local-access path with disk timing for co-located
components (the active-storage helper reads its strips through
:class:`~repro.pfs.localio.LocalFile`, never through the network).
"""

from __future__ import annotations

from itertools import accumulate
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


class ReadPiece:
    """A read of ``length`` bytes at ``in_strip`` within ``strip``.

    Plain ``__slots__`` record: one is built per extent per read on the
    data path, so construction cost matters.
    """

    __slots__ = ("strip", "in_strip", "length")

    def __init__(self, strip: int, in_strip: int, length: int):
        self.strip = strip
        self.in_strip = in_strip
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReadPiece(strip={self.strip}, in_strip={self.in_strip}, length={self.length})"


class WritePiece:
    """A write of ``data`` at ``in_strip`` within ``strip``."""

    __slots__ = ("strip", "in_strip", "data")

    def __init__(self, strip: int, in_strip: int, data: np.ndarray):
        self.strip = strip
        self.in_strip = in_strip
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WritePiece(strip={self.strip}, in_strip={self.in_strip}, nbytes={self.data.nbytes})"


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


class DataServer:
    """Strip store + request service for one storage node."""

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
        self._strips: Dict[Tuple[str, int], np.ndarray] = {}
        self.cache = StripCache(
            node.spec.server_cache_bytes, monitors=node.monitors, owner=node.name
        )
        self._service_proc = transport.serve(self, TAG_PFS, "pfs")

    @property
    def name(self) -> str:
        return self.node.name

    # -- strip store -------------------------------------------------------------
    def preload(self, file: str, strip: int, data: np.ndarray) -> None:
        """Place strip bytes instantly (experiment setup, not timed).

        ``data`` is adopted, not copied: the strip is a read-only view of
        the caller's ``uint8`` buffer (any other input is converted, which
        copies), so the caller must not write to that buffer afterwards —
        :meth:`PFSClient.ingest` flags its caller's array read-only.  The
        first timed write replaces the view with a private copy
        (:meth:`_strip_array`).
        """
        adopted = np.asarray(data, dtype=np.uint8).view()
        adopted.flags.writeable = False
        self._strips[(file, strip)] = adopted

    def has_strip(self, file: str, strip: int) -> bool:
        return (file, strip) in self._strips

    def strip_bytes(self, file: str, strip: int) -> np.ndarray:
        try:
            return self._strips[(file, strip)]
        except KeyError:
            raise StripMissingError(
                f"server {self.name!r} does not hold strip {strip} of {file!r}"
            ) from None

    def drop_strip(self, file: str, strip: int) -> None:
        """Remove a strip if held — used during redistribution."""
        self._strips.pop((file, strip), None)
        self.cache.invalidate((file, strip))

    def drop_file(self, file: str) -> int:
        """Remove all strips of ``file``; returns the count removed."""
        keys = [k for k in self._strips if k[0] == file]
        for k in keys:
            del self._strips[k]
        self.cache.invalidate_file(file)
        return len(keys)

    def held_strips(self, file: str) -> List[int]:
        return sorted(s for (f, s) in self._strips if f == file)

    def stored_bytes(self) -> int:
        return sum(a.nbytes for a in self._strips.values())

    def _strip_length(self, file: str, strip: int) -> int:
        """Byte length of a strip, held or still to be created."""
        arr = self._strips.get((file, strip))
        if arr is not None:
            return arr.nbytes
        meta = self.metadata.lookup(file)
        length = meta.layout.strip_extent_bytes(strip, meta.size)
        if length <= 0:
            raise PFSError(f"strip {strip} is beyond EOF of {file!r}")
        return length

    def _strip_array(self, file: str, strip: int) -> np.ndarray:
        """The strip's byte array for writing: private to this server.

        A strip not held yet starts as zeros; an adopted one (read-only,
        see :meth:`preload`) is copied first, so a write never reaches
        the buffer it was ingested from.
        """
        key = (file, strip)
        arr = self._strips.get(key)
        if arr is None:
            arr = self._strips[key] = np.zeros(
                self._strip_length(file, strip), dtype=np.uint8
            )
        elif not arr.flags.writeable:
            arr = self._strips[key] = arr.copy()
        return arr

    # -- timed local I/O (direct path for co-located components) ----------------
    def read_pieces(self, file: str, pieces: List[ReadPiece], out=None, positions=None):
        """Process: disk-read the pieces; value is the concatenated bytes.

        Given ``out`` and one byte position per piece, the pieces are
        instead gathered in place: strip to ``out`` in one copy."""
        return self.env.process(
            self._read_pieces(file, pieces, out, positions), name=f"dsr:{self.name}"
        )

    def lend_strips(self, file: str, strips: List[int]):
        """Process: disk-read whole ``strips``; value is the stored arrays
        themselves, flagged read-only, for a new holder to adopt
        (redistribution) — this server copies before its own next write."""
        return self.env.process(self._lend_strips(file, strips), name=f"dsr:{self.name}")

    def _lend_strips(self, file: str, strips: List[int]):
        yield from self._disk_read(
            file, [ReadPiece(s, 0, self.strip_bytes(file, s).nbytes) for s in strips]
        )
        arrays = [self.strip_bytes(file, s) for s in strips]
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    def _read_pieces(self, file: str, pieces: List[ReadPiece], out=None, positions=None):
        total = yield from self._disk_read(file, pieces)
        if out is None:
            out = np.empty(total, dtype=np.uint8)
            positions = accumulate((p.length for p in pieces), initial=0)
        for p, pos in zip(pieces, positions):
            strip = self.strip_bytes(file, p.strip)
            if p.in_strip + p.length > strip.nbytes:
                raise PFSError(
                    f"read past strip end: strip {p.strip} of {file!r}"
                    f" ({p.in_strip}+{p.length} > {strip.nbytes})"
                )
            out[pos : pos + p.length] = strip[p.in_strip : p.in_strip + p.length]
        return out

    def _disk_read(self, file: str, pieces: List[ReadPiece]):
        """Charge the disk for the pieces; value is their total bytes."""
        total = sum(p.length for p in pieces)
        assert self.node.disk is not None
        # Page-cache model: bytes in cached strips skip the disk.
        cold = total
        if self.cache.enabled:
            cold = 0
            for p in pieces:
                if self.cache.lookup((file, p.strip)):
                    continue
                cold += p.length
                self.cache.insert(
                    (file, p.strip), self.strip_bytes(file, p.strip).nbytes
                )
            self.monitors.counter(f"pfs.cache_hit_bytes.{self.name}").add(total - cold)
        if cold:
            yield self.node.disk.read(cold)
        return total

    def write_pieces(self, file: str, pieces: List[WritePiece], adopt=False):
        """Process: disk-write the pieces into the strip store.

        With ``adopt`` the sender hands its buffers over: a whole-strip
        piece becomes the strip, flagged read-only (a later partial write
        copies it first).  Otherwise every piece is copied."""
        return self.env.process(
            self._write_pieces(file, pieces, adopt), name=f"dsw:{self.name}"
        )

    def _write_pieces(self, file: str, pieces: List[WritePiece], adopt=False):
        total = sum(p.data.nbytes for p in pieces)
        assert self.node.disk is not None
        yield self.node.disk.write(total)
        for p in pieces:
            data = np.asarray(p.data, dtype=np.uint8)
            length = self._strip_length(file, p.strip)
            if p.in_strip + data.nbytes > length:
                raise PFSError(
                    f"write past strip end: strip {p.strip} of {file!r}"
                    f" ({p.in_strip}+{data.nbytes} > {length})"
                )
            if data.nbytes == length:
                # The piece is the whole strip: handed over it is the
                # strip, else one copy of it is (no zeros or old bytes).
                if adopt:
                    data.flags.writeable = False
                self._strips[(file, p.strip)] = data if adopt else data.copy()
            else:
                self._strip_array(file, p.strip)[
                    p.in_strip : p.in_strip + data.nbytes
                ] = data
            if self.cache.enabled:
                # Write-through: freshly written strips are memory-resident.
                self.cache.insert((file, p.strip), length)
        return total

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
            data = yield from self._read_pieces(request["file"], request["pieces"])
            reply = self.transport.reply_gen(msg, data, data.nbytes)
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DataServer {self.name} strips={len(self._strips)}>"
