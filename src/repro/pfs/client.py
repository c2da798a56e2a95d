"""PFS client: striped reads and writes from a (compute) node.

Mirrors the split in the paper's Fig. 2: normal I/O goes through this
client, which scatters/gathers byte ranges across the data servers
according to the file's layout.  All data-path traffic is simulated
(request + reply messages, disk I/O on the servers); the *setup* path
(:meth:`ingest`) and the *verification* path (:meth:`collect`) place
and read bytes instantly, because experiments measure the operation
under test, not the initial population of the file system.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import LayoutError, NodeDownError, PFSError
from ..hw.cluster import Cluster
from ..obs.span import NULL_SPAN, rpc_reply_bytes, rpc_status
from ..sim import contain_failures, outcome_of
from .dataserver import (
    TAG_PFS,
    DataServer,
    ReadPiece,
    WritePiece,
    accounted_wire_size,
)
from .datafile import FileMeta
from .layout import Layout, StripExtent
from .metadata import MetadataService


class PFSClient:
    """A client endpoint bound to one node (usually a compute node)."""

    def __init__(
        self,
        cluster: Cluster,
        metadata: MetadataService,
        servers: Dict[str, DataServer],
        home: str,
    ):
        if home not in cluster.fabric:
            raise PFSError(f"client home node {home!r} is not in the cluster")
        self.cluster = cluster
        self.env = cluster.env
        self.transport = cluster.transport
        self.metadata = metadata
        self.servers = servers
        self.home = home
        #: Optional :class:`~repro.faults.RecoveryPolicy`.  ``None`` (the
        #: default) keeps the original read path — event-for-event
        #: identical to a build without fault tolerance.
        self.recovery = None

    # -- instant (untimed) setup & verification paths --------------------------
    def ingest(
        self,
        name: str,
        array: np.ndarray,
        layout: Layout,
        shape: Optional[Tuple[int, int]] = None,
        **attrs,
    ) -> FileMeta:
        """Create a file and place its strips (and replicas) instantly.

        The file system adopts a C-contiguous ``array`` instead of
        copying it: every strip and replica is a read-only view of that
        one buffer, and ``array`` itself is flagged read-only, so writing
        through it afterwards raises instead of changing stored bytes.
        Timed writes never reach it (the data servers copy a strip before
        its first write).  An input that needs conversion, or that is a
        view of an array someone can still write, is copied and left as
        it was.
        """
        data = np.ascontiguousarray(array)
        if isinstance(data.base, np.ndarray) and data.base.flags.writeable:
            data = data.copy()
        data.flags.writeable = False
        raw = data.view(np.uint8).reshape(-1)
        if layout.strip_size % data.dtype.itemsize != 0:
            raise LayoutError(
                f"strip size {layout.strip_size} is not a multiple of the"
                f" element size {data.dtype.itemsize}"
            )
        if shape is None and data.ndim == 2:
            shape = data.shape  # type: ignore[assignment]
        meta = self.metadata.create(
            name, raw.nbytes, layout, dtype=data.dtype, shape=shape, **attrs
        )
        for strip in range(layout.n_strips(raw.nbytes)):
            lo = strip * layout.strip_size
            hi = min(lo + layout.strip_size, raw.nbytes)
            piece = raw[lo:hi]
            for server in layout.replicas(strip):
                self._server(server).preload(name, strip, piece)
        return meta

    def collect(self, name: str) -> np.ndarray:
        """Assemble the full file contents instantly (verification aid).

        Returns an array of the file's dtype, reshaped to its raster
        shape when one is recorded.
        """
        meta = self.metadata.lookup(name)
        primaries = self._primaries(meta)
        raw = np.concatenate(primaries) if primaries else np.empty(0, dtype=np.uint8)
        out = raw.view(meta.dtype)
        if meta.shape is not None:
            out = out.reshape(meta.shape)
        return out

    def verify_replicas(self, name: str) -> bool:
        """True iff every replica strip is byte-identical to its primary
        (a replica that *is* its primary's array is not compared)."""
        meta = self.metadata.lookup(name)
        primaries = self._primaries(meta)
        for server in meta.layout.servers:
            store = self._server(server)
            for strip in meta.layout.local_strips(server, meta.size):
                held, primary = store.strip_bytes(name, strip), primaries[strip]
                if held is not primary and not np.array_equal(held, primary):
                    return False
        return True

    def _primaries(self, meta: FileMeta) -> List[np.ndarray]:
        """Every strip's primary array, off the closed-form inventories."""
        primaries: List[np.ndarray] = [None] * meta.layout.n_strips(meta.size)
        for server in meta.layout.servers:
            store = self._server(server)
            for strip in meta.layout.primary_strips(server, meta.size):
                primaries[strip] = store.strip_bytes(meta.name, strip)
        return primaries

    # -- timed data path -----------------------------------------------------------
    def read(self, name: str, offset: int, length: int, span=NULL_SPAN):
        """Process: read ``length`` bytes at ``offset``; value is uint8[length]."""
        return self.env.process(
            self._read(name, offset, length, span=span), name=f"pfs-read:{self.home}"
        )

    def _read(self, name: str, offset: int, length: int, span=NULL_SPAN):
        meta = self.metadata.lookup(name)
        if offset < 0 or offset + length > meta.size:
            raise PFSError(
                f"read past EOF of {name!r}: ({offset}, {length})"
                f" vs size {meta.size}"
            )
        positioned = []  # (output position, StripExtent)
        for e in meta.layout.map_extent(offset, length):
            if not self.cluster.node(e.server).is_up:
                e = self._failover(meta.layout, e)
            positioned.append((e.offset - offset, e))

        out = np.empty(length, dtype=np.uint8)
        if self.recovery is not None:
            yield from self._fill_positioned_ft(
                meta, name, positioned, out, self.recovery, frozenset(), span=span
            )
            return out

        by_server: Dict[str, list] = {}
        for pos, e in positioned:
            by_server.setdefault(e.server, []).append((pos, e))

        if len(by_server) == 1 and not span:
            # Single touched server (the common small read): run the RPC
            # inside this process instead of spawning a child per call —
            # there is nothing to overlap.
            ((server, group),) = by_server.items()
            pieces = [ReadPiece(e.strip, e.in_strip, e.length) for _, e in group]
            reply = yield from self.transport.call_gen(
                self.home,
                server,
                {"op": "read", "file": name, "pieces": pieces},
                accounted_wire_size(self.cluster.monitors, len(pieces)),
                tag=TAG_PFS,
            )
            self._scatter_reply(reply.payload, group, out)
            return out

        tracer = self.cluster.monitors.tracer
        calls = {}
        for server, group in by_server.items():
            pieces = [ReadPiece(e.strip, e.in_strip, e.length) for _, e in group]
            rpc = NULL_SPAN
            if span:
                rpc = tracer.begin(
                    f"pfs-read:{server}",
                    cat="rpc",
                    parent=span,
                    server=server,
                    pieces=len(pieces),
                )
            call = self.transport.call(
                self.home,
                server,
                {"op": "read", "file": name, "pieces": pieces},
                accounted_wire_size(self.cluster.monitors, len(pieces)),
                tag=TAG_PFS,
            )
            if rpc:
                tracer.end_on(rpc, call, status=rpc_status, bytes=rpc_reply_bytes)
            calls[server] = (group, call)

        contain_failures([call for _, call in calls.values()])
        for server, (group, call) in calls.items():
            reply = yield call
            self._scatter_reply(reply.payload, group, out)
        return out

    def read_elems(self, name: str, first: int, count: int):
        """Process: read ``count`` elements from element index ``first``;
        value is an array of the file's dtype."""
        return self.env.process(
            self._read_elems(name, first, count), name=f"pfs-read-elems:{self.home}"
        )

    def _read_elems(self, name: str, first: int, count: int):
        meta = self.metadata.lookup(name)
        offset, length = meta.elem_range_bytes(first, count)
        raw = yield from self._read(name, offset, length)
        return raw.view(meta.dtype)

    def write(self, name: str, offset: int, data: np.ndarray):
        """Process: write ``data`` (any dtype) at byte ``offset``.

        Replicated strips are written on every holding server, keeping
        replicas consistent (the paper's DAS layout maintains copies on
        the neighbouring servers)."""
        return self.env.process(
            self._write(name, offset, data), name=f"pfs-write:{self.home}"
        )

    def _write(self, name: str, offset: int, data: np.ndarray):
        meta = self.metadata.lookup(name)
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        if offset + raw.nbytes > meta.size:
            raise PFSError(
                f"write past EOF of {name!r}: {offset}+{raw.nbytes} > {meta.size}"
            )
        extents = meta.layout.map_extent(offset, raw.nbytes)

        # Fan each extent out to every replica of its strip.
        by_server: Dict[str, List[StripExtent]] = {}
        for e in extents:
            for server in meta.layout.replicas(e.strip):
                by_server.setdefault(server, []).append(e)

        single = len(by_server) == 1
        calls = []
        for server, group in by_server.items():
            pieces = [
                WritePiece(
                    e.strip,
                    e.in_strip,
                    raw[e.offset - offset : e.offset - offset + e.length],
                )
                for e in group
            ]
            payload_bytes = sum(p.data.nbytes for p in pieces)
            size = (
                accounted_wire_size(self.cluster.monitors, len(pieces))
                + payload_bytes
            )
            request = {"op": "write", "file": name, "pieces": pieces}
            if single:
                # One holder: nothing to overlap, run the RPC inline.
                yield from self.transport.call_gen(
                    self.home, server, request, size, tag=TAG_PFS
                )
                return raw.nbytes
            calls.append(
                self.transport.call(self.home, server, request, size, tag=TAG_PFS)
            )
        for call in contain_failures(calls):
            yield call
        return raw.nbytes

    def write_elems(self, name: str, first: int, data: np.ndarray):
        """Process: write elements starting at element index ``first``."""
        meta = self.metadata.lookup(name)
        if np.dtype(data.dtype) != meta.dtype:
            raise PFSError(
                f"dtype mismatch writing {name!r}: {data.dtype} != {meta.dtype}"
            )
        return self.write(name, first * meta.element_size, data)

    # -- fault-tolerant read path -------------------------------------------------
    def _fill_positioned_ft(
        self, meta, name, positioned, out, policy, excluded, span=NULL_SPAN
    ):
        """Fill ``out`` from ``(position, extent)`` pairs with recovery.

        One fault-tolerant sub-read per touched server, joined so that a
        sibling's terminal failure is contained until this process
        reaches it at its ``yield``.
        """
        by_server: Dict[str, list] = {}
        for pos, e in positioned:
            by_server.setdefault(e.server, []).append((pos, e))
        jobs = [
            self.env.process(
                self._server_read_ft(
                    meta, name, server, group, out, policy, excluded, span=span
                ),
                name=f"pfs-ft:{self.home}->{server}",
            )
            for server, group in by_server.items()
        ]
        for job in contain_failures(jobs):
            yield job

    def _server_read_ft(
        self, meta, name, server, group, out, policy, excluded, span=NULL_SPAN
    ):
        """Read one server's pieces with timeout, backoff, hedging and
        replica failover, scattering the bytes into ``out``."""
        monitors = self.cluster.monitors
        tracer = monitors.tracer
        pieces = [ReadPiece(e.strip, e.in_strip, e.length) for _, e in group]
        attempt = 1
        hedge_guard = None
        while True:
            rpc = NULL_SPAN
            if span:
                rpc = tracer.begin(
                    f"pfs-read:{server}",
                    cat="rpc",
                    parent=span,
                    server=server,
                    pieces=len(pieces),
                    attempt=attempt,
                )
            call = self.transport.call(
                self.home,
                server,
                {"op": "read", "file": name, "pieces": pieces},
                accounted_wire_size(monitors, len(pieces)),
                tag=TAG_PFS,
            )
            guard = self.env.process(
                outcome_of(call), name=f"pfs-ft-guard:{self.home}->{server}"
            )
            deadline = self.env.timeout(policy.rpc_timeout)
            hedge_timer = (
                self.env.timeout(policy.hedge_delay)
                if policy.hedge_delay is not None and hedge_guard is None
                else None
            )
            while True:
                race = [guard, deadline]
                if hedge_guard is not None:
                    race.append(hedge_guard)
                elif hedge_timer is not None:
                    race.append(hedge_timer)
                yield self.env.any_of(race)
                if guard.processed:
                    # The race is decided: lazily cancel the losing
                    # timers so their eventual dispatch is a no-op pop
                    # (the heap entries still pace the clock, so replay
                    # is bit-identical — see Event.cancel).
                    status, value = guard.value
                    if status == "ok":
                        deadline.cancel()
                        if hedge_timer is not None:
                            hedge_timer.cancel()
                        rpc.finish(status="ok", bytes=getattr(value, "size", None))
                        self._scatter_reply(value.payload, group, out)
                        return
                    deadline.cancel()
                    if hedge_timer is not None:
                        hedge_timer.cancel()
                    rpc.finish(status="error", error=type(value).__name__)
                    break  # attempt failed fast (node/link down en route)
                if hedge_guard is not None and hedge_guard.processed:
                    status, value = hedge_guard.value
                    if status == "ok":
                        monitors.counter("faults.hedge_wins").add()
                        span.event("hedge.win", server=server)
                        rpc.finish(status="abandoned")
                        deadline.cancel()
                        if hedge_timer is not None:
                            hedge_timer.cancel()
                        return
                    hedge_guard = None  # hedge died; keep the primary attempt
                    continue
                if hedge_timer is not None and hedge_timer.processed:
                    hedge_timer = None
                    remapped = self._remap_group(
                        meta.layout, group, excluded | {server}
                    )
                    if remapped is not None:
                        monitors.counter("faults.hedged_reads").add()
                        span.event("hedge", server=server)
                        hedge_guard = self.env.process(
                            outcome_of(
                                self.env.process(
                                    self._fill_positioned_ft(
                                        meta,
                                        name,
                                        remapped,
                                        out,
                                        policy,
                                        excluded | {server},
                                        span=span,
                                    ),
                                    name=f"pfs-hedge:{self.home}",
                                )
                            ),
                            name=f"pfs-hedge-guard:{self.home}",
                        )
                    continue
                if deadline.processed:
                    monitors.counter("faults.rpc_timeouts").add()
                    span.event("rpc.timeout", server=server, attempt=attempt)
                    rpc.finish(status="timeout")
                    if hedge_timer is not None:
                        hedge_timer.cancel()
                        hedge_timer = None
                    break
            if attempt >= policy.max_attempts:
                break
            monitors.counter("faults.retries").add()
            span.event("retry", server=server, attempt=attempt)
            backoff = policy.delay(attempt)
            if backoff:
                yield self.env.timeout(backoff)
            attempt += 1
        # Primary attempts exhausted.  A hedge already in flight is the
        # cheapest rescue; otherwise remap every piece to a live replica.
        if hedge_guard is not None:
            status, value = yield hedge_guard
            if status == "ok":
                monitors.counter("faults.hedge_wins").add()
                span.event("hedge.win", server=server)
                return
        remapped = self._remap_group(meta.layout, group, excluded | {server})
        if remapped is None:
            raise NodeDownError(
                f"server {server!r} unresponsive and no live replica"
                f" covers its strips of {name!r}"
            )
        monitors.counter("faults.failover_reads").add(len(group))
        span.event("failover", server=server, pieces=len(group))
        yield from self._fill_positioned_ft(
            meta, name, remapped, out, policy, excluded | {server}, span=span
        )

    def _remap_group(self, layout: Layout, group, excluded):
        """Re-home ``(position, extent)`` pairs onto live replicas not in
        ``excluded``; ``None`` when any strip has nowhere to go."""
        remapped = []
        for pos, e in group:
            candidate = None
            for srv in layout.replicas(e.strip):
                if srv not in excluded and self.cluster.node(srv).is_up:
                    candidate = srv
                    break
            if candidate is None:
                return None
            remapped.append((pos, e.rehomed(candidate)))
        return remapped

    @staticmethod
    def _scatter_reply(data, group, out) -> None:
        cursor = 0
        for pos, e in group:
            out[pos : pos + e.length] = data[cursor : cursor + e.length]
            cursor += e.length

    # -- degraded-mode read path -------------------------------------------------
    def _failover(self, layout: Layout, extent: StripExtent) -> StripExtent:
        """Redirect an extent whose holder is down to a live replica.

        The DAS layout's boundary replication doubles as limited fault
        tolerance: reads of replicated strips survive the primary's
        failure.  Unreplicated strips have nowhere to go.
        """
        for candidate in layout.replicas(extent.strip):
            if candidate != extent.server and self.cluster.node(candidate).is_up:
                self.cluster.monitors.counter("faults.failover_reads").add()
                return extent.rehomed(candidate)
        raise NodeDownError(
            f"strip {extent.strip} unreachable: holder {extent.server!r} is down"
            " and no live replica exists"
        )

    # -- helpers ------------------------------------------------------------------------
    def _server(self, name: str) -> DataServer:
        try:
            return self.servers[name]
        except KeyError:
            raise PFSError(f"no data server on node {name!r}") from None

