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

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import LayoutError, NodeDownError, PFSError
from ..hw.cluster import Cluster
from ..obs.span import NULL_SPAN, rpc_reply_bytes, rpc_status
from ..sim import contain_failures, outcome_of
from .dataserver import TAG_PFS, DataServer, ReadPiece, accounted_wire_size, fan_out
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
        copying it: every run a server holds (primaries and replicas
        alike) is one read-only view of that buffer, and ``array`` itself
        is flagged read-only, so writing through it afterwards raises
        instead of changing stored bytes.  Timed writes never reach it
        (the data servers copy the strips a write touches first).  An
        input that needs conversion, or that is a view of an array
        someone can still write, is copied and left as it was.
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
        size = layout.strip_size
        for server in layout.servers:
            store = self._server(server)
            for first, last in layout.local_runs(server, raw.nbytes):
                store.preload(name, first, raw[first * size : (last + 1) * size])
        return meta

    def collect(self, name: str) -> np.ndarray:
        """Assemble the full file contents instantly (verification aid).

        Returns an array of the file's dtype, reshaped to its raster
        shape when one is recorded.
        """
        meta = self.metadata.lookup(name)
        layout, size = meta.layout, meta.size
        raw = np.empty(size, dtype=np.uint8)  # one copy per primary run
        for server in layout.servers:
            for first, last in layout.primary_runs(server, size):
                lo, length = first * layout.strip_size, layout.run_bytes(first, last, size)
                self._server(server).copy_range(name, lo, raw[lo : lo + length])
        out = raw.view(meta.dtype)
        if meta.shape is not None:
            out = out.reshape(meta.shape)
        return out

    def verify_replicas(self, name: str) -> bool:
        """True iff every replicated byte equals its primary's (a replica
        that is its primary's memory is not compared)."""
        meta = self.metadata.lookup(name)
        layout = meta.layout
        if layout.storage_bytes(meta.size) == meta.size:
            return True  # nothing is replicated
        for strip, lo, hi in layout.segments(0, meta.size):
            views = [self._server(s).view(name, lo, hi) for s in layout.replicas(strip)]
            primary, at = views[0], views[0].__array_interface__["data"][0]
            for held in views[1:]:
                same = held.__array_interface__["data"][0] == at
                if not same and not np.array_equal(held, primary):
                    return False
        return True

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
            if self.cluster.node(e.server).is_up:
                positioned.append((e.offset - offset, e))
            else:
                positioned.extend(self._failover(meta.layout, offset, e))

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
            request, size = self._read_request(name, group)
            reply = yield from self.transport.call_gen(
                self.home, server, request, size, tag=TAG_PFS
            )
            self._scatter_reply(reply.payload, group, out)
            return out

        tracer = self.cluster.monitors.tracer
        calls = {}
        for server, group in by_server.items():
            rpc = NULL_SPAN
            if span:
                rpc = tracer.begin(
                    f"pfs-read:{server}",
                    cat="rpc",
                    parent=span,
                    server=server,
                    pieces=sum(e.n_strips for _, e in group),
                )
            request, size = self._read_request(name, group)
            call = self.transport.call(self.home, server, request, size, tag=TAG_PFS)
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
        by_server = fan_out(meta.layout, offset, raw)
        single = len(by_server) == 1
        calls = []
        for server, (pieces, n_strips) in by_server.items():
            payload_bytes = sum(p.length for p in pieces)
            size = accounted_wire_size(self.cluster.monitors, n_strips) + payload_bytes
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
        n_strips = sum(e.n_strips for _, e in group)
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
                    pieces=n_strips,
                    attempt=attempt,
                )
            request, size = self._read_request(name, group)
            call = self.transport.call(self.home, server, request, size, tag=TAG_PFS)
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
        monitors.counter("faults.failover_reads").add(n_strips)
        span.event("failover", server=server, pieces=n_strips)
        yield from self._fill_positioned_ft(
            meta, name, remapped, out, policy, excluded | {server}, span=span
        )

    def _remap_group(self, layout: Layout, group, excluded):
        """Re-home ``(position, extent)`` pairs onto live replicas not in
        ``excluded``, strip by strip; ``None`` when any strip has nowhere
        to go."""
        rehome = self._rehomed
        remapped = [p for pos, e in group for _, p in rehome(layout, pos, e, excluded)]
        return None if None in remapped else remapped

    def _rehomed(self, layout: Layout, pos: int, extent: StripExtent, excluded):
        """``(strip, (position, extent))`` per run of ``extent``'s strips
        sharing replicas, on the first live one outside ``excluded``
        (``None`` in place of the pair where there is none)."""
        size, up = layout.strip_size, self.cluster.node
        for strip, lo, hi in layout.segments(extent.offset, extent.length):
            live = [s for s in layout.replicas(strip) if s not in excluded and up(s).is_up]
            in_strip, count = lo - strip * size, (hi - 1) // size - strip + 1
            piece = live and StripExtent(strip, live[0], lo, hi - lo, in_strip, count)
            yield strip, piece and (pos + lo - extent.offset, piece) or None

    def _read_request(self, name: str, group):
        """Payload and wire size of a read of ``(position, extent)`` pairs:
        one piece per extent, one extent descriptor per strip."""
        pieces = [ReadPiece(e.strip, e.in_strip, e.length) for _, e in group]
        n_strips = sum(e.n_strips for _, e in group)
        size = accounted_wire_size(self.cluster.monitors, n_strips)
        return {"op": "read", "file": name, "pieces": pieces}, size

    @staticmethod
    def _scatter_reply(data, group, out) -> None:
        cursor = 0
        for pos, e in group:
            out[pos : pos + e.length] = data[cursor : cursor + e.length]
            cursor += e.length

    # -- degraded-mode read path -------------------------------------------------
    def _failover(self, layout: Layout, offset: int, extent: StripExtent):
        """Redirect an extent whose holder is down to live replicas, strip
        by strip; ``(output position, extent)`` pairs.

        The DAS layout's boundary replication doubles as limited fault
        tolerance: reads of replicated strips survive the primary's
        failure.  Unreplicated strips have nowhere to go.
        """
        pos = extent.offset - offset
        for strip, pair in self._rehomed(layout, pos, extent, {extent.server}):
            if pair is None:
                raise NodeDownError(
                    f"strip {strip} unreachable: holder {extent.server!r} is down"
                    " and no live replica exists"
                )
            self.cluster.monitors.counter("faults.failover_reads").add(pair[1].n_strips)
            yield pair

    # -- helpers ------------------------------------------------------------------------
    def _server(self, name: str) -> DataServer:
        try:
            return self.servers[name]
        except KeyError:
            raise PFSError(f"no data server on node {name!r}") from None
