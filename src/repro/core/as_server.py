"""The AS helper process on each storage node (paper Fig. 2: "AS",
"Processing Kernels", "Local I/O API").

When an offloaded request arrives, the helper walks the runs of strips
whose primary copy lives on its node, and for each run:

1. gathers the element window = run + dependence halo — locally held
   bytes (primary strips and DAS replicas) come from the disk through
   the Local I/O API; missing halo comes from the owning peer server
   over the fabric (this is NAS's downfall and what the DAS layout
   eliminates);
2. invokes the processing kernel (CPU time charged on the node's
   engine, the same engine that serves peers' requests);
3. writes the output run back through the PFS — primary strips locally,
   replica strips (DAS layouts) to the neighbouring servers.

Halo fetch granularity is configurable: ``"strip"`` transfers whole
neighbour strips (what the paper's NAS prototype does — "each strip was
transferred multiple times among the storage nodes"), ``"exact"``
transfers only the dependence reach (an idealised variant for
ablations).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..errors import ActiveStorageError, LinkDownError, NodeDownError
from ..kernels.base import KernelRegistry, default_registry
from ..kernels.reductions import ReductionRegistry, default_reductions
from ..kernels.stencil import Window, window_bounds
from ..net.message import FaultNotice, Message
from ..pfs.dataserver import TAG_PFS, ReadPiece, accounted_wire_size, copy_views, fan_out
from ..pfs.datafile import FileMeta
from ..pfs.filesystem import ParallelFileSystem
from ..pfs.localio import LocalFile
from ..sim import Resource, contain_failures
from .request import EXEC_REPLY_BYTES, TAG_AS, ServerExecStats

HALO_GRANULARITIES = ("strip", "exact")


class ASServer:
    """Active-storage helper bound to one storage node."""

    def __init__(
        self,
        pfs: ParallelFileSystem,
        server: str,
        registry: Optional[KernelRegistry] = None,
        halo_granularity: str = "strip",
        max_inflight_runs: int = 4,
    ):
        if halo_granularity not in HALO_GRANULARITIES:
            raise ActiveStorageError(
                f"unknown halo granularity {halo_granularity!r};"
                f" pick from {HALO_GRANULARITIES}"
            )
        if max_inflight_runs <= 0:
            raise ActiveStorageError(
                f"max_inflight_runs must be positive, got {max_inflight_runs!r}"
            )
        self.pfs = pfs
        self.ds = pfs.servers[server]
        self.node = self.ds.node
        self.env = self.node.env
        self.transport = pfs.cluster.transport
        self.monitors = pfs.cluster.monitors
        self.registry = registry or default_registry
        self.reductions: ReductionRegistry = default_reductions
        self.halo_granularity = halo_granularity
        self.max_inflight_runs = int(max_inflight_runs)
        self._service = self.transport.serve(self, TAG_AS, "as")

    @property
    def name(self) -> str:
        return self.ds.name

    # -- request loop ------------------------------------------------------------
    def _handle(self, msg: Message):
        if not self.node.is_up:
            # A crashed helper answers nothing; requests already in its
            # mailbox die with the process state.
            self.monitors.counter("faults.dropped_requests").add()
            return
        try:
            yield from self._handle_op(msg)
        except (NodeDownError, LinkDownError) as exc:
            # A *downstream* dependency died mid-request (a peer holding
            # halo strips, a replica holder for the output, the path to
            # either).  This node is still alive, so it must answer —
            # silently dropping the request would leave the caller
            # blocked forever.
            kind = "link-down" if isinstance(exc, LinkDownError) else "node-down"
            self.monitors.counter("faults.error_replies").add()
            try:
                yield from self.transport.reply_gen(
                    msg, FaultNotice(kind=kind, error=str(exc)), EXEC_REPLY_BYTES
                )
            except (NodeDownError, LinkDownError):
                self.monitors.counter("faults.dropped_replies").add()

    def _handle_op(self, msg: Message):
        req = msg.payload
        op = req.get("op")
        if op == "exec":
            batched = int(req.get("batch", 1))
            if batched > 1:
                # One exec pass is about to serve `batched` requests.
                self.monitors.counter("as.exec.amortised_requests").add(batched - 1)
            stats = yield from self._execute(
                req["kernel"],
                req["file"],
                req["output"],
                req.get("replicate_output", True),
            )
            yield from self.transport.reply_gen(msg, stats, EXEC_REPLY_BYTES)
        elif op == "reduce":
            kernel = self.reductions.get(req["kernel"])
            payload = yield from self._reduce(kernel, req["file"])
            yield from self.transport.reply_gen(
                msg, payload, EXEC_REPLY_BYTES + kernel.result_bytes
            )
        else:
            raise ActiveStorageError(f"unknown AS op {op!r}")

    # -- reductions (dependence-free scans with tiny results) ----------------
    def _reduce(self, kernel, file: str):
        """Fold a reduction kernel over this server's primary runs."""
        meta = self.pfs.metadata.lookup(file)
        local = LocalFile(self.ds, meta)
        acc = None
        have = False
        elements = 0
        for run in local.primary_runs():
            first, count = local.run_elem_range(run)
            if count == 0:
                continue
            part = yield from self._partial_of_run(kernel, local, first, count)
            acc = kernel.combine(acc, part) if have else part
            have = True
            elements += count
        return {"partial": acc, "elements": elements, "server": self.name}

    def _partial_of_run(self, kernel, local: LocalFile, first: int, count: int):
        """One run's partial result.  A generator of its own so that the
        run's elements die at its return, not while the next run is read."""
        data = yield local.read_elems(first, count)
        yield self.node.cpu.run_kernel(kernel.name, count)
        return kernel.partial(np.asarray(data, dtype=np.float64))

    # -- execution ------------------------------------------------------------------
    def execute(self, kernel_name: str, file: str, output: str, replicate_output: bool):
        """Process: run the kernel over this server's primary runs;
        value is a :class:`ServerExecStats`."""
        return self.env.process(
            self._execute(kernel_name, file, output, replicate_output),
            name=f"as-exec:{self.name}:{kernel_name}",
        )

    def _execute(self, kernel_name: str, file: str, output: str, replicate_output: bool):
        kernel = self.registry.get(kernel_name)
        meta = self.pfs.metadata.lookup(file)
        out_meta = self.pfs.metadata.lookup(output)
        if out_meta.size != meta.size:
            raise ActiveStorageError(
                f"output {output!r} must match input size"
                f" ({out_meta.size} != {meta.size})"
            )
        pattern = kernel.pattern()
        width = meta.width if meta.shape is not None else 1
        rb = pattern.reach_before(width)
        ra = pattern.reach_after(width)

        local = LocalFile(self.ds, meta)
        stats = ServerExecStats(server=self.name)
        # Runs are executed through a bounded pipeline: while one run
        # computes, the next runs' halo fetches are already in flight
        # (standard request overlap; without it every run would stall a
        # full fetch round trip).
        slots = Resource(self.env, capacity=self.max_inflight_runs)

        def compute(first: int, count: int):
            """Gather one run's window and apply the kernel; value is the
            output run.  A generator of its own so that the window (run
            plus halo) dies at its return instead of staying pinned by
            ``run_one`` while the output is written back."""
            win_lo, win_hi = window_bounds(first, count, rb, ra, meta.n_elements)
            raw = yield from self._gather_window(
                meta,
                win_lo * meta.element_size,
                (win_hi - win_lo) * meta.element_size,
                stats,
            )
            window = Window(
                data=raw.view(meta.dtype).astype(np.float64, copy=False),
                lo=win_lo,
                first=first,
                end=first + count,
                width=width,
                n_elements=meta.n_elements,
            )
            yield self.node.cpu.run_kernel(kernel_name, count)
            return kernel.apply_window(window).astype(out_meta.dtype, copy=False)

        def run_one(first: int, count: int):
            with slots.request() as slot:
                yield slot
                result = yield from compute(first, count)
                yield from self._write_output(
                    out_meta, first, result, replicate_output, stats
                )
                stats.runs += 1
                stats.elements += count

        jobs = []
        for run in local.primary_runs():
            first, count = local.run_elem_range(run)
            if count:
                jobs.append(
                    self.env.process(
                        run_one(first, count), name=f"as-run:{self.name}:{first}"
                    )
                )
        for job in contain_failures(jobs):
            yield job
        return stats

    # -- window gathering ----------------------------------------------------------------
    def _gather_window(self, meta: FileMeta, offset: int, length: int, stats):
        """Assemble ``[offset, offset+length)`` of ``meta`` into a buffer:
        local runs via the disk, missing strips from their owners."""
        out = np.empty(length, dtype=np.uint8)

        local_pieces: List[ReadPiece] = []
        local_positions: List[int] = []  # where each piece lands in ``out``
        remote: Dict[str, list] = {}  # owner -> [(position, extent)]
        for e in meta.layout.map_extent(offset, length, prefer=self.name):
            if e.server == self.name:
                local_pieces.append(ReadPiece(e.strip, e.in_strip, e.length))
                local_positions.append(e.offset - offset)
            else:
                remote.setdefault(e.server, []).append((e.offset - offset, e))

        jobs = []
        if local_pieces:
            # Gathered in place: run -> window buffer, one copy.
            jobs.append(
                self.ds.read_pieces(meta.name, local_pieces, out, local_positions)
            )
        for owner, group in remote.items():
            jobs.append(self.env.process(self._remote_job(meta, owner, group, out, stats)))
        for job in contain_failures(jobs):
            yield job
        local_bytes = sum(p.length for p in local_pieces)
        stats.halo_bytes_local += local_bytes
        self.monitors.counter("as.halo_bytes_local").add(local_bytes)
        return out

    def _remote_job(self, meta: FileMeta, owner: str, group, out: np.ndarray, stats):
        """Fetch the needed ``(position, extent)`` pairs from ``owner``."""
        if self.halo_granularity == "strip":
            # Pull the neighbour strips in full, then slice what we need.
            run_bytes = meta.layout.run_bytes
            pieces = [
                ReadPiece(e.strip, 0, run_bytes(e.strip, e.strip + e.n_strips - 1, meta.size))
                for _, e in group
            ]
        else:
            pieces = [ReadPiece(e.strip, e.in_strip, e.length) for _, e in group]
        reply = yield from self.transport.call_gen(
            self.name,
            owner,
            {"op": "read", "file": meta.name, "pieces": pieces},
            accounted_wire_size(self.monitors, sum(e.n_strips for _, e in group)),
            tag=TAG_PFS,
        )
        fetched = sum(p.length for p in pieces)
        stats.halo_bytes_remote += fetched
        self.monitors.counter("as.halo_bytes_remote").add(fetched)

        # The reply lends the owner's runs; what lands in ``out`` is
        # copied once, straight from them.
        wanted, cursor = [], 0
        for piece, (pos, e) in zip(pieces, group):
            wanted.append((cursor + e.in_strip - piece.in_strip, pos, e.length))
            cursor += piece.length
        copy_views(reply.payload, wanted, out)
        return None

    # -- output writing ---------------------------------------------------------------------
    def _write_output(
        self,
        out_meta: FileMeta,
        first: int,
        data: np.ndarray,
        replicate_output: bool,
        stats,
    ):
        # The run is handed over (adopt=True) and frozen: its whole-strip
        # runs become the stored runs, one array shared by primary and
        # replicas.
        data = np.ascontiguousarray(data)
        data.flags.writeable = False
        raw = data.view(np.uint8).reshape(-1)
        offset = first * out_meta.element_size
        targets = fan_out(out_meta.layout, offset, raw, replicate_output)
        local = targets.pop(self.name, None)

        jobs = []
        if local is not None:
            jobs.append(self.ds.write_pieces(out_meta.name, local[0], adopt=True))
        for server, (pieces, n_strips) in targets.items():
            payload_bytes = sum(p.length for p in pieces)
            jobs.append(
                self.transport.call(
                    self.name,
                    server,
                    {"op": "write", "file": out_meta.name, "pieces": pieces, "adopt": True},
                    accounted_wire_size(self.monitors, n_strips) + payload_bytes,
                    tag=TAG_PFS,
                )
            )
        for job in contain_failures(jobs):
            yield job
        return None
