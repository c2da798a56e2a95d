"""The Active Storage Client (paper Fig. 2) and the DAS orchestration.

Applications hand :class:`~repro.core.request.ActiveRequest` objects to
the client.  The client runs the decision engine; on acceptance it
(optionally) reconfigures the file's distribution, registers the output
file, and fans the exec command out to the AS helper on every storage
node — the paper's improved parallel I/O path "similarly as done in
[Son et al.]".  On rejection the request is reported back so the caller
serves it as normal I/O (the TS path).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import (
    ActiveStorageError,
    LinkDownError,
    NodeDownError,
    OffloadRejectedError,
    RPCTimeoutError,
)
from ..kernels.base import KernelRegistry, default_registry
from ..kernels.reductions import default_reductions
from ..net.message import FaultNotice
from ..obs.span import NULL_SPAN, rpc_reply_bytes, rpc_status
from ..pfs.filesystem import ParallelFileSystem
from ..sim import contain_failures, outcome_of
from .as_server import ASServer
from .decision import DecisionEngine, OffloadDecision
from .features import KernelFeatures
from .request import (
    EXEC_ITEM_BYTES,
    EXEC_REQUEST_BYTES,
    TAG_AS,
    ActiveRequest,
    ActiveResult,
    ServerExecStats,
    exec_request_wire_size,
)

#: Exec RPCs cover a whole file's kernel pass, so their fault-detection
#: timeout is a multiple of the (read-sized) ``rpc_timeout``.
EXEC_TIMEOUT_FACTOR = 8


class ActiveStorageClient:
    """Client-side entry point for active-storage I/O."""

    def __init__(
        self,
        pfs: ParallelFileSystem,
        home: str,
        engine: Optional[DecisionEngine] = None,
        registry: Optional[KernelRegistry] = None,
        halo_granularity: str = "strip",
        start_servers: bool = True,
    ):
        self.pfs = pfs
        self.cluster = pfs.cluster
        self.env = pfs.cluster.env
        self.transport = pfs.cluster.transport
        self.home = home
        self.registry = registry or default_registry
        self.engine = engine or DecisionEngine(
            features=KernelFeatures.from_registry(self.registry)
        )
        #: Optional :class:`~repro.faults.RecoveryPolicy`; ``None`` keeps
        #: the original fan-out path untouched.
        self.recovery = None
        self.servers: Dict[str, ASServer] = {}
        if start_servers:
            for name in pfs.server_names:
                self.servers[name] = ASServer(
                    pfs, name, registry=self.registry, halo_granularity=halo_granularity
                )

    # -- decision-only entry (usable without running anything) ---------------
    def decide(self, request: ActiveRequest) -> OffloadDecision:
        meta = self.pfs.metadata.lookup(request.file)
        return self.engine.decide(
            meta, request.operator, pipeline_length=request.pipeline_length
        )

    # -- full submission ------------------------------------------------------------
    def submit(self, request: ActiveRequest, force_offload: bool = False):
        """Process: run the Fig. 3 workflow end to end.

        Value is an :class:`ActiveResult`.  When the engine rejects the
        request the process *fails* with :class:`OffloadRejectedError`
        carrying the decision, so callers fall back to normal I/O —
        unless ``force_offload`` is set (used to reproduce the NAS
        behaviour of offloading unconditionally).
        """
        return self.env.process(
            self._submit(request, force_offload), name=f"as-submit:{request.operator}"
        )

    def _submit(self, request: ActiveRequest, force_offload: bool):
        started = self.env.now
        meta = self.pfs.metadata.lookup(request.file)
        decision = self.engine.decide(
            meta, request.operator, pipeline_length=request.pipeline_length
        )
        if not decision.accept and not force_offload:
            raise OffloadRejectedError(decision)

        redistribution_bytes = 0
        if decision.accept and decision.redistribute_to is not None:
            redistribution_bytes = yield self.pfs.redistributor.redistribute(
                request.file, decision.redistribute_to
            )
            meta = self.pfs.metadata.lookup(request.file)

        result = yield from self._execute(
            request, decision, started, redistribution_bytes
        )
        return result

    def execute_offload(
        self, request: ActiveRequest, decision: OffloadDecision, span=NULL_SPAN
    ):
        """Process: run the offload fan-out without consulting the
        engine (schemes use this to pin behaviour, e.g. plain NAS)."""
        return self.env.process(
            self._execute(request, decision, self.env.now, 0, span=span),
            name=f"as-exec-all:{request.operator}",
        )

    def execute_offload_batch(
        self, requests, decision: OffloadDecision, span=NULL_SPAN
    ):
        """Process: ONE offload fan-out serving every request of a batch.

        All requests must agree on (file, operator, pipeline) — they ask
        for the same computation over the same bytes.  Per storage server
        a single exec RPC goes out whose header is paid once
        (``EXEC_REQUEST_BYTES``) with one ``EXEC_ITEM_BYTES`` descriptor
        per extra member; halo assembly, strip-cache traffic and the
        kernel pass happen once.  Value is the shared
        :class:`ActiveResult` (lead request's output file)."""
        requests = list(requests)
        if not requests:
            raise ActiveStorageError("empty offload batch")
        lead = requests[0]
        for member in requests[1:]:
            if (member.file, member.operator) != (lead.file, lead.operator):
                raise ActiveStorageError(
                    "offload batch mixes (file, kernel) keys:"
                    f" {(member.file, member.operator)}"
                    f" != {(lead.file, lead.operator)}"
                )
        return self.env.process(
            self._execute(
                lead, decision, self.env.now, 0, batch=len(requests), span=span
            ),
            name=f"as-exec-batch:{lead.operator}x{len(requests)}",
        )

    def _execute(
        self,
        request: ActiveRequest,
        decision: OffloadDecision,
        started: float,
        redistribution_bytes: int,
        batch: int = 1,
        span=NULL_SPAN,
    ):
        meta = self.pfs.metadata.lookup(request.file)
        self._register_output(request, meta)

        monitors = self.cluster.monitors
        tracer = monitors.tracer
        if span is None:
            span = NULL_SPAN
        wire = exec_request_wire_size(batch)
        calls = []
        for server in self.pfs.server_names:
            monitors.counter("as.rpc.header_bytes").add(EXEC_REQUEST_BYTES)
            if batch > 1:
                monitors.counter("as.rpc.item_bytes").add(
                    EXEC_ITEM_BYTES * (batch - 1)
                )
            payload = {
                "op": "exec",
                "kernel": request.operator,
                "file": request.file,
                "output": request.output,
                "replicate_output": request.replicate_output,
                "batch": batch,
            }
            rpc = NULL_SPAN
            if span:
                rpc = tracer.begin(
                    f"as-exec:{server}",
                    cat="rpc",
                    parent=span,
                    server=server,
                    batch=batch,
                )
            call = self._call_or_ft(server, payload, wire, span=rpc)
            if rpc:
                # Close the span at the exact completion step of the
                # pending call via a plain event callback — no new sim
                # events, so tracing never perturbs the run.
                tracer.end_on(rpc, call, status=rpc_status, bytes=rpc_reply_bytes)
            calls.append(call)
        per_server: Dict[str, ServerExecStats] = {}
        for call in contain_failures(calls):
            reply = yield call
            stats = self._check_reply(reply)
            per_server[stats.server] = stats

        total_elements = sum(s.elements for s in per_server.values())
        if total_elements != meta.n_elements:
            raise ActiveStorageError(
                f"offload covered {total_elements} of {meta.n_elements} elements"
                f" of {request.file!r}"
            )
        return ActiveResult(
            request=request,
            decision=decision,
            offloaded=True,
            elapsed=self.env.now - started,
            redistribution_bytes=redistribution_bytes,
            per_server=per_server,
        )

    # -- reductions -----------------------------------------------------------
    def submit_reduction(self, operator: str, file: str):
        """Process: offload a reduction (dependence-free scan with a
        tiny result) to every storage server and merge the partials.

        Value is a dict with ``value`` (the finalised result),
        ``elapsed`` and ``result_bytes_moved``.  Reductions are the
        paper's "desired access pattern" — no dependence, so the
        decision is trivially in favour of offloading."""
        return self.env.process(
            self._submit_reduction(operator, file), name=f"as-reduce:{operator}"
        )

    def _submit_reduction(self, operator: str, file: str):
        kernel = default_reductions.get(operator)
        meta = self.pfs.metadata.lookup(file)
        started = self.env.now
        calls = [
            self._call_or_ft(
                server,
                {"op": "reduce", "kernel": operator, "file": file},
                EXEC_REQUEST_BYTES,
            )
            for server in self.pfs.server_names
        ]
        acc = None
        have = False
        covered = 0
        moved = 0
        for call in contain_failures(calls):
            reply = yield call
            payload = self._check_reply(reply)
            covered += payload["elements"]
            moved += reply.size
            if payload["partial"] is None:
                continue
            acc = kernel.combine(acc, payload["partial"]) if have else payload["partial"]
            have = True
        if covered != meta.n_elements:
            raise ActiveStorageError(
                f"reduction covered {covered} of {meta.n_elements} elements"
                f" of {file!r}"
            )
        return {
            "value": kernel.finalize(acc),
            "elapsed": self.env.now - started,
            "result_bytes_moved": moved,
        }

    # -- fault-tolerant RPC plumbing ------------------------------------------
    def _call_or_ft(self, server: str, payload, wire: float, span=NULL_SPAN):
        """One outbound AS RPC: the plain transport call when no
        recovery policy is attached, a timeout/retry wrapper otherwise."""
        if self.recovery is None:
            return self.transport.call(self.home, server, payload, wire, tag=TAG_AS)
        return self.env.process(
            self._ft_call(server, payload, wire, span=span),
            name=f"as-ft:{self.home}->{server}",
        )

    def _ft_call(self, server: str, payload, wire: float, span=NULL_SPAN):
        """Exec/reduce RPC with detection: per-attempt timeout and
        exponential backoff.  There is no replica to fail over to — an
        offload *must* run where the primary strips live — so exhausted
        attempts surface the error for the caller's degraded-mode
        fallback (normal I/O with replica failover)."""
        policy = self.recovery
        monitors = self.cluster.monitors
        timeout = policy.rpc_timeout * EXEC_TIMEOUT_FACTOR
        attempt = 1
        while True:
            call = self.transport.call(self.home, server, payload, wire, tag=TAG_AS)
            guard = self.env.process(
                outcome_of(call), name=f"as-ft-guard:{self.home}->{server}"
            )
            deadline = self.env.timeout(timeout)
            yield self.env.any_of([guard, deadline])
            if guard.processed:
                status, value = guard.value
                if status == "ok":
                    return value
                err = value
            else:
                monitors.counter("faults.rpc_timeouts").add()
                span.event("rpc.timeout", attempt=attempt)
                err = RPCTimeoutError(
                    f"AS RPC to {server!r} unanswered after {timeout:g}s"
                )
            if attempt >= policy.max_attempts:
                raise err
            monitors.counter("faults.retries").add()
            span.event("retry", attempt=attempt)
            backoff = policy.delay(attempt)
            if backoff:
                yield self.env.timeout(backoff)
            attempt += 1

    @staticmethod
    def _check_reply(reply):
        """Unwrap an AS reply, translating a server's
        :class:`~repro.net.message.FaultNotice` back into its exception."""
        payload = reply.payload
        if isinstance(payload, FaultNotice):
            exc_cls = LinkDownError if payload.kind == "link-down" else NodeDownError
            raise exc_cls(payload.error)
        return payload

    def _register_output(self, request: ActiveRequest, meta) -> None:
        """Create the output file record: same geometry, kernels emit
        float64, laid out like the (possibly redistributed) input."""
        if self.pfs.metadata.exists(request.output):
            raise ActiveStorageError(f"output file {request.output!r} already exists")
        out_dtype = np.dtype(np.float64)
        if meta.dtype != out_dtype:
            raise ActiveStorageError(
                f"active-storage kernels operate on float64 files, got {meta.dtype}"
            )
        self.pfs.metadata.create(
            request.output,
            meta.size,
            meta.layout,
            dtype=out_dtype,
            shape=meta.shape,
        )
