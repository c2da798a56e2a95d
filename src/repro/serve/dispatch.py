"""Load-aware execution of admitted requests against a scheme backend.

One :class:`LoadAwareExecutor` serves every dispatched request of a
run.  Under TS it fans the kernel out to the compute nodes; under NAS
it offloads unconditionally on the current layout (the paper's normal
active storage); under DAS it consults the decision engine *through a*
:class:`~repro.core.decision_cache.DecisionCache` — under serving load
the Fig. 3 workflow repeats for thousands of requests over a handful of
(kernel, layout, geometry) combinations, so verdicts are memoised — and
then applies a load-aware twist the one-shot schemes don't have:

* the predicted offload and normal-I/O byte costs are each inflated by
  the *current* in-flight depth of their target partition (requests
  already executing on the storage servers vs. the compute nodes), and
* the request is diverted to whichever path is effectively cheaper
  *right now*, so a pile-up on the storage partition spills work back
  to the idle compute partition instead of deepening the pile.

Redistribution under concurrency is fenced per file: one request takes
the file's lock, re-consults the engine on fresh metadata (another
request may have redistributed first), moves the data, and invalidates
the decision cache for the stale geometry.

Batched dispatch (scheduler ``batch_max > 1``) lands here as
:meth:`LoadAwareExecutor.execute_batch`: one backend pass — one
DecisionCache verdict per batch key, one offload fan-out or one
client-side compute — serves every member, while the in-flight load
signal still counts each *underlying request* so the diversion bias
sees true depth, not fan-out count.

Output files are unique per request (``<file>.out.<req_id>``) and are
dropped — metadata and strips — as soon as the request settles, so a
long serving run's footprint stays bounded by the in-flight window.
Every produced output is CRC'd into :attr:`LoadAwareExecutor.digests`
before the drop, so runs can prove batched and unbatched execution
yield bit-identical results.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.das_client import ActiveStorageClient
from ..core.decision import DecisionEngine, OffloadDecision
from ..core.decision_cache import DecisionCache
from ..core.request import ActiveRequest
from ..errors import ServeError
from ..kernels.base import KernelRegistry, default_registry
from ..obs.span import NULL_SPAN
from ..pfs.filesystem import ParallelFileSystem
from ..schemes.nas import NormalActiveStorageScheme
from ..schemes.traditional import TraditionalScheme
from ..sim.resources import ReadWriteLock
from .batch import batch_key, combine_digests, digest_bytes
from .workload import ServeRequest

#: Backends the serving layer can drive.
SCHEMES = ("TS", "NAS", "DAS")


class LoadAwareExecutor:
    """Execute dispatched requests under one scheme, load-aware for DAS."""

    def __init__(
        self,
        pfs: ParallelFileSystem,
        scheme: str = "DAS",
        registry: Optional[KernelRegistry] = None,
        decision_cache: Optional[DecisionCache] = None,
        load_bias: float = 0.75,
        recovery=None,
        decision_ttl: Optional[float] = None,
    ):
        if scheme not in SCHEMES:
            raise ServeError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        if load_bias < 0:
            raise ServeError(f"load_bias must be >= 0, got {load_bias!r}")
        self.pfs = pfs
        self.cluster = pfs.cluster
        self.env = pfs.cluster.env
        self.scheme = scheme
        self.registry = registry or default_registry
        self.load_bias = float(load_bias)
        self.monitors = self.cluster.monitors

        self.cache: Optional[DecisionCache] = None
        self.client: Optional[ActiveStorageClient] = None
        self._nas: Optional[NormalActiveStorageScheme] = None
        self._ts = TraditionalScheme(pfs, registry=self.registry)
        if scheme == "NAS":
            # Brings up the per-node AS helpers (exactly one client may
            # start them per cluster).
            self._nas = NormalActiveStorageScheme(pfs, registry=self.registry)
            self._nas.client.recovery = recovery
        elif scheme == "DAS":
            engine = DecisionEngine()
            env = self.env  # the clock hook must not own the executor
            self.cache = decision_cache or DecisionCache(
                engine,
                ttl=decision_ttl,
                clock=(lambda: env.now) if decision_ttl is not None else None,
            )
            self.client = ActiveStorageClient(
                pfs, home=self.cluster.home_name, engine=engine,
                registry=self.registry,
            )
            self.client.recovery = recovery

        #: In-flight request count per partition; the load signal.
        #: Batched fan-outs count every underlying request, not one.
        self._inflight: Dict[str, int] = {"offload": 0, "normal": 0}
        self._gauges = {
            path: self.monitors.gauge(f"serve.inflight.{path}")
            for path in self._inflight
        }
        #: Per-file reader-writer fence: normal-path and offload reads
        #: hold the read side; redistribution holds the write side, so a
        #: move never races an in-flight read over the same strips.
        self._file_locks: Dict[str, ReadWriteLock] = {}
        #: req_id -> CRC-32 of the request's produced output bytes.
        self.digests: Dict[int, int] = {}

    # -- scheduler interface --------------------------------------------------
    def request_cost(self, req: ServeRequest) -> int:
        """DWRR cost of a request: the bytes of input it will consume."""
        return int(self.pfs.metadata.lookup(req.file).size)

    def execute_batch(self, batch: List[ServeRequest], span=NULL_SPAN):
        """Process: serve every request of ``batch`` — one request, or
        several sharing one ``(file, kernel, params)`` key — with a
        single backend pass; value is the shared result dict.

        ``span`` is the dispatcher's attempt span (tracing only): the
        executor parents its fence/decision/backend spans under it.
        """
        leader = batch[0]
        key = batch_key(leader)
        for member in batch[1:]:
            if batch_key(member) != key:
                raise ServeError(
                    f"batch mixes keys: {batch_key(member)} != {key}"
                )
        name = f"serve-exec:{leader.req_id}"
        if len(batch) > 1:
            name += f"x{len(batch)}"
        run = {"TS": self._run_normal, "NAS": self._run_nas}.get(
            self.scheme, self._run_das
        )
        return self.env.process(run(list(batch), span), name=name)

    # -- execution ------------------------------------------------------------
    def _enter(self, path: str, n: int = 1) -> None:
        self._inflight[path] += n
        self._gauges[path].adjust(+n)

    def _exit(self, path: str, n: int = 1) -> None:
        self._inflight[path] -= n
        self._gauges[path].adjust(-n)

    def _file_lock(self, file: str) -> ReadWriteLock:
        lock = self._file_locks.get(file)
        if lock is None:
            lock = self._file_locks[file] = ReadWriteLock(self.env)
        return lock

    def _read_fence(self, file: str):
        """Claim the read side of ``file``'s fence.  Uncontended grants
        are synchronous (no event), so fault-free runs where nothing
        redistributes are event-for-event unchanged; callers must only
        ``yield`` the claim when it is not already triggered."""
        return self._file_lock(file).acquire_read()

    def write_fence(self, file: str):
        """Claim the write side of ``file``'s fence — the same lock the
        serving reads hold.  Redistribution (load-driven here, or
        partition resizes from the autoscale controller) must run under
        this claim so a move never races an in-flight read."""
        return self._file_lock(file).acquire_write()

    def _fence_span(self, span, name: str, file: str):
        """Span a *contended* fence wait (uncontended grants are
        synchronous and span-free, like they are event-free)."""
        if not span:
            return NULL_SPAN
        return self.monitors.tracer.begin(
            name, cat="fence", parent=span, file=file
        )

    def _run_path(self, batch: List[ServeRequest], span, path: str, backend, **attrs):
        """The bracket every backend pass runs inside: read fence ->
        in-flight depth -> path counter -> work span -> ``backend(work)``
        -> digest -> gather, unwound in reverse whatever the backend
        raised.  ``backend`` is a generator function running the scheme
        under the work span and returning the CRC of what it produced,
        credited to every member — one execution, N identical results."""
        leader = batch[0]
        n = len(batch)
        offload = path == "offload"
        claim = self._read_fence(leader.file)
        if not claim.triggered:
            fence = self._fence_span(span, "fence.read", leader.file)
            yield claim
            fence.finish()
        self._enter(path, n)
        self.monitors.counter(f"serve.path.{path}").add(n)
        work = NULL_SPAN
        if span:
            work = self.monitors.tracer.begin(
                "offload" if offload else "normal-io",
                cat=path,
                parent=span,
                file=leader.file,
                kernel=leader.operator,
                **attrs,
            )
        try:
            digest = yield from backend(work)
            for member in batch:
                self.digests[member.req_id] = digest
            span.event("gather", members=n)
        finally:
            work.finish()
            self._exit(path, n)
            if offload:
                self._drop_output(leader.output)
            claim.release()
        return {"path": path, "batched": n}

    def _run_normal(self, batch: List[ServeRequest], span):
        """Client-side compute (the TS path; also the DAS fallback)."""
        leader = batch[0]

        def backend(work):
            sink: Dict[str, tuple] = {}
            options: Dict[str, object] = {"results_sink": sink}
            if work:
                options["trace_span"] = work
            yield from self._ts._serve(
                leader.operator, leader.file, leader.output, options
            )
            return self._client_digest(sink)

        return self._run_path(batch, span, "normal", backend)

    def _run_nas(self, batch: List[ServeRequest], span):
        """Unconditional offload on the current (round-robin) layout."""
        assert self._nas is not None
        leader = batch[0]

        def backend(work):
            yield from self._nas._serve(
                leader.operator, leader.file, leader.output,
                {"trace_span": work} if work else {},
            )
            return self._output_digest(leader.output)

        return self._run_path(batch, span, "offload", backend)

    # -- the DAS serving path ------------------------------------------------
    def _run_das(self, batch: List[ServeRequest], span):
        assert self.client is not None and self.cache is not None
        leader = batch[0]
        n = len(batch)
        meta = self.pfs.metadata.lookup(leader.file)
        # One Fig. 3 consult per batch key, not per member.
        hits_before = self.cache.stats.hits
        decision = self.cache.decide(
            meta, leader.operator, pipeline_length=leader.pipeline_length
        )
        offload = decision.accept and self._prefer_offload(decision)
        if decision.accept and not offload:
            self.monitors.counter("serve.diverted").add(n)
        degraded = offload and self._file_degraded(meta)
        if degraded:
            # Offload must run where the primary strips live; with any
            # holder down the file is not offloadable — serve it as
            # normal I/O (whose reads can fail over to replicas).
            self.monitors.counter("faults.degraded_decisions").add(n)
            offload = False
        span.event(
            "decision",
            outcome=decision.outcome,
            cache="hit" if self.cache.stats.hits > hits_before else "miss",
            offload=offload,
            diverted=bool(decision.accept and not offload and not degraded),
            degraded=bool(degraded),
        )
        if offload and decision.redistribute_to is not None:
            decision = yield from self._ensure_layout(leader, span)
            offload = decision.accept
        if offload:

            def backend(work):
                requests = [
                    ActiveRequest(
                        operator=member.operator,
                        file=member.file,
                        output=member.output,
                        pipeline_length=member.pipeline_length,
                    )
                    for member in batch
                ]
                yield self.client.execute_offload_batch(
                    requests, decision, span=work
                )
                return self._output_digest(leader.output)

            result = yield from self._run_path(
                batch, span, "offload", backend, members=n
            )
        else:
            result = yield from self._run_normal(batch, span)
        result["decision"] = decision.outcome
        return result

    def _file_degraded(self, meta) -> bool:
        """True when any server holding the file's strips is down."""
        return any(
            not self.cluster.node(server).is_up for server in meta.layout.servers
        )

    # -- result digests -------------------------------------------------------
    def _output_digest(self, output: str) -> int:
        """CRC of the produced output file (instant verification read)."""
        data = self.pfs.client(self.cluster.home_name).collect(output)
        return digest_bytes(np.ascontiguousarray(data))

    @staticmethod
    def _client_digest(sink) -> int:
        """CRC of the client-resident results of a normal-path run (results
        never hit the PFS; concatenate the workers' shares in file order)."""
        shares = sorted(sink.values(), key=lambda item: item[0])
        return digest_bytes(
            b"".join(np.ascontiguousarray(arr).tobytes() for _, arr in shares)
        )

    def result_digest(self) -> Dict[str, int]:
        """Order-independent roll-up of every request's output CRC."""
        return {
            "count": len(self.digests),
            "crc": combine_digests(self.digests.items()),
        }

    def _prefer_offload(self, decision: OffloadDecision) -> bool:
        """Compare predicted costs inflated by current partition depth."""
        n_storage = max(1, len(self.cluster.storage_names))
        n_compute = max(1, len(self.cluster.compute_names))
        bias = self.load_bias
        effective_offload = decision.offload_cost() * (
            1.0 + bias * self._inflight["offload"] / n_storage
        )
        effective_normal = float(decision.prediction_current.normal_bytes) * (
            1.0 + bias * self._inflight["normal"] / n_compute
        )
        return effective_offload <= effective_normal

    def _ensure_layout(self, req: ServeRequest, span=NULL_SPAN):
        """Serialise redistribution of one file across concurrent requests.

        Returns the decision that holds *after* the file is (found to
        be) in its improved layout; the decision cache is invalidated
        for the pre-move geometry.
        """
        assert self.client is not None and self.cache is not None
        claim = self.write_fence(req.file)
        fence = NULL_SPAN
        if not claim.triggered:
            fence = self._fence_span(span, "fence.write", req.file)
        yield claim
        fence.finish()
        try:
            # Re-consult on fresh metadata: the lock's previous holder
            # may have already moved the file.
            meta = self.pfs.metadata.lookup(req.file)
            decision = self.cache.decide(
                meta, req.operator, pipeline_length=req.pipeline_length
            )
            if decision.accept and decision.redistribute_to is not None:
                old_layout = meta.layout  # the move swaps meta.layout in place
                move = NULL_SPAN
                if span:
                    move = self.monitors.tracer.begin(
                        "redistribute", cat="redistribute", parent=span,
                        file=req.file,
                    )
                moved = yield self.pfs.redistributor.redistribute(
                    req.file, decision.redistribute_to
                )
                move.finish(bytes=int(moved))
                self.cache.invalidate_meta(meta, layout=old_layout)
                self.monitors.counter("serve.redistributions").add()
                decision = self.cache.decide(
                    self.pfs.metadata.lookup(req.file),
                    req.operator,
                    pipeline_length=req.pipeline_length,
                )
        finally:
            claim.release()
        return decision

    # -- output lifecycle ----------------------------------------------------
    def _drop_output(self, output: str) -> None:
        """Free an offload's output file so long runs stay bounded."""
        if self.pfs.metadata.exists(output):
            self.pfs.metadata.unlink(output)
        for server in self.pfs.servers.values():
            server.drop_file(output)
