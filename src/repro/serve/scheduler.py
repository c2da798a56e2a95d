"""Admission control + deficit-weighted-round-robin fair scheduling.

The serving layer sits between the open-loop workload and the storage
backend:

* **Admission**: each tenant owns a bounded FIFO; a full queue rejects
  the arrival outright (queue-full shedding) so an abusive tenant's
  backlog is bounded and visible, never silently unbounded.
* **Fair scheduling**: a single dispatcher drains the tenant queues
  with deficit weighted round robin (DWRR).  Each round a tenant's
  deficit grows by ``quantum * weight``; it may dispatch requests while
  the head-of-line *cost* (input bytes) fits the deficit.  Weighted
  byte-fairness thus holds even when tenants mix small and large
  requests, and no backlogged tenant can be starved.
* **Deadlines**: a request whose deadline passes while queued is
  dropped at dequeue (``expired``); one that finishes past its
  deadline is counted as ``late``.
* **Retries**: executor failures are retried with exponential backoff
  up to a bounded attempt budget, then settled as ``failed``.
* **Batching** (``batch_max > 1``): when a slot opens for a leader
  request, the dispatcher drains up to ``batch_max - 1`` further queued
  requests sharing the leader's ``(file, kernel, params)`` key — across
  tenants — and issues ONE executor fan-out for the whole batch.  Every
  member's cost is charged to its *own* tenant's deficit, which may go
  negative: a rider prepays byte-debt that later quantum grants repay,
  so DWRR byte-fairness holds across batched dispatches.

The dispatcher applies backpressure by holding one concurrency slot per
in-flight fan-out: queue depth builds (and admission sheds) exactly
when the backend saturates.

* **Sharded admission slots** (``slot_groups`` set): instead of one
  global concurrency pool, each *group* (typically the primary storage
  node or layout group of the request's file, chosen by the callable)
  owns its own pool of ``concurrency`` slots.  A hot file saturating
  its own node's slots no longer starves dispatches bound for other
  nodes: a tenant whose head-of-line request is gated on a full pool
  is skipped for the round instead of blocking the dispatcher.  The
  default (``slot_groups=None``) keeps the original single-pool
  dispatcher byte-for-byte, so existing event streams are unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..errors import AdmissionError, ServeError
from ..hw.cluster import Cluster
from ..obs.span import NULL_SPAN
from ..sim.resources import Resource
from .batch import BatchStats, merge_window, scatter_result
from .slo import COMPLETED, EXPIRED, FAILED, LATE, SLOBoard
from .workload import ServeRequest, TenantSpec


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff."""

    max_attempts: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ServeError("retry policy needs max_attempts >= 1")
        if self.backoff < 0 or self.backoff_factor < 1.0:
            raise ServeError("retry policy needs backoff >= 0, factor >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff * self.backoff_factor ** (attempt - 1)


class FairScheduler:
    """Bounded per-tenant queues drained by a DWRR dispatcher."""

    def __init__(
        self,
        cluster: Cluster,
        tenants: Tuple[TenantSpec, ...],
        executor,
        board: SLOBoard,
        queue_capacity: int = 16,
        concurrency: int = 4,
        quantum: int = 256 * 1024,
        retry: Optional[RetryPolicy] = None,
        batch_max: int = 1,
        slot_groups: Optional[Callable[[ServeRequest], str]] = None,
    ):
        if queue_capacity < 1 or concurrency < 1 or quantum < 1:
            raise ServeError("queue_capacity, concurrency and quantum must be >= 1")
        if batch_max < 1:
            raise ServeError(f"batch_max must be >= 1, got {batch_max!r}")
        if not callable(getattr(executor, "execute_batch", None)):
            raise ServeError("executor needs execute_batch(batch, span=...)")
        self.cluster = cluster
        self.env = cluster.env
        self.executor = executor
        self.board = board
        self.queue_capacity = int(queue_capacity)
        self.quantum = int(quantum)
        self.batch_max = int(batch_max)
        self.batch_stats = BatchStats()
        self.retry = retry or RetryPolicy()
        self.weights: Dict[str, float] = {t.name: t.weight for t in tenants}
        self.queues: Dict[str, Deque[ServeRequest]] = {
            t.name: deque() for t in tenants
        }
        self._deficit: Dict[str, float] = {t.name: 0.0 for t in tenants}
        self._concurrency = int(concurrency)
        self._slot_groups = slot_groups
        self._slots = Resource(self.env, capacity=self._concurrency)
        self._group_slots: Dict[str, Resource] = {}
        self._kick = self.env.event()
        self._monitors = cluster.monitors
        self._depth_gauge = cluster.monitors.gauge("serve.queue.depth")
        self._dispatcher = self.env.process(self._dispatch_loop(), name="serve-dispatch")
        #: Dispatch order, for fairness assertions in tests.
        self.dispatch_log: list = []
        #: req_id -> open "queued" span (tracing only; empty otherwise).
        self._queue_spans: Dict[int, object] = {}

    def close(self) -> None:
        """End the dispatcher once the run has drained: asleep on
        ``self._kick`` it would own the scheduler (and the executor and
        PFS behind it) in a cycle reference counting never frees."""
        self._dispatcher.close()

    # -- admission ------------------------------------------------------------
    def submit(self, req: ServeRequest) -> bool:
        """Admit ``req`` into its tenant queue, or shed it.

        Returns True iff admitted.  Never blocks the caller (open loop).
        """
        queue = self.queues.get(req.tenant)
        if queue is None:
            raise AdmissionError(f"unknown tenant {req.tenant!r}")
        if len(queue) >= self.queue_capacity:
            self.board.rejected(req)
            return False
        if req.cost <= 0:
            req.cost = self.executor.request_cost(req)
        queue.append(req)
        self.board.admitted(req)
        tracer = self._monitors.tracer
        if tracer:
            root = tracer.request_begin(req)
            self._queue_spans[req.req_id] = tracer.begin(
                "queued", cat="queue", parent=root, cost=req.cost
            )
        self._depth_gauge.adjust(+1)
        if not self._kick.triggered:
            self._kick.succeed()
        return True

    def backlog(self, tenant: str) -> int:
        return len(self.queues[tenant])

    def queued_total(self) -> int:
        """Admission backlog across every tenant queue."""
        return sum(len(q) for q in self.queues.values())

    def slots_in_use(self) -> int:
        """In-flight fan-outs (load signal for cross-cell routing)."""
        if self._slot_groups is None:
            return len(self._slots.users)
        return sum(len(p.users) for p in self._group_slots.values())

    # -- DWRR dispatcher --------------------------------------------------------
    def _wait_for_slot(self, req: ServeRequest):
        """Unsharded acquisition: claim the one global pool and *wait*
        for the grant — the backpressure that builds queue depth."""
        return self._slots.request()

    def _free_slot_or_skip(self, req: ServeRequest):
        """Sharded acquisition: claim ``req``'s group pool (created on
        first use, same per-group capacity) only if it has room, else
        ``None`` — the tenant is skipped for the round instead of
        blocking the dispatcher, so a hot group cannot starve dispatches
        bound for idle groups."""
        key = self._slot_groups(req)
        pool = self._group_slots.get(key)
        if pool is None:
            pool = self._group_slots[key] = Resource(
                self.env, capacity=self._concurrency
            )
        if len(pool.users) >= pool.capacity:
            return None
        return pool.request()  # granted synchronously: pool had room

    def _dispatch_loop(self):
        """DWRR rounds over the backlogged tenants.  The two slot
        policies are not equivalent — one blocks, one skips — and differ
        only in ``acquire``; the pop -> expire -> drain riders -> book ->
        launch body after the grant is the same for both."""
        acquire = (
            self._wait_for_slot
            if self._slot_groups is None
            else self._free_slot_or_skip
        )
        while True:
            if not any(self.queues.values()):
                # Sleep until the next admission kicks us.
                self._kick = self.env.event()
                yield self._kick
            progressed = False
            blocked = False
            # One DWRR round over the currently backlogged tenants.
            for tenant, queue in [(t, q) for t, q in self.queues.items() if q]:
                self._deficit[tenant] += self.quantum * self.weights[tenant]
                while queue and queue[0].cost <= self._deficit[tenant]:
                    slot = acquire(queue[0])
                    if slot is None:
                        # Gated on a full pool; the deficit survives
                        # (the queue is non-empty).
                        blocked = True
                        break  # head-of-line within this tenant only
                    yield slot
                    if not queue:
                        slot.cancel()
                        break
                    req = queue.popleft()
                    self._depth_gauge.adjust(-1)
                    self._deficit[tenant] -= req.cost
                    self._dequeued(req)
                    if self.env.now > req.deadline:
                        # Died waiting in the queue.
                        slot.cancel()
                        self.board.settle(req, EXPIRED)
                        continue
                    batch = [req]
                    if self.batch_max > 1:
                        batch += self._drain_riders(req)
                    self.batch_stats.dispatches += 1
                    self.batch_stats.requests += len(batch)
                    self.batch_stats.merged += len(batch) - 1
                    for member in batch:
                        self.dispatch_log.append((member.tenant, member.req_id))
                    self.env.process(
                        self._attempt(batch, slot), name=f"serve-req:{req.req_id}"
                    )
                    progressed = True
                if not queue:
                    # Classic DWRR: an emptied queue forfeits its deficit —
                    # but batch-rider debt (negative deficit) survives, or a
                    # tenant could launder prepaid bytes by draining dry.
                    self._deficit[tenant] = min(0.0, self._deficit[tenant])
            if blocked and not progressed:
                # Every backlogged head is gated: sleep until a slot
                # frees or a new admission kicks.
                self._kick = self.env.event()
                yield self._kick

    def _drain_riders(self, leader: ServeRequest) -> List[ServeRequest]:
        """Merge queued same-key requests into the leader's fan-out.

        Each rider's cost is charged to its own tenant's deficit (which
        may go negative — debt repaid by later quantum grants), so the
        byte ledger reads as if every member paid for its own dispatch.
        """
        riders = []
        for rider in merge_window(self.queues, leader, self.batch_max):
            self._depth_gauge.adjust(-1)
            self._deficit[rider.tenant] -= rider.cost
            self._dequeued(rider)
            if self.env.now > rider.deadline:
                self.board.settle(rider, EXPIRED)
                continue
            riders.append(rider)
        return riders

    def _dequeued(self, req: ServeRequest) -> None:
        """Close the request's "queued" span, if tracing opened one."""
        span = self._queue_spans.pop(req.req_id, None)
        if span is not None:
            span.finish()

    def _attempt_spans(self, batch: List[ServeRequest]) -> List[object]:
        """One "attempt" span per member; the riders reference the
        leader's span id (``shared``) so the critical-path analyzer
        attributes the single shared fan-out, which hangs off the
        leader, to every member of the batch."""
        tracer = self._monitors.tracer
        spans = [
            tracer.begin(
                "attempt",
                cat="attempt",
                parent=tracer.request_span(member.req_id),
                attempt=member.attempts,
                members=len(batch),
            )
            for member in batch
        ]
        for span in spans[1:]:
            span.annotate(shared=spans[0].sid)
        return spans

    # -- per-batch execution with retry ---------------------------------------
    def _attempt(self, batch: List[ServeRequest], slot):
        tracer = self._monitors.tracer
        try:
            for req in batch:
                req.started = self.env.now
            while True:
                for req in batch:
                    req.attempts += 1
                spans = self._attempt_spans(batch) if tracer else ()
                lead_span = spans[0] if spans else NULL_SPAN
                try:
                    result = yield self.executor.execute_batch(
                        batch, span=lead_span
                    )
                except ServeError:
                    raise  # accounting bugs must not be retried into silence
                except Exception as exc:  # noqa: BLE001 - backend fault domain
                    for span in spans:
                        span.finish(status="error", error=type(exc).__name__)
                    if batch[0].attempts >= self.retry.max_attempts:
                        for req in batch:
                            req.finished = self.env.now
                            req.extra["error"] = repr(exc)
                            self.board.settle(req, FAILED)
                        return
                    for req in batch:
                        self.board.retried(req)
                    backoffs = [
                        tracer.begin(
                            "backoff",
                            cat="backoff",
                            parent=tracer.request_span(req.req_id),
                            attempt=req.attempts,
                        )
                        for req in batch
                    ] if tracer else ()
                    yield self.env.timeout(self.retry.delay(batch[0].attempts))
                    for span in backoffs:
                        span.finish()
                    continue
                scatter_result(batch, result, self.env.now)
                if spans:
                    lead_span.event("scatter", members=len(batch))
                    for span in spans:
                        span.finish(status="ok")
                for req in batch:
                    outcome = COMPLETED if req.finished <= req.deadline else LATE
                    self.board.settle(req, outcome)
                return
        finally:
            slot.cancel()
            if self._slot_groups is not None and not self._kick.triggered:
                # Sharded dispatch may be asleep waiting for this slot.
                self._kick.succeed()
