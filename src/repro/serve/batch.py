"""Batched offload fan-out: amortise work across same-key requests.

The paper's central lever is amortisation — an expensive preparation
step (redistribution, boundary replicas) only pays off when its cost is
shared across successive operations (PAPER §V).  The serving analogue
at request granularity: N admitted requests asking for the same
``(file, kernel, params)`` read the same bytes through the same kernel,
so they can share ONE offload fan-out — per storage server one RPC
header, one halo assembly, one strip-cache pass, one kernel pass — with
the single result scattered back to every member's completion.

This module holds the mechanism-free pieces — batch keying, window
merging (draining matching requests out of the tenant queues) and
result scatter — so the DWRR dispatcher in
:mod:`repro.serve.scheduler` stays the single owner of fairness
decisions and :mod:`repro.serve.dispatch` the single owner of backend
choice.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, Iterable, List, Tuple

from .workload import ServeRequest

BatchKey = Tuple[Hashable, ...]


def batch_key(req: ServeRequest) -> BatchKey:
    """The dependence-footprint identity of a request.

    Requests agreeing on this key consume the same input bytes through
    the same kernel with the same pipeline amortisation, so one fan-out
    serves them all.  The output name is deliberately excluded — it is
    unique per request and exists only so outcomes can be scattered.
    """
    return (req.file, req.operator, max(1, int(req.pipeline_length)))


def merge_window(
    queues: Dict[str, Deque[ServeRequest]],
    leader: ServeRequest,
    batch_max: int,
) -> List[ServeRequest]:
    """Drain up to ``batch_max - 1`` queued requests sharing ``leader``'s
    key, across every tenant queue (window merging).

    Matching requests are *removed* from their queues and returned in
    drain order; the caller charges each rider's cost to its own
    tenant's deficit (fairness is per tenant, not per dispatch) and
    settles riders whose deadline already passed.  Deterministic:
    tenants are scanned in queue-dict insertion order, each queue front
    to back.
    """
    key = batch_key(leader)
    room = int(batch_max) - 1
    riders: List[ServeRequest] = []
    if room <= 0:
        return riders
    for queue in queues.values():
        if room <= 0:
            break
        matched = [r for r in queue if batch_key(r) == key][:room]
        for r in matched:
            queue.remove(r)
        riders.extend(matched)
        room -= len(matched)
    return riders


def scatter_result(batch: List[ServeRequest], result, finished: float) -> None:
    """Write one shared fan-out result back onto every member: one
    execution, N completion events."""
    for req in batch:
        req.finished = finished
        req.extra["result"] = result


@dataclass
class BatchStats:
    """Dispatch-side amortisation counters (per scheduler)."""

    #: Fan-outs issued (each holds one concurrency slot).
    dispatches: int = 0
    #: Requests served by those fan-outs.
    requests: int = 0
    #: Requests that rode an existing fan-out instead of paying their own.
    merged: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of dispatched requests that shared a fan-out."""
        return self.merged / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "dispatches": self.dispatches,
            "requests": self.requests,
            "merged": self.merged,
            "hit_rate": round(self.hit_rate, 6),
        }


def digest_bytes(raw) -> int:
    """CRC-32 of a C-contiguous bytes-like buffer (numpy arrays
    included), hashed in place."""
    return zlib.crc32(memoryview(raw).cast("B"))


def combine_digests(parts: Iterable[Tuple[int, int]]) -> int:
    """Order-independent roll-up of ``(req_id, digest)`` pairs into one
    CRC, so whole-run outputs can be compared batch-on vs batch-off."""
    acc = 0
    for req_id, digest in sorted(parts):
        acc = zlib.crc32(f"{req_id}:{digest};".encode("ascii"), acc)
    return acc
