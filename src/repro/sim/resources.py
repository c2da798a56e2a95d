"""Shared-resource primitives for the simulation engine.

* :class:`Resource` — capacity-limited resource with FIFO queueing
  (models NIC ports, disk arms, CPU cores).
* :class:`Store` / :class:`FilterStore` — queues of Python objects
  (model mailboxes and RPC channels).

Requests are events; processes ``yield`` them and use the returned
request token with ``release``.  ``Resource.request()`` supports the
context-manager protocol so the idiomatic form is::

    with resource.request() as req:
        yield req
        ... hold the resource ...
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..errors import SimulationError
from .core import Environment
from .events import PENDING, Event


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "proc")

    def __init__(self, resource: "Resource"):
        # Inlined Event.__init__ (hot path: one per device op).
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        self.proc = env.active_process
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot (if granted) or withdraw from the queue."""
        self.resource.release(self)


class Resource:
    """A capacity-limited resource with FIFO queueing."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError(f"resource capacity must be positive, got {capacity!r}")
        self.env = env
        self._capacity = capacity
        self.users: List[Request] = []
        self.queue: List[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def _do_request(self, req: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)

    def release(self, req: Request) -> None:
        """Return a slot to the pool, waking the next queued request."""
        if req in self.users:
            self.users.remove(req)
            self._grant_next()
        else:
            # Withdrawing an un-granted request from the queue is legal
            # (e.g. a process interrupted while waiting).
            try:
                self.queue.remove(req)
            except ValueError:
                pass

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.pop(0)
            if nxt._value is not PENDING:
                continue  # stale (cancelled) request
            self.users.append(nxt)
            nxt.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} users={len(self.users)}/{self._capacity}"
            f" queued={len(self.queue)}>"
        )


class RWClaim(Event):
    """A claim on a :class:`ReadWriteLock` (shared or exclusive)."""

    __slots__ = ("lock", "write")

    def __init__(self, lock: "ReadWriteLock", write: bool):
        super().__init__(lock.env)
        self.lock = lock
        self.write = write

    def release(self) -> None:
        """Give the claim back (granted) or withdraw it (still queued)."""
        self.lock._release(self)


class ReadWriteLock:
    """Shared readers / exclusive writer with strict FIFO fairness.

    The queue holds read and write claims in arrival order: a waiting
    writer blocks readers that arrive after it (no writer starvation),
    and once the writer releases, the readers queued behind it are
    granted together up to the next queued writer (no reader
    starvation).

    An *uncontended* read is granted synchronously — the returned claim
    is already triggered and **no event is scheduled**, so fencing a hot
    read path costs nothing when no writer is active.  Callers must
    therefore only ``yield`` a claim that is not yet triggered::

        claim = lock.acquire_read()
        if not claim.triggered:
            yield claim
        try:
            ...
        finally:
            claim.release()

    Write grants always go through an event (mirroring
    :meth:`Resource.request` timing), so ``yield lock.acquire_write()``
    is always correct.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._readers = 0
        self._writer = False
        self._queue: List[RWClaim] = []

    @property
    def readers(self) -> int:
        return self._readers

    @property
    def write_locked(self) -> bool:
        return self._writer

    def acquire_read(self) -> RWClaim:
        claim = RWClaim(self, write=False)
        if not self._writer and not self._queue:
            # Synchronous grant: triggered but never scheduled, so the
            # uncontended fast path adds zero events to the queue.
            self._readers += 1
            claim._ok = True
            claim._value = None
        else:
            self._queue.append(claim)
        return claim

    def acquire_write(self) -> RWClaim:
        claim = RWClaim(self, write=True)
        if not self._writer and self._readers == 0 and not self._queue:
            self._writer = True
            claim.succeed()
        else:
            self._queue.append(claim)
        return claim

    def _release(self, claim: RWClaim) -> None:
        if claim._value is PENDING:
            # Withdrawing a claim that was never granted.
            try:
                self._queue.remove(claim)
            except ValueError:
                pass
        elif claim.write:
            self._writer = False
        else:
            self._readers -= 1
        self._grant()

    def _grant(self) -> None:
        while self._queue:
            head = self._queue[0]
            if head.write:
                if self._writer or self._readers:
                    return
                self._queue.pop(0)
                self._writer = True
                head.succeed()
                return
            if self._writer:
                return
            self._queue.pop(0)
            self._readers += 1
            head.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        holder = "W" if self._writer else f"R{self._readers}"
        return f"<ReadWriteLock {holder} queued={len(self._queue)}>"


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        # Inlined Event.__init__ (hot path: one per message).
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.item = item
        store._put_waiters.append(self)
        store._trigger()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        # Inlined Event.__init__ (hot path: one per receive).
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        store._get_waiters.append(self)
        store._trigger()


class FilterStoreGet(StoreGet):
    __slots__ = ("filter",)

    def __init__(self, store: "FilterStore", filter: Callable[[Any], bool]):
        self.filter = filter
        super().__init__(store)


class Store:
    """A FIFO queue of arbitrary items with optional capacity bound.

    The workhorse of the simulated message fabric: mailboxes, RPC reply
    channels and data-server work queues are all Stores.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: List[StorePut] = []
        self._get_waiters: List[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _trigger(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._put_waiters and len(self.items) < self.capacity:
                put = self._put_waiters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progress = True
            if self._get_waiters and self.items:
                got = self._match(self._get_waiters)
                if got is not None:
                    progress = True

    def _match(self, waiters: List[StoreGet]) -> Optional[StoreGet]:
        get = waiters.pop(0)
        item = self.items.pop(0)
        get.succeed(item)
        return get

    def __len__(self) -> int:
        return len(self.items)


class FilterStore(Store):
    """A :class:`Store` whose consumers can select items by predicate."""

    def get(self, filter: Callable[[Any], bool] = lambda item: True) -> FilterStoreGet:  # type: ignore[override]
        return FilterStoreGet(self, filter)

    def _match(self, waiters: List[StoreGet]) -> Optional[StoreGet]:
        # Scan waiters in order; serve the first whose predicate matches
        # some stored item.  Unmatched waiters stay queued.  Hot under
        # load (every put rescans waiters x items), so the inner loop is
        # attribute-free: every waiter created through FilterStore.get
        # carries a `filter` callable.
        items = self.items
        for wi, get in enumerate(waiters):
            predicate = get.filter  # type: ignore[attr-defined]
            for ii, item in enumerate(items):
                if predicate(item):
                    waiters.pop(wi)
                    items.pop(ii)
                    get.succeed(item)
                    return get
        return None
