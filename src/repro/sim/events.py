"""Event primitives for the discrete-event simulation engine.

The design follows the classic process-interaction style (as popularised
by SimPy): an :class:`Event` is a one-shot future that processes can
wait on by ``yield``-ing it.  Events carry a value (or an exception) and
a list of callbacks invoked when the event is processed by the
:class:`~repro.sim.core.Environment`.

Composite conditions (``ev1 & ev2``, ``ev1 | ev2``) are provided by
:class:`AllOf` / :class:`AnyOf`.

Fast-core notes
---------------
This module is on the engine's hottest path: a serving cell creates and
processes hundreds of thousands of events, so the constructors of
:class:`Timeout` and :class:`Initialize` and the trigger methods
(:meth:`Event.succeed`/:meth:`Event.fail`) write the heap entry
directly instead of going through ``Environment.schedule``.  The heap
entry is ``(when, key, event)`` where ``key`` packs the scheduling
priority and the monotone event id into one integer
(``priority << PRIO_SHIFT | eid``), so the scheduling contract — events
at the same timestamp process URGENT before NORMAL, FIFO within a
priority — is a single int comparison.  The packed layout is
load-bearing for bit-identical replay; see
docs/ARCHITECTURE.md#engine-internals--scheduling-contract.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

# Scheduling priorities: URGENT (process start, interrupts) runs before
# NORMAL (everything else, resource grants included) at equal timestamps.
URGENT = 0
NORMAL = 1

#: Bits reserved for the event id in a packed sort key.  2**52 events
#: is far beyond any run; keeping the key under 2**63 keeps it a fast
#: machine int in CPython.
PRIO_SHIFT = 52

#: Packed-key addend for a NORMAL-priority entry (URGENT adds nothing).
NORMAL_KEY = NORMAL << PRIO_SHIFT

#: Sentinel for "no value yet".
PENDING = object()


class Event:
    """A one-shot occurrence that processes may wait for.

    States:

    * *pending*   — created, not yet triggered.
    * *triggered* — :meth:`succeed`/:meth:`fail` called; sits in the
      environment's queue until its timestamp is reached.
    * *processed* — callbacks have run; :attr:`value` is final.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state predicates --------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception object if it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL_KEY + env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes see the exception thrown at their ``yield``.
        If nothing ever waits, the environment re-raises it at
        processing time (unless :meth:`defused`).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL_KEY + env._eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror the state of another (triggered) event onto this one.

        Useful as a callback: ``other.callbacks.append(this.trigger)``.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so the environment does not
        re-raise its exception when no process was waiting."""
        self._defused = True

    def cancel(self) -> None:
        """Lazy cancellation: detach every callback so processing this
        event at its timestamp is a no-op pop.

        This is the engine's answer to dead deadlines: a per-request
        ``rpc_timeout`` that lost its race would otherwise still walk
        its callback list — typically a condition ``_check`` — when its
        timestamp arrives.  Cancelling empties the list in place; the
        heap entry stays (removal would be O(n)) but its dispatch costs
        nothing and a cancelled *failure* is implicitly defused.

        Only cancel an event that no process will wait on again.  The
        simulated clock still advances through the cancelled timestamp
        exactly as before, so replay is unaffected.
        """
        cbs = self.callbacks
        if cbs is not None:
            cbs.clear()
        self._defused = True

    # -- composition ---------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Inlined Event.__init__ + schedule: a Timeout is born triggered,
        # and this constructor runs for every simulated think/seek/busy
        # period, so it pays to write the heap entry directly.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, NORMAL_KEY + env._eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Event"):
        self.env = env
        self.callbacks = [process._resume]  # type: ignore[attr-defined]
        self._value = None
        self._ok = True
        self._defused = False
        env._eid += 1
        # URGENT priority: packed key is the bare eid.
        heappush(env._queue, (env._now, env._eid, self))


class ConditionValue:
    """Mapping-like result of a condition: triggered events -> values."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict:
        return {ev: ev._value for ev in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a predicate over a fixed set of events to hold.

    The condition succeeds with a :class:`ConditionValue` exposing the
    values of all events that had triggered by then.  If any constituent
    event fails, the condition fails with the same exception.
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if self._evaluate(self._events, 0):
            # Degenerate condition (e.g. AllOf([])) — succeeds immediately.
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            # Only events that have actually been *processed* count: a
            # Timeout is born triggered, but until its timestamp fires
            # it has not occurred.
            if event.callbacks is None:
                value.events.append(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return  # already triggered (e.g. AnyOf satisfied earlier)
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            value = ConditionValue()
            self._populate_value(value)
            self.succeed(value)

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events


def contain_failures(events):
    """Arm a fan-out so a sibling's failure cannot crash the engine.

    A process joining several events one at a time (``for ev in events:
    yield ev``) only subscribes to the event it is *currently* waiting
    on; if a later sibling fails in the meantime, that failed event is
    processed with no waiter and the environment re-raises its exception
    out of ``run()``.  This helper appends a defusing callback to every
    event so an unwaited failure is marked handled — the joiner still
    sees the exception when its ``yield`` reaches the failed event,
    because delivery to a waiter is independent of the defused flag.

    Appending callbacks schedules nothing: timing is unchanged, and a
    fan-out where nothing fails behaves identically.  Returns ``events``
    so it can wrap the join's iterable in place.
    """

    def _defuse_if_failed(event: "Event") -> None:
        if not event._ok:
            event.defuse()

    for event in events:
        if event.callbacks is not None:
            event.callbacks.append(_defuse_if_failed)
        elif event._ok is False:
            event.defuse()
    return events


def outcome_of(event):
    """Process body translating an event's outcome into a value.

    Racing raw events inside ``any_of`` is ambiguous when one can
    *fail* (the whole condition fails without saying which leg).
    A guard never fails: it finishes with ``("ok", value)`` or
    ``("err", exc)``, and an abandoned guard completing after the
    race was decided is harmless.
    """
    try:
        value = yield event
    except Exception as exc:  # noqa: BLE001 - outcome becomes data
        return ("err", exc)
    return ("ok", value)


class AllOf(Condition):
    """Succeeds once *all* the given events have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Succeeds once *any* of the given events has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.any_events, events)
