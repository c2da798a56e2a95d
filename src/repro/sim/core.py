"""The discrete-event simulation core: :class:`Environment` and :class:`Process`.

A simulation is driven by generator functions ("process functions") that
``yield`` events; the environment resumes each process when the event it
waits on is processed.  Simulated time advances only between events —
there is no wall-clock component, which makes runs exactly reproducible.

Typical use::

    env = Environment()

    def worker(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(2.0)

    env.process(worker(env, resource))
    env.run(until=10.0)

Fast-core notes
---------------
The event queue is a heap of ``(when, key, event)`` 3-tuples where
``key = (priority << PRIO_SHIFT) + eid`` packs the URGENT/NORMAL
priority and the monotone insertion id into one int, so heap ordering —
and therefore the (time, priority, FIFO) scheduling contract that makes
replay bit-identical — is decided by at most two scalar comparisons.
:meth:`Environment.run` inlines the pop/dispatch loop (``step()`` stays
as the single-event form used by tests and debuggers), and
:class:`Process` caches the generator's bound ``send``/``throw`` so the
per-resume cost is two attribute-free calls.  Every dispatched event is
counted; :func:`events_dispatched_total` feeds the
``events_per_wall_second`` field the harnesses record.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappop, heappush
from types import GeneratorType
from typing import Any, Generator, List, Optional, Tuple

from ..errors import InterruptError, SimulationError, StopSimulation
from .events import (
    NORMAL,
    NORMAL_KEY,
    PENDING,
    PRIO_SHIFT,
    URGENT,
    AllOf,
    AnyOf,
    Event,
    Initialize,
    Timeout,
)

Generator_ = Generator[Event, Any, Any]

_INF = float("inf")

#: Events dispatched across every Environment in this interpreter.
#: Monotone; harnesses snapshot it before/after an experiment to compute
#: events per wall-second.
_dispatched_total = 0


def events_dispatched_total() -> int:
    """Total events dispatched process-wide (across all environments)."""
    return _dispatched_total


@contextmanager
def untallied():
    """Exclude a region's events from the process-wide dispatch tally.

    Diagnostic replays (a bench cell re-run with the tracer or the
    telemetry sampler attached to prove non-perturbation: both observer
    replays of ``harness.replays`` run under this) dispatch real events,
    but they are verification overhead, not bench workload — counting
    them would make the recorded ``events_dispatched_total`` depend on
    which diagnostic flags were passed.  The tally is restored on exit;
    per-environment ``dispatched`` counts are untouched, so the replay
    itself can still be measured."""
    global _dispatched_total
    before = _dispatched_total
    try:
        yield
    finally:
        _dispatched_total = before


class Process(Event):
    """A running process: wraps a generator and is itself an event that
    triggers when the generator returns (value = return value) or raises
    (the process event fails).
    """

    __slots__ = ("_generator", "_target", "_name", "_send", "_throw")

    def __init__(self, env: "Environment", generator: Generator_, name: Optional[str] = None):
        if not isinstance(generator, GeneratorType):
            raise SimulationError(
                f"process() requires a generator, got {type(generator).__name__}"
            )
        # Inlined Event.__init__: processes are created per request /
        # message / IO, so construction is a hot path.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        self._name = name
        self._send = generator.send
        self._throw = generator.throw
        self._target = Initialize(env, self)

    @property
    def name(self) -> str:
        """Process name; defaults to the generator function's name.

        Resolved lazily — it is only read in error messages and reprs,
        so hot call sites can pass ``name=None`` and never pay for a
        formatted label.
        """
        n = self._name
        if n is None:
            n = self._name = getattr(self._generator, "__name__", "process")
        return n

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (or None)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process at its current yield.

        Interrupting a dead process is an error; interrupting a process
        at the same timestep it is resumed is supported (the interrupt
        wins; the original event's value is lost for this wakeup).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        env = self.env
        if self._generator is env.active_process_generator:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_ev = Event.__new__(Event)
        interrupt_ev.env = env
        interrupt_ev.callbacks = [self._resume]
        interrupt_ev._ok = False
        interrupt_ev._value = InterruptError(cause)
        interrupt_ev._defused = True
        env._eid += 1
        # URGENT priority: packed key is the bare eid.
        heappush(env._queue, (env._now, env._eid, interrupt_ev))

    def close(self) -> None:
        """End a suspended process without running the engine.

        Its ``_resume`` leaves the awaited event's callbacks (other
        waiters still see the event fire) and ``GeneratorExit`` unwinds
        the generator, so ``finally`` and ``with resource.request()``
        exits run exactly once.  Nothing is scheduled or dispatched: the
        process reads as finished with value ``None`` and whatever waits
        *on it* is abandoned.  Run-scoped owners end their daemon loops
        this way (docs/ARCHITECTURE.md, "Ownership and lifetime").  A
        no-op on a finished or already closed process.
        """
        if self._value is not PENDING:
            return
        if self.env._active_proc is self:
            raise SimulationError("a process cannot close itself")
        self._unsubscribe()
        self._ok = True
        self._value = None
        self.callbacks = None
        self._generator.close()

    def _unsubscribe(self) -> None:
        """Stop waiting on the current target; it may still fire later
        (for other waiters), but no longer resumes this process."""
        target, self._target = self._target, None
        cbs = target.callbacks if target is not None else None
        if cbs and self._resume in cbs:  # absent once cancelled
            cbs.remove(self._resume)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        env = self.env
        env._active_proc = self

        # Drop the stale target: if we are resumed by an interrupt while
        # still subscribed to another event, unsubscribe from it.
        if self._target is not event:
            self._unsubscribe()
        self._target = None

        send = self._send
        throw = self._throw
        held = None  # traceback of the failure being delivered, if any
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The event failed: throw into the process.  The
                    # exception stays stored on the event, so the frames
                    # this delivery adds to its traceback come off again
                    # (a handler's frame holds the failed event: a cycle
                    # through the traceback that pins the handler's owner).
                    event._defused = True
                    failure = event._value
                    held = failure.__traceback__
                    try:
                        next_event = throw(failure)
                    finally:
                        failure.__traceback__ = held
            except StopIteration as stop:
                # Process finished normally.
                self._ok = True
                self._value = stop.value
                env._eid += 1
                heappush(env._queue, (env._now, NORMAL_KEY + env._eid, self))
                break
            except BaseException as exc:
                # Process died with an exception -> fail the process event.
                if exc.__traceback__ is not held:
                    # Raised here rather than passed through: drop this
                    # frame from the stored traceback, or it would pin
                    # (via f_back) run() and every caller above it.
                    exc.__traceback__ = exc.__traceback__.tb_next
                self._ok = False
                self._value = exc
                env._eid += 1
                heappush(env._queue, (env._now, NORMAL_KEY + env._eid, self))
                break

            if isinstance(next_event, Event):
                if next_event.env is not env:
                    raise SimulationError(
                        "cannot yield an event from a different environment"
                    )
                cbs = next_event.callbacks
                if cbs is not None:
                    # Event still pending or queued — wait for it.
                    cbs.append(self._resume)
                    self._target = next_event
                    break
                # Event already processed — loop and feed its value immediately.
                event = next_event
            else:
                # Non-event yield: present the error as a pre-failed
                # event so the loop's throw path delivers it.  If the
                # generator catches it and yields a replacement event,
                # the loop keeps driving the process (it used to fall
                # through here and strand the generator forever).
                stub = Event.__new__(Event)
                stub.env = env
                stub.callbacks = None
                stub._value = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                stub._ok = False
                stub._defused = True
                event = stub

        env._active_proc = None

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"


class Environment:
    """Coordinates events, processes and the simulated clock."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._eid = 0
        self._active_proc: Optional[Process] = None
        self._dispatched = 0
        # Clock-advance hooks: callables invoked when the engine is
        # about to advance the clock (or idle out) while `_hooks_armed`
        # is set.  Continuous-time models (the fluid network) use this
        # to settle derived state — e.g. recompute flow rates and plant
        # the next completion timer — exactly once per distinct
        # timestamp instead of once per mutation.  Hooks may push new
        # events (at `now` or later); the dispatch loop re-peeks after
        # running them.
        self._advance_hooks: List[Any] = []
        self._hooks_armed = False
        # Telemetry boundary: when the next popped event's timestamp
        # reaches `_telemetry_next`, `_telemetry_fire(when)` runs before
        # the clock advances.  The callback observes state as of the
        # boundary instant (state is constant between events, so state
        # at boundary b equals state at b⁻) and must advance
        # `_telemetry_next` itself.  It never creates events, so the
        # event stream — and `events_dispatched_total` — is identical
        # with or without a sampler attached.
        self._telemetry_next = _INF
        self._telemetry_fire = None

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def dispatched(self) -> int:
        """Events dispatched by this environment so far."""
        return self._dispatched

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    @property
    def active_process_generator(self):
        return self._active_proc._generator if self._active_proc else None

    # -- event factories --------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator_, name: Optional[str] = None) -> Process:
        """Start a new process from a generator function's generator."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Queue a triggered event for processing at ``now + delay``."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        self._eid += 1
        heappush(
            self._queue,
            (self._now + delay, (priority << PRIO_SHIFT) + self._eid, event),
        )

    def add_advance_hook(self, hook) -> None:
        """Register a clock-advance hook (see ``_advance_hooks``).

        The hook is only invoked while :attr:`_hooks_armed` is True; the
        registrant is responsible for arming the flag whenever it has
        deferred work to settle, and the engine clears it before the
        hooks run.
        """
        self._advance_hooks.append(hook)

    def set_telemetry(self, fire, first: float) -> None:
        """Attach a telemetry boundary callback (see ``_telemetry_next``).

        ``fire(when)`` is invoked from the dispatch loop the first time
        an event at or past ``first`` is popped, before the clock
        advances to it; the callback must move ``_telemetry_next``
        forward (or to ``inf``) before returning.  Only one sampler can
        be attached per environment.
        """
        if self._telemetry_fire is not None:
            raise SimulationError("a telemetry sampler is already attached")
        self._telemetry_fire = fire
        self._telemetry_next = float(first)

    def clear_telemetry(self) -> None:
        """Detach the telemetry callback; sampling checks become inert."""
        self._telemetry_fire = None
        self._telemetry_next = _INF

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Process the single next event, advancing the clock to it."""
        if self._hooks_armed and (not self._queue or self._queue[0][0] > self._now):
            self._hooks_armed = False
            for hook in self._advance_hooks:
                hook()
        try:
            when, _key, event = heappop(self._queue)
        except IndexError:
            raise SimulationError("step(): no scheduled events") from None

        if when >= self._telemetry_next:
            self._telemetry_fire(when)
        self._now = when
        self._dispatched += 1
        global _dispatched_total
        _dispatched_total += 1
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)

        if not event._ok and not event._defused:
            # Nobody handled the failure — surface it.
            raise event._value

    def run(self, until: Optional[object] = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until no events remain.
        * ``until=<number>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until the event is processed and
          return its value (raising if it failed).
        """
        stop_at = _INF
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed.
                    if stop_event._ok:
                        return stop_event._value
                    raise stop_event._value
                stop_event.callbacks.append(self._stop_callback)
            else:
                stop_at = float(until)  # type: ignore[arg-type]
                if stop_at <= self._now:
                    raise SimulationError(
                        f"run(until={stop_at!r}) is not in the future (now={self._now!r})"
                    )

        # Inlined step() loop: local bindings for the queue and heappop,
        # dispatch in place, and one flush of the dispatch counters on
        # the way out.  Semantics are identical to `while ...: step()`.
        queue = self._queue
        pop = heappop
        n = 0
        try:
            while True:
                if self._hooks_armed and (not queue or queue[0][0] > self._now):
                    # Settle deferred continuous-time state before the
                    # clock moves (or the queue idles out); hooks may
                    # push events, so re-peek on the next iteration.
                    self._hooks_armed = False
                    for hook in self._advance_hooks:
                        hook()
                    continue
                if not queue or queue[0][0] >= stop_at:
                    break
                when, _key, event = pop(queue)
                if when >= self._telemetry_next:
                    self._telemetry_fire(when)
                self._now = when
                n += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            event = stop.args[0]
            if event._ok:
                return event._value
            raise event._value from None
        finally:
            self._dispatched += n
            global _dispatched_total
            _dispatched_total += n

        if stop_event is not None and stop_event.callbacks is not None:
            raise SimulationError(
                "run() ran out of events before the `until` event triggered"
            )
        if stop_at != _INF:
            self._now = stop_at
        if stop_event is not None:
            if stop_event._ok:
                return stop_event._value
            raise stop_event._value
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment now={self._now!r} queued={len(self._queue)}>"
