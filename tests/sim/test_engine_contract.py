"""The scheduling contract that makes replay bit-identical.

docs/ARCHITECTURE.md ("Engine internals & scheduling contract") pins
the ordering rule: events at equal simulated time process in priority
class order (urgent before normal) and FIFO within a class, with
insertion ids handed out in creation order.  The committed BENCH
baselines depend on it — these tests are the executable form.

Also covered here: the clock-advance hook machinery the fluid network
settles through, lazy `Event.cancel()`, and the non-event-yield resume
path (a generator that *catches* the injected error must keep being
driven — it used to strand forever).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Environment
from repro.sim.events import NORMAL, URGENT, Event


def _scheduled(env, priority, label, log):
    """A manually triggered event that logs its label when dispatched."""
    ev = Event(env)
    ev._ok = True
    ev._value = None
    ev.callbacks.append(lambda _e: log.append(label))
    env.schedule(ev, priority=priority)
    return ev


# -- (time, priority, FIFO) ordering ----------------------------------------
@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0]),  # ties likely
            st.sampled_from([URGENT, NORMAL]),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_same_timestamp_order_is_priority_then_insertion(entries):
    env = Environment()
    log = []
    for i, (delay, priority) in enumerate(entries):
        ev = Event(env)
        ev._ok = True
        ev._value = None
        ev.callbacks.append(lambda _e, i=i: log.append(i))
        env.schedule(ev, priority=priority, delay=delay)
    env.run()
    # Stable sort by (time, priority) over creation order is exactly
    # the contract; insertion order breaks the remaining ties.
    expected = sorted(range(len(entries)), key=lambda i: (entries[i][0], entries[i][1]))
    assert log == expected


@given(
    delays=st.lists(st.sampled_from([0.0, 0.5, 0.5, 1.0]), min_size=1, max_size=20)
)
@settings(max_examples=100, deadline=None)
def test_replay_dispatches_identical_sequence(delays):
    def run_once():
        env = Environment()
        log = []

        def worker(i, d):
            yield env.timeout(d)
            log.append((i, env.now))
            yield env.timeout(d)
            log.append((i, env.now))

        for i, d in enumerate(delays):
            env.process(worker(i, d))
        env.run()
        return log, env.dispatched

    first = run_once()
    second = run_once()
    assert first == second


@given(
    delays=st.lists(st.sampled_from([0.0, 0.5, 0.5, 1.0]), min_size=2, max_size=20),
    doomed=st.integers(min_value=0, max_value=19),
    when=st.sampled_from([0.0, 0.25, 0.75]),
)
@settings(max_examples=100, deadline=None)
def test_close_never_reorders_the_remaining_heap(delays, doomed, when):
    """``Process.close()`` pushes and pops nothing: everyone else's
    wake-ups keep their order, whenever the close lands."""
    doomed %= len(delays)

    def run_once(close):
        env = Environment()
        log = []

        def worker(i, d):
            yield env.timeout(d)
            log.append((i, env.now))
            yield env.timeout(d)
            log.append((i, env.now))

        procs = [env.process(worker(i, d)) for i, d in enumerate(delays)]
        if when:
            env.run(until=when)
        if close:
            heap = [entry for entry in env._queue]
            procs[doomed].close()
            assert env._queue == heap
        env.run()
        return [entry for entry in log if entry[0] != doomed]

    assert run_once(close=True) == run_once(close=False)


def test_urgent_processes_before_normal_at_equal_time():
    env = Environment()
    log = []
    _scheduled(env, NORMAL, "normal-1", log)
    _scheduled(env, URGENT, "urgent", log)
    _scheduled(env, NORMAL, "normal-2", log)
    env.run()
    assert log == ["urgent", "normal-1", "normal-2"]


# -- clock-advance hooks ----------------------------------------------------
def test_advance_hook_runs_once_before_clock_moves():
    env = Environment()
    fired = []
    env.add_advance_hook(lambda: fired.append(env.now))

    def proc(env):
        env._hooks_armed = True
        yield env.timeout(0.0)  # same-instant event: hook must not run yet
        env._hooks_armed = True  # re-arm at the same instant
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    # Exactly one settle as the clock leaves t=0: the same-instant
    # timeout did not trigger it, and both armings coalesced.
    assert fired == [0.0]


def test_advance_hook_not_called_unless_armed():
    env = Environment()
    fired = []
    env.add_advance_hook(lambda: fired.append(env.now))

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert fired == []


def test_advance_hook_runs_before_idle_out():
    # A hook armed during the *last* event's dispatch still runs — the
    # engine settles hooks before concluding the queue has drained, and
    # events the hook plants are processed rather than lost (this is
    # how fluid completion timers survive toward `run(until=...)`).
    env = Environment()
    fired = []

    def plant():
        t = env.timeout(2.0)
        t.callbacks.append(lambda _e: fired.append(env.now))

    env.add_advance_hook(plant)

    def proc(env):
        yield env.timeout(1.0)
        env._hooks_armed = True  # armed as the final event is dispatched

    env.process(proc(env))
    env.run()
    assert fired == [3.0]
    assert env.now == 3.0


def test_step_honours_advance_hooks():
    env = Environment()
    fired = []
    env.add_advance_hook(lambda: fired.append(env.now))
    env.timeout(1.0)
    env._hooks_armed = True
    env.step()
    assert fired == [0.0]
    assert env.now == 1.0


# -- lazy cancellation ------------------------------------------------------
def test_cancelled_timeout_is_a_no_op_but_clock_still_advances():
    env = Environment()
    fired = []
    t = env.timeout(1.0)
    t.callbacks.append(lambda _e: fired.append("boom"))
    t.cancel()
    env.run()
    assert fired == []
    assert env.now == 1.0  # the heap entry still paced the clock


def test_cancelled_failure_is_defused():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("lost race"))
    ev.cancel()
    env.run()  # must not re-raise the unobserved failure


def test_cancel_after_processing_is_harmless():
    env = Environment()
    t = env.timeout(1.0)
    env.run()
    assert t.processed
    t.cancel()


# -- non-event-yield resume path --------------------------------------------
def test_yielding_a_non_event_fails_the_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_generator_that_catches_the_non_event_error_keeps_running():
    # Regression: the resume loop used to fall through after a
    # non-event yield, stranding the generator forever even if it
    # handled the error and yielded a real event next.
    env = Environment()
    log = []

    def resilient(env):
        try:
            yield "not an event"
        except SimulationError:
            log.append("caught")
        yield env.timeout(1.0)
        log.append("done")

    proc = env.process(resilient(env))
    env.run()
    assert log == ["caught", "done"]
    assert not proc.is_alive
