"""Unit tests for the Environment and Process machinery."""

import pytest

from repro.errors import InterruptError, SimulationError
from repro.sim import Environment, Resource


def test_run_until_number_advances_clock(env):
    env.timeout(100)
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_raises(env):
    env.timeout(1)
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=3)


def test_run_drains_queue_without_until(env):
    env.timeout(7)
    env.run()
    assert env.now == 7


def test_step_on_empty_queue_raises(env):
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time(env):
    env.timeout(4)
    env.timeout(2)
    assert env.peek() == 2


def test_peek_empty_is_inf(env):
    assert env.peek() == float("inf")


def test_process_requires_generator(env):
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_process_return_value(env):
    def proc():
        yield env.timeout(1)
        return "result"

    assert env.run(until=env.process(proc())) == "result"


def test_process_exception_propagates_through_run(env):
    def proc():
        yield env.timeout(1)
        raise KeyError("inside")

    with pytest.raises(KeyError):
        env.run(until=env.process(proc()))


def test_run_until_already_processed_event(env):
    t = env.timeout(1, "v")
    env.run()
    assert env.run(until=t) == "v"


def test_process_chain_waits_on_subprocess(env):
    def child():
        yield env.timeout(3)
        return "child-value"

    def parent():
        value = yield env.process(child())
        return (env.now, value)

    assert env.run(until=env.process(parent())) == (3, "child-value")


def test_yield_non_event_raises_inside_process(env):
    def proc():
        yield "not an event"  # type: ignore[misc]

    with pytest.raises(SimulationError, match="non-event"):
        env.run(until=env.process(proc()))


def test_yield_non_event_can_be_caught(env):
    def proc():
        try:
            yield 42  # type: ignore[misc]
        except SimulationError:
            return "caught"

    assert env.run(until=env.process(proc())) == "caught"


def test_schedule_into_past_rejected(env):
    ev = env.event()
    with pytest.raises(SimulationError):
        env.schedule(ev, delay=-0.5)


class TestInterrupts:
    def test_interrupt_wakes_sleeper(self, env):
        def sleeper():
            try:
                yield env.timeout(100)
                return "overslept"
            except InterruptError as exc:
                return ("interrupted", exc.cause, env.now)

        p = env.process(sleeper())

        def killer():
            yield env.timeout(2)
            p.interrupt("wake up")

        env.process(killer())
        assert env.run(until=p) == ("interrupted", "wake up", 2)

    def test_interrupt_dead_process_raises(self, env):
        def quick():
            yield env.timeout(1)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_rejected(self, env):
        def selfish():
            yield env.timeout(0)
            env.active_process.interrupt()

        with pytest.raises(SimulationError, match="interrupt itself"):
            env.run(until=env.process(selfish()))

    def test_interrupted_process_can_rewait(self, env):
        def sleeper():
            try:
                yield env.timeout(100)
            except InterruptError:
                yield env.timeout(1)  # go back to sleep briefly
            return env.now

        p = env.process(sleeper())

        def killer():
            yield env.timeout(5)
            p.interrupt()

        env.process(killer())
        assert env.run(until=p) == 6

    def test_uncaught_interrupt_fails_process(self, env):
        def sleeper():
            yield env.timeout(100)

        p = env.process(sleeper())

        def killer():
            yield env.timeout(1)
            p.interrupt("fatal")

        env.process(killer())
        with pytest.raises(InterruptError):
            env.run(until=p)


class TestClose:
    """``Process.close()``: how a run-scoped owner ends a daemon loop."""

    def test_close_unsubscribes_but_the_event_still_fires_for_others(self, env):
        gate = env.event()
        woken = []

        def waiter(tag):
            yield gate
            woken.append(tag)

        doomed = env.process(waiter("doomed"))
        env.process(waiter("kept"))
        env.run()  # both now wait on the gate
        assert len(gate.callbacks) == 2
        doomed.close()
        assert gate.callbacks is not None and len(gate.callbacks) == 1
        assert not doomed.is_alive and doomed.target is None
        gate.succeed()
        env.run()
        assert woken == ["kept"]

    def test_close_runs_finally_and_resource_exits_exactly_once(self, env):
        res = Resource(env, capacity=1)
        log = []

        def holder():
            with res.request() as req:
                yield req
                try:
                    yield env.event()  # never fires
                finally:
                    log.append("finally")

        proc = env.process(holder())
        env.run()
        assert res.count == 1
        proc.close()
        assert log == ["finally"]
        assert res.count == 0  # the `with` block released its slot
        proc.close()
        assert log == ["finally"]

    def test_close_schedules_and_dispatches_nothing(self, env):
        def sleeper():
            yield env.event()

        proc = env.process(sleeper())
        env.run()
        dispatched, queued = env.dispatched, list(env._queue)
        proc.close()
        assert env.dispatched == dispatched
        assert env._queue == queued == []  # no completion event
        env.run()
        assert env.dispatched == dispatched

    def test_close_before_the_first_resume(self, env):
        started = []

        def never():
            started.append(True)
            yield env.timeout(1)

        proc = env.process(never())
        proc.close()
        env.run()  # the start-up event pops as a no-op
        assert started == [] and not proc.is_alive

    def test_close_is_a_no_op_on_a_finished_process(self, env):
        def quick():
            yield env.timeout(1)
            return 7

        proc = env.process(quick())
        assert env.run(until=proc) == 7
        proc.close()
        assert proc.value == 7

    def test_a_process_cannot_close_itself(self, env):
        def selfish():
            yield env.timeout(1)
            env.active_process.close()

        proc = env.process(selfish())
        with pytest.raises(SimulationError, match="cannot close itself"):
            env.run(until=proc)


class TestStoredFailures:
    """A failed process's exception is stored on the process event; its
    traceback must not own the engine's stack or a handler's frame."""

    def test_handled_failure_keeps_only_the_failing_process_frames(self, env):
        def child():
            yield env.timeout(1)
            raise ValueError("boom")

        def parent():
            job = env.process(child())
            try:
                yield job
            except ValueError:
                pass
            return job

        job = env.run(until=env.process(parent()))
        names = []
        tb = job.value.__traceback__
        while tb is not None:
            names.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert names == ["child"]  # not _resume / run, not parent


def test_is_alive_lifecycle(env):
    def proc():
        yield env.timeout(2)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_active_process_visible_inside(env):
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(0)

    p = env.process(proc())
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_two_environments_do_not_share_events():
    a, b = Environment(), Environment()

    def proc():
        yield b.timeout(1)

    with pytest.raises(SimulationError, match="different environment"):
        a.run(until=a.process(proc()))


def test_simultaneous_events_fifo_within_priority(env):
    order = []
    for name in "abc":
        t = env.timeout(1, name)
        t.callbacks.append(lambda ev: order.append(ev.value))
    env.run()
    assert order == ["a", "b", "c"]
