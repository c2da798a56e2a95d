"""Unit tests for the span model and the tracer's determinism contract."""

import pytest

from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    intervals_total,
    merge_intervals,
)
from repro.obs.span import rpc_reply_bytes, rpc_status
from repro.sim import Environment


class FakeClock:
    """A settable clock so tree shapes need no simulation."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestSpanLifecycle:
    def test_begin_and_finish_use_the_clock(self, tracer, clock):
        span = tracer.begin("work", cat="attempt")
        clock.t = 2.5
        span.finish()
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5

    def test_first_finish_wins(self, tracer, clock):
        span = tracer.begin("work")
        clock.t = 1.0
        span.finish(status="ok")
        clock.t = 9.0
        span.finish(status="late-duplicate")
        assert span.end == 1.0
        # Attributes still merge; the timestamp does not move.
        assert span.attrs["status"] == "late-duplicate"

    def test_parent_by_span_object_and_by_sid(self, tracer):
        parent = tracer.begin("outer", track=7)
        by_obj = tracer.begin("inner", parent=parent)
        by_sid = tracer.begin("inner2", parent=parent.sid)
        assert by_obj.parent == parent.sid
        assert by_sid.parent == parent.sid
        # A Span parent donates its track; a bare sid cannot.
        assert by_obj.track == 7

    def test_null_span_parent_means_root(self, tracer):
        # A root is a recorded span whose parent is null (``None``): one
        # opened with no parent, unlike a child of NULL_SPAN (dropped).
        root = tracer.begin("work")
        assert isinstance(root, Span)
        assert tracer.spans == [root] and root.parent is None
        assert tracer.begin("queue", parent=root).parent == root.sid

    def test_null_span_parent_drops_the_child(self, tracer):
        child = tracer.begin("queue", cat="queue", parent=NULL_SPAN)
        assert isinstance(child, NullSpan)
        assert tracer.spans == []

    def test_events_stamp_the_current_clock(self, tracer, clock):
        span = tracer.begin("work")
        clock.t = 0.75
        span.event("decision", outcome="accept")
        assert [(e.time, e.name) for e in span.events] == [(0.75, "decision")]
        assert span.events[0].attrs == {"outcome": "accept"}

    def test_sids_are_dense_and_lookup_works(self, tracer):
        spans = [tracer.begin(f"s{i}") for i in range(5)]
        assert [s.sid for s in spans] == [0, 1, 2, 3, 4]
        assert tracer.span(3) is spans[3]
        assert tracer.span(99) is None

    def test_open_spans_and_children_index(self, tracer):
        root = tracer.begin("root")
        kid = tracer.begin("kid", parent=root)
        root.finish()
        assert tracer.open_spans() == [kid]
        assert tracer.children_index() == {root.sid: [kid]}


class TestDetached:
    def test_child_finishing_after_parent_is_marked_detached(
        self, tracer, clock
    ):
        parent = tracer.begin("read")
        child = tracer.begin("rpc", parent=parent)
        clock.t = 1.0
        parent.finish()
        clock.t = 2.0
        child.finish()
        assert child.attrs.get("detached") is True

    def test_child_finishing_with_parent_is_not_detached(self, tracer, clock):
        parent = tracer.begin("read")
        child = tracer.begin("rpc", parent=parent)
        clock.t = 1.0
        child.finish()
        parent.finish()
        assert "detached" not in child.attrs

    def test_explicit_detached_attr_is_not_overwritten(self, tracer, clock):
        parent = tracer.begin("read")
        child = tracer.begin("rpc", parent=parent, detached="abandoned-hedge")
        parent.finish()
        clock.t = 1.0
        child.finish()
        assert child.attrs["detached"] == "abandoned-hedge"


class TestRequestRegistry:
    class Req:
        req_id = 11
        arrival = 0.25
        tenant = "alpha"
        file = "dem_a"
        operator = "gaussian"
        deadline = 0.5

    def test_request_begin_registers_the_root(self, tracer, clock):
        clock.t = 0.4  # admission happens after arrival
        root = tracer.request_begin(self.Req())
        assert tracer.request_span(11) is root
        assert root.start == 0.25  # backdated to arrival
        assert root.attrs["tenant"] == "alpha"
        clock.t = 1.0
        tracer.request_end(11, "completed")
        assert root.end == 1.0
        assert root.attrs["outcome"] == "completed"

    def test_unknown_request_yields_the_null_span(self, tracer):
        assert tracer.request_span(404) is NULL_SPAN
        tracer.request_end(404, "completed")  # must not raise

    def test_root_parents_its_children(self, tracer):
        root = tracer.request_begin(self.Req())
        child = tracer.begin("queue", cat="queue", parent=tracer.request_span(11))
        assert child and child.parent == root.sid

    def test_every_request_is_registered(self, tracer):
        for r in range(1, 10):
            req = self.Req()
            req.req_id = r
            root = tracer.request_begin(req)
            tracer.begin("stage", cat="queue", parent=root).finish()
            root.finish()
        assert sorted(tracer.requests) == list(range(1, 10))
        assert len([s for s in tracer.spans if s.cat == "request"]) == 9


class TestEndOn:
    def test_end_on_fires_at_the_event_completion_time(self):
        env = Environment()
        tracer = Tracer(clock=lambda: env.now)
        span = tracer.begin("rpc")
        timeout = env.timeout(1.5, value="reply")
        tracer.end_on(span, timeout, status="ok")
        assert span.end is None  # nothing happened yet
        env.run(until=2.0)
        assert span.end == 1.5
        assert span.attrs["status"] == "ok"

    def test_end_on_an_already_processed_event_ends_now(self):
        env = Environment()
        tracer = Tracer(clock=lambda: env.now)
        timeout = env.timeout(0.5)
        env.run(until=1.0)
        assert timeout.callbacks is None  # processed
        span = tracer.begin("rpc")
        tracer.end_on(span, timeout, status="ok")
        assert span.end == env.now

    def test_end_on_never_schedules_anything(self):
        env = Environment()
        tracer = Tracer(clock=lambda: env.now)
        span = tracer.begin("rpc")
        timeout = env.timeout(1.0)
        before = len(env._queue)
        tracer.end_on(span, timeout, status="ok")
        assert len(env._queue) == before

    def test_callable_attrs_receive_the_completed_event(self):
        env = Environment()
        tracer = Tracer(clock=lambda: env.now)
        span = tracer.begin("rpc")
        timeout = env.timeout(1.0, value="payload")
        tracer.end_on(
            span, timeout, status=rpc_status, echoed=lambda ev: ev._value
        )
        env.run(until=2.0)
        assert span.attrs["status"] == "ok"
        assert span.attrs["echoed"] == "payload"

    def test_attr_extractor_errors_become_none(self):
        env = Environment()
        tracer = Tracer(clock=lambda: env.now)
        span = tracer.begin("rpc")
        timeout = env.timeout(1.0)

        def boom(ev):
            raise RuntimeError("extractor bug")

        tracer.end_on(span, timeout, bytes=boom)
        env.run(until=2.0)
        assert span.end == 1.0
        assert span.attrs["bytes"] is None


class TestRpcExtractors:
    class Done:
        _ok = True

        class _Reply:
            size = 4096

        _value = _Reply()

    class Failed:
        _ok = False
        _value = RuntimeError("down")

    def test_status(self):
        assert rpc_status(self.Done()) == "ok"
        assert rpc_status(self.Failed()) == "error"

    def test_reply_bytes(self):
        assert rpc_reply_bytes(self.Done()) == 4096
        assert rpc_reply_bytes(self.Failed()) is None


class TestNullObjects:
    def test_null_tracer_and_span_are_falsy(self):
        assert not NULL_TRACER
        assert not NULL_SPAN
        assert isinstance(NULL_TRACER, NullTracer)
        assert isinstance(NULL_SPAN, NullSpan)
        assert Tracer()  # a live tracer is truthy
        assert Span(0, "x", 0.0)  # a live span is truthy

    def test_null_tracer_returns_null_spans_everywhere(self):
        assert NULL_TRACER.begin("x") is NULL_SPAN
        assert NULL_TRACER.request_span(1) is NULL_SPAN
        assert NULL_TRACER.bind(lambda: 1.0) is NULL_TRACER
        assert NULL_TRACER.now() == 0.0

    def test_null_span_ops_are_no_ops(self):
        NULL_SPAN.event("decision", outcome="x")
        assert NULL_SPAN.finish(status="ok") is NULL_SPAN
        assert NULL_SPAN.annotate(a=1) is NULL_SPAN
        assert NULL_SPAN.attrs == {}
        assert NULL_SPAN.events == []

    def test_end_on_with_null_tracer_leaves_the_event_alone(self):
        env = Environment()
        timeout = env.timeout(1.0)
        before = list(timeout.callbacks)
        NULL_TRACER.end_on(NULL_SPAN, timeout, status="ok")
        assert timeout.callbacks == before


class TestIntervalAlgebra:
    def test_merge_coalesces_overlaps_and_sorts(self):
        merged = merge_intervals([(3.0, 4.0), (0.0, 1.0), (0.5, 2.0)])
        assert merged == [(0.0, 2.0), (3.0, 4.0)]

    def test_total_measures_the_union(self):
        assert intervals_total([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
        assert intervals_total([]) == 0.0
