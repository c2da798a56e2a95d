"""Unit tests for monitors and random-stream management."""

import numpy as np
import pytest

from repro.config import PlatformSpec
from repro.hw.cpu import CPU
from repro.hw.disk import Disk
from repro.obs import NULL_TRACER, Tracer
from repro.sim import Environment, MonitorHub, RandomStreams


class TestCounters:
    def test_counter_accumulates(self, env):
        hub = MonitorHub(env)
        c = hub.counter("bytes")
        c.add(10)
        c.add(5)
        assert c.value == 15
        assert c.events == 2

    def test_counter_identity_by_name(self, env):
        hub = MonitorHub(env)
        assert hub.counter("x") is hub.counter("x")

    def test_counter_total_prefix_sum(self, env):
        hub = MonitorHub(env)
        hub.counter("net.tx.a").add(3)
        hub.counter("net.tx.b").add(4)
        hub.counter("net.rx.a").add(100)
        assert hub.counter_total("net.tx.") == 7

    def test_snapshot_is_plain_dict(self, env):
        hub = MonitorHub(env)
        hub.counter("k").add(2)
        snap = hub.snapshot()
        assert snap == {"k": 2}
        hub.counter("k").add(1)
        assert snap["k"] == 2  # snapshot is detached


class TestGauge:
    def test_time_average_integrates_level(self, env):
        hub = MonitorHub(env)
        g = hub.gauge("queue")

        def proc():
            g.set(2)
            yield env.timeout(5)
            g.set(0)
            yield env.timeout(5)

        env.run(until=env.process(proc()))
        # level 2 for 5s then 0 for 5s -> average 1.0 over 10s
        assert g.time_average(10.0) == pytest.approx(1.0)

    def test_peak_tracks_max(self, env):
        hub = MonitorHub(env)
        g = hub.gauge("depth")
        g.set(3)
        g.adjust(2)
        g.adjust(-4)
        assert g.peak == 5
        assert g.level == 1


class TestTrace:
    """Device time goes on the hub's tracer: one span per busy interval,
    recorded only while a live tracer sits on the hub."""

    SPEC = PlatformSpec(disk_bandwidth=100.0, disk_seek=1.0)

    def test_trace_disabled_by_default(self, env):
        hub = MonitorHub(env)
        assert hub.tracer is NULL_TRACER and not hub.tracer.enabled
        env.run(until=Disk(env, "n", self.SPEC, hub).read(100))
        assert hub.counter("disk.read.n").value == 100  # booked regardless

    def test_trace_records_time_and_data(self, env):
        hub = MonitorHub(env)
        hub.tracer = tracer = Tracer().bind(lambda: env.now)
        disk = Disk(env, "n", self.SPEC, hub)

        def proc():
            yield env.timeout(2)
            first = disk.read(100)  # granted at 2, busy [2, 4)
            yield disk.write(50)  # queued behind it: busy [4, 5.5)
            yield first

        env.run(until=env.process(proc()))
        assert [
            (s.name, s.cat, s.track, s.start, s.end, s.attrs, s.parent)
            for s in tracer.spans
        ] == [
            ("read", "disk", "n", 2, 4, {"size": 100}, None),
            ("write", "disk", "n", 4, 5.5, {"size": 50}, None),
        ]

    def test_spans_are_gated_by_tracer_enabled(self, env):
        hub = MonitorHub(env)
        cpu = CPU(env, "n", self.SPEC, hub)
        env.run(until=cpu.service(1.0, "untraced"))
        hub.tracer = tracer = Tracer().bind(lambda: env.now)
        hub.lane = "cell0/"
        env.run(until=cpu.service(0.5, "rpc"))
        assert [(s.name, s.cat, s.track, s.interval) for s in tracer.spans] == [
            ("rpc", "cpu", "cell0/n", (1.0, 1.5))
        ]


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        rs = RandomStreams(7)
        assert rs.stream("a") is rs.stream("a")

    def test_streams_reproducible_across_instances(self):
        a = RandomStreams(7).stream("workload").random(5)
        b = RandomStreams(7).stream("workload").random(5)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        rs = RandomStreams(7)
        a = rs.stream("a").random(5)
        b = rs.stream("b").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random(5)
        b = RandomStreams(2).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_adding_a_stream_does_not_perturb_existing(self):
        rs1 = RandomStreams(3)
        first = rs1.stream("main").random(3)
        rs2 = RandomStreams(3)
        rs2.stream("other")  # extra consumer created first
        second = rs2.stream("main").random(3)
        assert np.array_equal(first, second)

    def test_reset_recreates_streams(self):
        rs = RandomStreams(5)
        a = rs.stream("s").random(4)
        rs.reset()
        b = rs.stream("s").random(4)
        assert np.array_equal(a, b)
