"""Edge cases of the monitor hub: prefix sums, gauge semantics, reset."""

import pytest

from repro.obs import NULL_TRACER, Tracer
from repro.sim import Environment, MonitorHub


class TestCounterTotal:
    def test_prefix_matches_are_prefixes_not_substrings(self, env):
        hub = MonitorHub(env)
        hub.counter("net.tx.a").add(3)
        hub.counter("subnet.tx.a").add(100)
        assert hub.counter_total("net.tx.") == 3

    def test_a_name_equal_to_the_prefix_counts(self, env):
        hub = MonitorHub(env)
        hub.counter("disk.read_total").add(7)
        hub.counter("disk.read_total_extra").add(2)
        assert hub.counter_total("disk.read_total") == 9

    def test_empty_prefix_sums_everything(self, env):
        hub = MonitorHub(env)
        hub.counter("a").add(1)
        hub.counter("b").add(2)
        assert hub.counter_total("") == 3

    def test_no_match_is_zero_and_books_nothing(self, env):
        hub = MonitorHub(env)
        hub.counter("a").add(1)
        assert hub.counter_total("zzz") == 0
        assert "zzz" not in hub.counters


class TestGauge:
    def test_set_replaces_add_adjusts(self, env):
        hub = MonitorHub(env)
        g = hub.gauge("depth")
        g.set(5)
        assert g.level == 5
        g.adjust(+2)
        assert g.level == 7
        g.adjust(-3)
        assert g.level == 4
        g.set(1)
        assert g.level == 1

    def test_peak_tracks_high_water_mark_not_current(self, env):
        hub = MonitorHub(env)
        g = hub.gauge("depth")
        g.set(9)
        g.set(2)
        assert g.peak == 9
        assert g.level == 2

    def test_time_average_weights_by_duration(self, env):
        hub = MonitorHub(env)
        g = hub.gauge("depth")

        def proc():
            g.set(10)  # level 10 over [0, 2)
            yield env.timeout(2.0)
            g.set(0)  # level 0 over [2, 8)
            yield env.timeout(6.0)

        env.run(until=env.process(proc()))
        assert g.time_average(8.0) == pytest.approx(20.0 / 8.0)

    def test_time_average_at_time_zero_is_the_level(self, env):
        hub = MonitorHub(env)
        g = hub.gauge("depth")
        g.set(3)
        assert g.time_average(0.0) == 3


class TestReset:
    def test_reset_clears_counters_gauges_and_histograms(self, env):
        hub = MonitorHub(env)
        hub.counter("x").add(5)
        hub.gauge("y").set(2)
        hub.histogram("serve.latency").observe(0.5)
        hub.reset()
        assert hub.counters == {}
        assert hub.gauges == {}
        assert hub.histograms == {}

    def test_reset_detaches_a_live_tracer(self, env):
        hub = MonitorHub(env)
        hub.tracer = Tracer(clock=lambda: env.now)
        hub.reset()
        assert hub.tracer is NULL_TRACER
        assert not hub.tracer

    def test_gauges_after_reset_restart_from_the_current_clock(self, env):
        hub = MonitorHub(env)

        def proc():
            hub.gauge("depth").set(100)  # would dominate any average
            yield env.timeout(4.0)
            hub.reset()
            g = hub.gauge("depth")
            g.set(2)  # level 2 over [4, 8)
            yield env.timeout(4.0)

        env.run(until=env.process(proc()))
        g = hub.gauge("depth")
        # The pre-reset area is gone; only the post-reset level remains,
        # averaged over the *whole* clock by time_average's contract.
        assert g.time_average(8.0) == pytest.approx(2 * 4.0 / 8.0)
