"""The clock-driven sampler against a real simulation environment.

A tiny hand-built workload (processes bumping counters and gauges on
timeouts) exercises the dispatch-loop boundary hook end to end: samples
land exactly on the ``tick * interval`` grid, counters arrive as
per-interval deltas, trailing boundaries flush from the final state,
and two identical runs produce byte-identical artifacts.
"""

import json

import pytest

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.monitor import MonitorHub
from repro.telemetry import INTERVAL, SCRAPE_PREFIXES, AlertRule, TelemetrySampler


def bursty_run(rules=(), horizon=2.0, stop_load_at=None):
    """Drive a little workload: one admission per 0.1s until
    ``stop_load_at`` (default: the horizon), queue depth climbing by 1
    each admission.  Returns the (finalized) sampler and the hub."""
    env = Environment()
    hub = MonitorHub(env)
    sampler = TelemetrySampler(env)
    sampler.add_scope("cell", hub, rules=rules, active_until=stop_load_at)
    sampler.attach()

    until = horizon if stop_load_at is None else stop_load_at

    def workload():
        while env.now < until - 1e-9:
            yield env.timeout(0.1)
            hub.counter("serve.admitted").add()
            hub.gauge("serve.queue.depth").adjust(1.0)
            hub.counter("node.bytes").add(4096)  # outside the prefixes

    env.process(workload())
    env.run(until=horizon)
    sampler.finalize(horizon)
    return sampler, hub


class TestBoundaryGrid:
    def test_samples_land_exactly_on_the_interval_grid(self):
        sampler, _ = bursty_run()
        assert sampler.samples == 8  # 2.0s / 0.25s
        bank = sampler.scopes[0].bank
        times = [t for t, _ in bank.get("serve.admitted").points()]
        assert times == [round(i * INTERVAL, 10) for i in range(1, 9)]

    def test_counters_arrive_as_per_interval_deltas(self):
        sampler, hub = bursty_run()
        bank = sampler.scopes[0].bank
        s = bank.get("serve.admitted")
        # ~2-3 admissions per 0.25s window; deltas sum to the total.
        assert s.kind == "counter"
        assert sum(v for _, v in s.points()) == hub.counter("serve.admitted").value
        assert all(v >= 0 for _, v in s.points())

    def test_gauges_arrive_as_levels(self):
        sampler, hub = bursty_run()
        s = sampler.scopes[0].bank.get("serve.queue.depth")
        assert s.kind == "gauge"
        assert s.last()[1] == hub.gauge("serve.queue.depth").level

    def test_prefixes_filter_the_scrape(self):
        sampler, _ = bursty_run()
        bank = sampler.scopes[0].bank
        assert bank.get("node.bytes") is None
        assert "serve." in SCRAPE_PREFIXES

    def test_trailing_boundaries_flush_at_finalize(self):
        # Load stops at 1.0 but the horizon is 2.0: the sampler still
        # books every boundary through 2.0, with zero counter deltas.
        sampler, _ = bursty_run(stop_load_at=1.0)
        assert sampler.samples == 8
        s = sampler.scopes[0].bank.get("serve.admitted")
        tail = [v for t, v in s.points() if t > 1.0 + 1e-9]
        assert tail == [0.0, 0.0, 0.0, 0.0]

    def test_meta_metrics_booked_into_the_scraped_hub(self):
        sampler, hub = bursty_run()
        assert hub.counter("telemetry.samples").value == 8.0
        assert hub.gauge("telemetry.series").level == float(
            len(sampler.scopes[0].bank)
        )


class TestWiring:
    def test_duplicate_scope_rejected(self):
        env = Environment()
        hub = MonitorHub(env)
        sampler = TelemetrySampler(env)
        sampler.add_scope("cell", hub)
        with pytest.raises(SimulationError, match="duplicate telemetry scope"):
            sampler.add_scope("cell", hub)

    def test_double_attach_rejected(self):
        env = Environment()
        sampler = TelemetrySampler(env)
        sampler.attach()
        with pytest.raises(SimulationError, match="already attached"):
            sampler.attach()

    def test_one_sampler_per_environment(self):
        env = Environment()
        TelemetrySampler(env).attach()
        with pytest.raises(SimulationError, match="already attached"):
            TelemetrySampler(env).attach()

    def test_finalize_is_idempotent(self):
        sampler, _ = bursty_run()
        before = sampler.samples
        sampler.finalize(10.0)  # second call: no-op, horizon unchanged
        assert sampler.samples == before


class TestAlertsEndToEnd:
    STALL = AlertRule(
        name="admission-stall", kind="absence", series="serve.admitted",
        duration=0.5, clear_for=0.0,
    )

    def test_absence_rule_fires_when_load_stops_inside_the_horizon(self):
        sampler, _ = bursty_run(rules=(self.STALL,), stop_load_at=None)
        # Load runs to the horizon: never silent for 0.5s.
        engine = sampler.scopes[0].engine
        assert engine.ledger == []

    def test_active_until_marks_the_drain_as_quiescence(self):
        sampler, _ = bursty_run(rules=(self.STALL,), stop_load_at=1.0)
        assert sampler.scopes[0].engine.ledger == []

    def test_without_active_until_the_drain_pages(self):
        env = Environment()
        hub = MonitorHub(env)
        sampler = TelemetrySampler(env)
        sampler.add_scope("cell", hub, rules=(self.STALL,))
        sampler.attach()

        def workload():
            while env.now < 1.0 - 1e-9:
                yield env.timeout(0.1)
                hub.counter("serve.admitted").add()

        env.process(workload())
        env.run(until=2.0)
        sampler.finalize(2.0)
        engine = sampler.scopes[0].engine
        assert engine.fired_rules() == ["admission-stall"]


class TestArtifact:
    def test_payload_schema_shape(self):
        sampler, _ = bursty_run(rules=(self.__class__.RULE,))
        doc = sampler.payload("cell_test", meta={"bench": "unit"})
        assert doc["schema"] == "repro.telemetry/1"
        assert doc["label"] == "cell_test"
        assert doc["interval"] == INTERVAL
        assert doc["samples"] == 8
        assert doc["horizon"] == 2.0
        assert doc["meta"] == {"bench": "unit"}
        scope = doc["scopes"]["cell"]
        admitted = scope["series"]["serve.admitted"]
        assert admitted["kind"] == "counter"
        assert len(admitted["points"]) == 8
        rules = scope["alerts"]["rules"]
        assert [r["name"] for r in rules] == ["hot"]

    RULE = AlertRule(
        name="hot", kind="threshold", series="serve.queue.depth",
        op=">", value=3.0, clear_for=0.0,
    )

    def test_summary_block_mirrors_the_ledger(self):
        sampler, _ = bursty_run(rules=(self.RULE,))
        block = sampler.summary_block()
        assert block["interval"] == INTERVAL
        assert block["samples"] == 8
        cell = block["scopes"]["cell"]
        assert cell["series"] == len(sampler.scopes[0].bank)
        assert cell["alerts"]["fired"] == ["hot"]

    def test_two_identical_runs_are_byte_identical(self):
        a, _ = bursty_run(rules=(self.RULE,))
        b, _ = bursty_run(rules=(self.RULE,))
        dump = lambda s: json.dumps(
            s.payload("x", meta={"m": 1}), sort_keys=True
        )
        assert dump(a) == dump(b)
