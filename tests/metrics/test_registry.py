"""Tests for the declared metric catalog, the hub's histograms and the
catalog lint over a hub."""

import pytest

from repro.errors import ServeError
from repro.metrics.registry import (
    CATALOG,
    COUNTER,
    DEFAULT_BUCKETS,
    GAUGE,
    Histogram,
    MetricSpec,
    catalog_lookup,
    mistyped,
    require,
    undeclared,
)
from repro.sim import MonitorHub


@pytest.fixture
def hub(env):
    return MonitorHub(env)


class TestCatalog:
    def test_exact_match_beats_family(self):
        assert catalog_lookup("serve.latency").family is False
        assert catalog_lookup("serve.latency.alpha").name == "serve.latency."
        assert catalog_lookup("serve.latency.alpha").family is True

    def test_family_covers_instances_exact_covers_itself(self):
        flow = catalog_lookup("net.flow.c0->s1")
        assert flow is not None and flow.name == "net.flow."
        assert catalog_lookup("net.bytes_total").name == "net.bytes_total"
        assert catalog_lookup("never.booked.anywhere") is None

    def test_spec_covers(self):
        fam = MetricSpec("a.", "counter", "bytes", "h", family=True)
        exact = MetricSpec("a.b", "counter", "bytes", "h")
        assert fam.covers("a.b") and fam.covers("a.")
        assert exact.covers("a.b") and not exact.covers("a.b.c")

    def test_catalog_names_are_unique(self):
        names = [s.name for s in CATALOG]
        assert len(names) == len(set(names))

    def test_duplicate_declarations_are_rejected(self, hub):
        spec = MetricSpec("x", "counter", "bytes", "h")
        with pytest.raises(ServeError, match="twice"):
            undeclared(hub, catalog=(spec, spec))


class TestLint:
    def test_undeclared_flags_rogue_names(self, hub):
        hub.counter("serve.admitted").add()
        hub.counter("rogue.counter").add()
        hub.gauge("rogue.gauge").set(1)
        assert undeclared(hub) == ["rogue.counter", "rogue.gauge"]

    def test_family_instances_are_declared(self, hub):
        hub.counter("net.flow.c0->s1").add(10)
        hub.counter("cpu.busy.s0").add(0.5)
        assert undeclared(hub) == []

    def test_mistyped_flags_kind_disagreements(self, hub):
        hub.counter("serve.queue.depth").add()  # declared gauge
        hub.gauge("serve.admitted").set(1)  # declared counter
        assert mistyped(hub) == [
            "serve.admitted: booked as gauge, declared counter",
            "serve.queue.depth: booked as counter, declared gauge",
        ]

    def test_clean_hub_lints_clean(self, hub):
        hub.counter("serve.admitted").add()
        hub.gauge("serve.queue.depth").set(1)
        assert undeclared(hub) == []
        assert mistyped(hub) == []


class TestTypedAccess:
    def test_counter_and_gauge_go_through_the_hub(self, hub):
        require("serve.admitted", COUNTER)
        hub.counter("serve.admitted").add(2)
        assert hub.counter("serve.admitted").value == 2
        require("serve.queue.depth", GAUGE)
        hub.gauge("serve.queue.depth").set(3)
        assert hub.gauge("serve.queue.depth").level == 3

    def test_undeclared_access_raises(self, hub):
        with pytest.raises(ServeError, match="not declared"):
            require("rogue.counter", COUNTER)
        with pytest.raises(ServeError, match="not declared"):
            hub.histogram("rogue.histogram")
        assert hub.histograms == {}

    def test_kind_mismatch_raises(self, hub):
        with pytest.raises(ServeError, match="declared as a gauge"):
            require("serve.queue.depth", COUNTER)
        with pytest.raises(ServeError, match="declared as a histogram"):
            require("serve.latency", COUNTER)
        with pytest.raises(ServeError, match="gauge, used as a histogram"):
            hub.histogram("serve.queue.depth")
        assert hub.histograms == {}

    def test_histograms_are_cached_per_name(self, hub):
        h = hub.histogram("serve.latency")
        assert hub.histogram("serve.latency") is h
        assert hub.histogram("serve.latency.alpha") is not h
        assert list(hub.histograms) == ["serve.latency", "serve.latency.alpha"]


class TestHistogram:
    def test_buckets_must_be_sorted_and_nonempty(self):
        with pytest.raises(ServeError, match="sorted"):
            Histogram("x", buckets=(2.0, 1.0))
        with pytest.raises(ServeError, match="sorted"):
            Histogram("x", buckets=())

    def test_default_grid_spans_1ms_to_100s(self):
        assert DEFAULT_BUCKETS[0] == 0.001
        assert DEFAULT_BUCKETS[-1] == 100.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_observe_buckets_by_upper_bound(self):
        h = Histogram("x", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            h.observe(value)
        # counts[i] tallies samples <= buckets[i]; the last slot is +Inf.
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.total == pytest.approx(27.5)

    def test_summary_uses_the_canonical_quantiles(self):
        h = Histogram("x")
        for ms in range(1, 101):
            h.observe(ms / 1000.0)
        summary = h.summary()
        assert summary.count == 100
        assert summary.p50 == pytest.approx(0.050)
        assert summary.p99 == pytest.approx(0.099)
