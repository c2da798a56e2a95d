"""Unit tests for traffic accounting and report rendering."""

import pytest

from repro.hw import Cluster
from repro.metrics import TrafficMeter, sustained_bandwidth
from repro.metrics.report import format_checks, format_table


@pytest.fixture
def cl():
    return Cluster.build(n_compute=2, n_storage=2)


class TestTrafficMeter:
    def test_classifies_client_vs_server_flows(self, cl, drive):
        meter = TrafficMeter(cl)

        def main():
            yield cl.transport.send("c0", "s0", 1000)
            yield cl.transport.send("s0", "s1", 500)
            yield cl.transport.send("c0", "c1", 200)
            for node, n in (("s0", 1), ("s1", 1), ("c1", 1)):
                for _ in range(n):
                    yield cl.transport.recv(node)

        drive(cl, cl.env.process(main()))
        delta = meter.delta()
        assert delta.client_bytes == 1200  # c0->s0 + c0->c1
        assert delta.server_bytes == 500
        assert delta.wire_bytes == 1700

    def test_reset_clears_baseline(self, cl, drive):
        meter = TrafficMeter(cl)

        def first():
            yield cl.transport.send("c0", "s0", 1000)
            yield cl.transport.recv("s0")

        drive(cl, cl.env.process(first()))
        meter.reset()
        assert meter.delta().wire_bytes == 0

    def test_by_tag_split(self, cl, drive):
        meter = TrafficMeter(cl)

        def main():
            yield cl.transport.send("c0", "s0", 300, tag="halo")
            yield cl.transport.send("c0", "s0", 700, tag="pfs")
            yield cl.transport.recv("s0")
            yield cl.transport.recv("s0")

        drive(cl, cl.env.process(main()))
        delta = meter.delta()
        assert delta.tag_bytes("halo") == 300
        assert delta.tag_bytes("pfs") == 700
        assert delta.tag_bytes("missing") == 0

    def test_loopback_not_counted_as_wire(self, cl, drive):
        meter = TrafficMeter(cl)

        def main():
            yield cl.transport.send("s0", "s0", 999)
            yield cl.transport.recv("s0")

        drive(cl, cl.env.process(main()))
        delta = meter.delta()
        assert delta.wire_bytes == 0
        assert delta.loopback_bytes == 999


class TestSustainedBandwidth:
    def test_simple_division(self):
        assert sustained_bandwidth(100.0, 4.0) == 25.0

    def test_zero_elapsed_is_infinite(self):
        assert sustained_bandwidth(100.0, 0.0) == float("inf")


class TestReportRendering:
    def test_format_table_alignment(self):
        rows = [
            {"scheme": "DAS", "time_s": 1.23456},
            {"scheme": "TS", "time_s": 2.0},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("scheme")
        assert "DAS" in lines[2]
        assert "1.235" in text  # 4 significant digits

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_checks_verdicts(self):
        text = format_checks([("claim one", True), ("claim two", False)])
        assert "[PASS] claim one" in text
        assert "[FAIL] claim two" in text
