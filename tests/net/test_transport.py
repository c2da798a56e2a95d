"""Unit tests for point-to-point messaging and RPC."""

import pytest

from repro.config import PlatformSpec
from repro.errors import NodeDownError
from repro.hw import Cluster
from repro.net import TAG_DATA, TAG_RPC
from repro.units import GiB, MiB, us


@pytest.fixture
def cl():
    # Deterministic round numbers: 1 GiB/s NICs, 100 us latency.
    spec = PlatformSpec(nic_bandwidth=1 * GiB, nic_latency=100 * us, rpc_overhead=0.0)
    return Cluster.build(n_compute=2, n_storage=2, spec=spec)


def test_send_delivers_payload_and_size(cl, drive):
    def main():
        yield cl.transport.send("c0", "s0", 1024, {"k": "v"}, tag="t")
        msg = yield cl.transport.recv("s0", tag="t")
        return msg

    msg = drive(cl, cl.env.process(main()))
    assert msg.payload == {"k": "v"}
    assert msg.size == 1024
    assert (msg.src, msg.dst, msg.tag) == ("c0", "s0", "t")


def test_transfer_time_latency_plus_wire(cl, drive):
    size = 512 * MiB  # 0.5 s at 1 GiB/s

    def main():
        yield cl.transport.send("c0", "s0", size)
        return cl.env.now

    t = drive(cl, cl.env.process(main()))
    assert t == pytest.approx(100e-6 + 0.5, rel=1e-6)


def test_loopback_costs_no_wire_bytes(cl, drive):
    def main():
        yield cl.transport.send("c0", "c0", 4096, "self")
        msg = yield cl.transport.recv("c0")
        return msg.payload

    assert drive(cl, cl.env.process(main())) == "self"
    assert cl.monitors.counter("net.bytes_total").value == 0
    assert cl.monitors.counter("net.loopback_bytes").value == 4096


def test_recv_filters_by_tag(cl, drive):
    def main():
        cl.transport.send("c0", "s0", 10, "wrong", tag="x")
        cl.transport.send("c0", "s0", 10, "right", tag="y")
        msg = yield cl.transport.recv("s0", tag="y")
        return msg.payload

    assert drive(cl, cl.env.process(main())) == "right"


def test_recv_custom_match(cl, drive):
    def main():
        cl.transport.send("c0", "s0", 10, 1, tag="n")
        cl.transport.send("c0", "s0", 10, 2, tag="n")
        msg = yield cl.transport.recv("s0", tag="n", match=lambda m: m.payload == 2)
        return msg.payload

    assert drive(cl, cl.env.process(main())) == 2


def test_rpc_round_trip_correlates_replies(cl, drive):
    def server():
        while True:
            req = yield cl.transport.recv("s0", tag=TAG_RPC)
            yield cl.transport.reply(req, req.payload * 2, 64)

    cl.env.process(server())

    def client():
        # Two overlapping calls; replies must land with their callers.
        call1 = cl.transport.call("c0", "s0", 21, 32)
        call2 = cl.transport.call("c0", "s0", 100, 32)
        r2 = yield call2
        r1 = yield call1
        return (r1.payload, r2.payload)

    assert drive(cl, cl.env.process(client())) == (42, 200)


def test_send_to_down_node_fails(cl, drive):
    cl.node("s0").fail()

    def main():
        try:
            yield cl.transport.send("c0", "s0", 10)
        except NodeDownError:
            return "down"
        return "sent"

    assert drive(cl, cl.env.process(main())) == "down"


def test_recovered_node_accepts_traffic(cl, drive):
    cl.node("s0").fail()
    cl.node("s0").recover()

    def main():
        yield cl.transport.send("c0", "s0", 10, "hello")
        msg = yield cl.transport.recv("s0")
        return msg.payload

    assert drive(cl, cl.env.process(main())) == "hello"


def test_byte_accounting_per_flow_and_tag(cl, drive):
    def main():
        yield cl.transport.send("c0", "s1", 3000, tag=TAG_DATA)
        yield cl.transport.send("c0", "s1", 2000, tag=TAG_DATA)
        yield cl.transport.recv("s1")
        yield cl.transport.recv("s1")

    drive(cl, cl.env.process(main()))
    assert cl.monitors.counter("net.flow.c0->s1").value == 5000
    assert cl.monitors.counter("net.tag.data").value == 5000
    assert cl.monitors.counter("net.tx.c0").value == 5000
    assert cl.monitors.counter("net.rx.s1").value == 5000


def test_concurrent_sends_share_tx_bandwidth(cl, drive):
    size = 512 * MiB

    def main():
        s1 = cl.transport.send("c0", "s0", size)
        s2 = cl.transport.send("c0", "s1", size)
        yield s1 & s2
        return cl.env.now

    # Both leave c0.tx: 1 GiB total at 1 GiB/s ~= 1 s (plus latency).
    t = drive(cl, cl.env.process(main()))
    assert t == pytest.approx(1.0, rel=1e-3)


class _Helper:
    """The shape ``Transport.serve`` expects of a storage-side service."""

    def __init__(self, cluster, name, log):
        self.env = cluster.env
        self.transport = cluster.transport
        self.name = name
        self.log = log
        self.loop = cluster.transport.serve(self, "svc", "test")

    def _handle(self, msg):
        self.log.append((id(self), msg.payload))
        yield self.env.timeout(0)


class TestServe:
    """The request loop serves its owner without owning it."""

    def test_loop_serves_messages_and_dies_with_its_owner(self, cl):
        import gc
        import weakref

        gc.collect()
        gc.disable()  # reference counting alone must do it
        try:
            log = []
            helper = _Helper(cl, "s0", log)
            cl.transport.send("c0", "s0", 64, "first", tag="svc")
            cl.run()
            assert log == [(id(helper), "first")]
            ref, loop = weakref.ref(helper), helper.loop
            assert loop.is_alive and len(cl.transport.mailbox("s0")._get_waiters) == 1
            del helper
            assert ref() is None
            assert not loop.is_alive
            assert cl.transport.mailbox("s0")._get_waiters == []
        finally:
            gc.enable()

    def test_a_freed_owners_loop_cannot_swallow_its_successors_messages(self, cl):
        log = []
        first = _Helper(cl, "s0", log)
        cl.run()
        del first
        second = _Helper(cl, "s0", log)
        cl.transport.send("c0", "s0", 64, "for the successor", tag="svc")
        cl.run()
        assert log == [(id(second), "for the successor")]

    def test_owner_freed_before_the_loop_ever_ran(self, cl):
        events = cl.env.dispatched
        _Helper(cl, "s0", [])  # dropped at once; the loop never starts
        cl.run()
        assert cl.env.dispatched == events + 1  # the inert start-up event
        assert cl.transport.mailbox("s0")._get_waiters == []
