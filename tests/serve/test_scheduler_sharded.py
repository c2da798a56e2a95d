"""Unit tests for sharded admission slots (FairScheduler slot_groups)."""

import pytest

from repro.hw import Cluster
from repro.serve import COMPLETED, FairScheduler, SLOBoard, ServeRequest, TenantSpec

QUANTUM = 1024


class StubExecutor:
    """Fixed-service-time backend recording per-request finish times."""

    def __init__(self, cluster, service=0.5):
        self.env = cluster.env
        self.service = service
        self.finished = {}

    def request_cost(self, req):
        return QUANTUM

    def execute_batch(self, batch, span=None):
        return self.env.process(self._run(batch[0]))

    def _run(self, req):
        yield self.env.timeout(self.service)
        self.finished[req.req_id] = self.env.now
        return f"ok:{req.req_id}"


def make_request(req_id, tenant, file="f", deadline=100.0):
    return ServeRequest(
        req_id=req_id,
        tenant=tenant,
        operator="gaussian",
        file=file,
        arrival=0.0,
        deadline=deadline,
        cost=QUANTUM,
    )


def build(tenants, service=0.5, concurrency=1, slot_groups=None):
    cluster = Cluster.build(n_compute=1, n_storage=1)
    executor = StubExecutor(cluster, service=service)
    board = SLOBoard(cluster.monitors)
    sched = FairScheduler(
        cluster,
        tenants,
        executor,
        board,
        quantum=QUANTUM,
        queue_capacity=32,
        concurrency=concurrency,
        slot_groups=slot_groups,
    )
    return cluster, executor, board, sched


def by_file(req):
    return req.file


class TestShardedSlots:
    def test_default_path_builds_no_group_pools(self):
        cluster, executor, board, sched = build((TenantSpec("t", rate=1.0),))
        sched.submit(make_request(1, "t"))
        cluster.run()
        assert sched._group_slots == {}
        assert board.tenants["t"].outcomes[COMPLETED] == 1

    def test_one_pool_per_group_at_full_capacity_each(self):
        tenants = (TenantSpec("a", rate=1.0), TenantSpec("b", rate=1.0))
        cluster, executor, board, sched = build(
            tenants, concurrency=2, slot_groups=by_file
        )
        sched.submit(make_request(1, "a", file="f1"))
        sched.submit(make_request(2, "b", file="f2"))
        cluster.run()
        assert sorted(sched._group_slots) == ["f1", "f2"]
        assert all(
            pool.capacity == 2 for pool in sched._group_slots.values()
        )
        assert board.conservation_ok()

    def test_hot_group_does_not_block_other_groups(self):
        # One slot per group: with the pool sharded by file, a request
        # on the cold file runs concurrently with the hot one instead
        # of queueing behind it on a global slot.
        tenants = (TenantSpec("a", rate=1.0), TenantSpec("b", rate=1.0))
        cluster, executor, board, sched = build(
            tenants, service=0.5, concurrency=1, slot_groups=by_file
        )
        sched.submit(make_request(1, "a", file="hot"))
        sched.submit(make_request(2, "b", file="cold"))
        cluster.run()
        assert executor.finished[1] == pytest.approx(0.5)
        assert executor.finished[2] == pytest.approx(0.5)

    def test_unsharded_control_serialises_the_same_pair(self):
        tenants = (TenantSpec("a", rate=1.0), TenantSpec("b", rate=1.0))
        cluster, executor, board, sched = build(
            tenants, service=0.5, concurrency=1
        )
        sched.submit(make_request(1, "a", file="hot"))
        sched.submit(make_request(2, "b", file="cold"))
        cluster.run()
        assert sorted(executor.finished.values()) == pytest.approx([0.5, 1.0])

    def test_same_group_still_serialises(self):
        tenants = (TenantSpec("a", rate=1.0), TenantSpec("b", rate=1.0))
        cluster, executor, board, sched = build(
            tenants, service=0.5, concurrency=1, slot_groups=by_file
        )
        sched.submit(make_request(1, "a", file="hot"))
        sched.submit(make_request(2, "b", file="hot"))
        cluster.run()
        assert sorted(executor.finished.values()) == pytest.approx([0.5, 1.0])

    def test_blocked_tenant_keeps_its_turn_and_drains_later(self):
        # A deep single-group backlog on one slot: the dispatcher must
        # sleep on the kick event while the group pool is full and wake
        # on every release — a lost wakeup would leave queues stranded
        # and fail conservation.
        cluster, executor, board, sched = build(
            (TenantSpec("t", rate=1.0),), service=0.1, concurrency=1,
            slot_groups=by_file,
        )
        for i in range(1, 9):
            sched.submit(make_request(i, "t", file="only"))
        cluster.run()
        assert board.tenants["t"].outcomes[COMPLETED] == 8
        assert board.conservation_ok()
        assert sched.queued_total() == 0
        assert sched.slots_in_use() == 0

    def test_accounting_totals_cover_group_pools(self):
        tenants = (TenantSpec("a", rate=1.0), TenantSpec("b", rate=1.0))
        cluster, executor, board, sched = build(
            tenants, service=1.0, concurrency=1, slot_groups=by_file
        )
        sched.submit(make_request(1, "a", file="f1"))
        sched.submit(make_request(2, "b", file="f2"))
        sched.submit(make_request(3, "a", file="f1"))

        def probe():
            yield cluster.env.timeout(0.5)
            # Both groups hold one in-flight request; one more queued.
            assert sched.slots_in_use() == 2
            assert sched.queued_total() == 1

        cluster.env.process(probe())
        cluster.run()
        assert board.conservation_ok()
