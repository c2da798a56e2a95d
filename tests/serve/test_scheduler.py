"""Unit tests for admission control, DWRR fairness, deadlines, retries."""

import pytest

from repro.errors import AdmissionError, ServeError
from repro.hw import Cluster
from repro.sim import MonitorHub
from repro.serve import (
    COMPLETED,
    EXPIRED,
    FAILED,
    LATE,
    FairScheduler,
    RetryPolicy,
    SLOBoard,
    ServeRequest,
    TenantSpec,
)

QUANTUM = 1024


class StubExecutor:
    """Deterministic fake backend: fixed service time, scripted faults."""

    def __init__(self, cluster, service=0.1, fail_first=0):
        self.env = cluster.env
        self.service = service
        #: Number of executions (across all requests) that raise first.
        self.fail_first = fail_first
        self.calls = 0

    def request_cost(self, req):
        return QUANTUM

    def execute_batch(self, batch, span=None):
        return self.env.process(self._run(batch[0]))

    def _run(self, req):
        self.calls += 1
        call = self.calls
        yield self.env.timeout(self.service)
        if call <= self.fail_first:
            raise RuntimeError(f"injected fault #{call}")
        return f"ok:{req.req_id}"


def make_cluster():
    return Cluster.build(n_compute=1, n_storage=1)


def make_request(req_id, tenant, now=0.0, deadline=10.0, cost=QUANTUM):
    return ServeRequest(
        req_id=req_id,
        tenant=tenant,
        operator="gaussian",
        file="f",
        arrival=now,
        deadline=now + deadline,
        cost=cost,
    )


def build(cluster, tenants, executor, **kw):
    board = SLOBoard(cluster.monitors)
    sched = FairScheduler(
        cluster, tenants, executor, board, quantum=QUANTUM, **kw
    )
    return board, sched


class TestAdmission:
    def test_queue_full_rejects(self):
        cluster = make_cluster()
        executor = StubExecutor(cluster, service=1.0)
        board, sched = build(
            cluster, (TenantSpec("t", rate=1.0),), executor,
            queue_capacity=2, concurrency=1,
        )
        results = [sched.submit(make_request(i, "t")) for i in (1, 2, 3)]
        assert results == [True, True, False]
        assert board.tenants["t"].admitted == 2
        assert board.tenants["t"].rejected == 1

    def test_unknown_tenant_raises(self):
        cluster = make_cluster()
        board, sched = build(
            cluster, (TenantSpec("t", rate=1.0),), StubExecutor(cluster)
        )
        with pytest.raises(AdmissionError):
            sched.submit(make_request(1, "nobody"))

    def test_admission_fills_cost_from_executor(self):
        cluster = make_cluster()
        board, sched = build(
            cluster, (TenantSpec("t", rate=1.0),), StubExecutor(cluster)
        )
        req = make_request(1, "t", cost=0)
        sched.submit(req)
        assert req.cost == QUANTUM


class TestOutcomes:
    def test_completed_within_deadline(self):
        cluster = make_cluster()
        board, sched = build(
            cluster, (TenantSpec("t", rate=1.0),), StubExecutor(cluster, service=0.1)
        )
        req = make_request(1, "t", deadline=1.0)
        sched.submit(req)
        cluster.run()
        assert board.tenants["t"].outcomes[COMPLETED] == 1
        assert req.finished == pytest.approx(0.1)
        assert board.conservation_ok()

    def test_late_and_expired_under_slow_backend(self):
        # Service 1.0 s, deadline 0.5 s, one slot: the first request
        # finishes late at t=1; the second is already dead when it is
        # dequeued and is dropped as expired.
        cluster = make_cluster()
        executor = StubExecutor(cluster, service=1.0)
        board, sched = build(
            cluster, (TenantSpec("t", rate=1.0),), executor, concurrency=1
        )
        sched.submit(make_request(1, "t", deadline=0.5))
        sched.submit(make_request(2, "t", deadline=0.5))
        cluster.run()
        assert board.tenants["t"].outcomes[LATE] == 1
        assert board.tenants["t"].outcomes[EXPIRED] == 1
        assert executor.calls == 1  # the expired one never ran
        assert board.conservation_ok()

    def test_retry_then_success(self):
        cluster = make_cluster()
        executor = StubExecutor(cluster, service=0.1, fail_first=2)
        board, sched = build(
            cluster,
            (TenantSpec("t", rate=1.0),),
            executor,
            retry=RetryPolicy(max_attempts=3, backoff=0.1),
        )
        req = make_request(1, "t", deadline=10.0)
        sched.submit(req)
        cluster.run()
        assert board.tenants["t"].outcomes[COMPLETED] == 1
        assert board.tenants["t"].retries == 2
        assert req.attempts == 3
        # 3 runs of 0.1 plus backoffs 0.1 and 0.2.
        assert req.finished == pytest.approx(0.6)

    def test_permanent_failure_settles_failed(self):
        cluster = make_cluster()
        executor = StubExecutor(cluster, service=0.1, fail_first=99)
        board, sched = build(
            cluster,
            (TenantSpec("t", rate=1.0),),
            executor,
            retry=RetryPolicy(max_attempts=2, backoff=0.01),
        )
        req = make_request(1, "t")
        sched.submit(req)
        cluster.run()
        assert board.tenants["t"].outcomes[FAILED] == 1
        assert req.attempts == 2
        assert "injected fault" in req.extra["error"]
        assert board.conservation_ok()

    def test_backoff_grows_geometrically(self):
        policy = RetryPolicy(max_attempts=4, backoff=0.05, backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.05)
        assert policy.delay(2) == pytest.approx(0.10)
        assert policy.delay(3) == pytest.approx(0.20)

    def test_bad_retry_policy_rejected(self):
        with pytest.raises(ServeError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServeError):
            RetryPolicy(backoff=-1.0)


class TestFairness:
    def test_dwrr_respects_weights(self):
        # Tenant a (weight 2) should dispatch twice as often as b
        # (weight 1) while both stay backlogged; every request costs
        # exactly one quantum so deficits convert directly to counts.
        cluster = make_cluster()
        executor = StubExecutor(cluster, service=0.01)
        tenants = (TenantSpec("a", rate=1.0, weight=2.0), TenantSpec("b", rate=1.0))
        board, sched = build(
            cluster, tenants, executor, queue_capacity=32, concurrency=1
        )
        rid = 0
        for _ in range(8):
            rid += 1
            sched.submit(make_request(rid, "a", deadline=100.0))
        for _ in range(8):
            rid += 1
            sched.submit(make_request(rid, "b", deadline=100.0))
        cluster.run()
        first_six = sched.dispatch_log[:6]
        counts = {t: sum(1 for name, _ in first_six if name == t) for t in ("a", "b")}
        assert counts == {"a": 4, "b": 2}
        assert board.conservation_ok()

    def test_no_tenant_starved(self):
        cluster = make_cluster()
        executor = StubExecutor(cluster, service=0.01)
        tenants = (TenantSpec("a", rate=1.0, weight=8.0), TenantSpec("b", rate=1.0))
        board, sched = build(
            cluster, tenants, executor, queue_capacity=32, concurrency=1
        )
        for i in range(1, 21):
            sched.submit(make_request(i, "a", deadline=100.0))
        sched.submit(make_request(100, "b", deadline=100.0))
        cluster.run()
        dispatched_tenants = [name for name, _ in sched.dispatch_log]
        # One DWRR round grants a at most weight_a quantum-sized
        # dispatches, so b's lone request is served after at most one
        # full round — long before a's 20-deep backlog drains.
        assert "b" in dispatched_tenants[:9]


class TestSLOBoard:
    def test_double_settle_raises(self, env):
        board = SLOBoard(MonitorHub(env))
        req = make_request(1, "t")
        board.admitted(req)
        req.finished = 0.5
        board.settle(req, COMPLETED)
        with pytest.raises(ServeError):
            board.settle(req, LATE)

    def test_settle_without_admission_raises(self, env):
        board = SLOBoard(MonitorHub(env))
        req = make_request(1, "t")
        req.finished = 0.5
        with pytest.raises(ServeError):
            board.settle(req, COMPLETED)

    def test_unknown_outcome_raises(self, env):
        board = SLOBoard(MonitorHub(env))
        req = make_request(1, "t")
        board.admitted(req)
        with pytest.raises(ServeError):
            board.settle(req, "vanished")

    def test_double_admission_raises(self, env):
        board = SLOBoard(MonitorHub(env))
        req = make_request(1, "t")
        board.admitted(req)
        with pytest.raises(ServeError):
            board.admitted(req)

    def test_unsettled_lists_leaks(self, env):
        board = SLOBoard(MonitorHub(env))
        r1, r2 = make_request(1, "t"), make_request(2, "t")
        board.admitted(r1)
        board.admitted(r2)
        r1.finished = 0.1
        board.settle(r1, COMPLETED)
        assert not board.conservation_ok()
        assert board.unsettled() == [2]

    def test_summary_has_all_row(self, env):
        board = SLOBoard(MonitorHub(env))
        req = make_request(1, "t")
        board.admitted(req)
        req.finished = 0.25
        board.settle(req, COMPLETED)
        summary = board.summary(elapsed=1.0)
        assert summary["_all"]["admitted"] == 1
        assert summary["_all"]["throughput"] == 1.0
        assert summary["t"]["lat_p50"] == 0.25

    def test_latency_columns_are_read_off_the_hub_histograms(self, env):
        hub = MonitorHub(env)
        board = SLOBoard(hub)
        settled = [  # (req_id, tenant, arrival, finished, outcome)
            (1, "a", 0.0, 0.5, COMPLETED),
            (2, "b", 0.5, 0.75, LATE),
            (3, "a", 0.25, 1.0, COMPLETED),
            (4, "a", 0.5, None, EXPIRED),
        ]
        for req_id, tenant, arrival, finished, outcome in settled:
            req = make_request(req_id, tenant, now=arrival)
            board.admitted(req)
            req.finished = finished
            board.settle(req, outcome)
        # Finished requests only, per tenant and overall, in settle order.
        assert hub.histograms["serve.latency.a"].samples == [0.5, 0.75]
        assert hub.histograms["serve.latency.b"].samples == [0.25]
        assert hub.histograms["serve.latency"].samples == [0.5, 0.25, 0.75]
        summary = board.summary(elapsed=1.0)
        assert (summary["a"]["lat_count"], summary["a"]["lat_max"]) == (2, 0.75)
        assert summary["a"]["lat_mean"] == 0.625
        assert (summary["_all"]["lat_count"], summary["_all"]["lat_p50"]) == (3, 0.5)
        assert summary["_all"]["lat_mean"] == (0.25 + 0.5 + 0.75) / 3
