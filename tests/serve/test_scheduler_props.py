"""Property tests for the serving layer's core invariants.

* **Conservation**: every admitted request settles in exactly one
  terminal outcome, whatever mix of arrivals, costs, deadlines and
  injected faults the backend throws at the scheduler.
* **No starvation**: under DWRR with quantum-sized requests, any
  backlogged tenant's dispatch share tracks its weight round by round;
  no backlogged tenant waits more than one full round.
* **Batched dispatch preserves both**: with ``batch_max > 1`` riders
  charge their own tenant's deficit (possibly into debt), so
  conservation still holds under chaos and no tenant waits more than
  one *batch round* beyond its weight.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.hw import Cluster
from repro.serve import (
    OUTCOMES,
    FairScheduler,
    RetryPolicy,
    SLOBoard,
    ServeRequest,
    TenantSpec,
)

QUANTUM = 1024


class ChaosExecutor:
    """Backend whose per-call service times and faults are scripted."""

    def __init__(self, cluster, services, failures):
        self.env = cluster.env
        self.services = services  # list of service times, cycled
        self.failures = failures  # list of bools, cycled
        self.calls = 0

    def request_cost(self, req):
        return QUANTUM

    def execute_batch(self, batch, span=None):
        return self.env.process(self._run(batch[0]))

    def _run(self, req):
        i = self.calls
        self.calls += 1
        yield self.env.timeout(self.services[i % len(self.services)])
        if self.failures[i % len(self.failures)]:
            raise RuntimeError("chaos")
        return True


arrival_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0),   # inter-arrival gap
        st.floats(min_value=0.05, max_value=3.0),  # relative deadline
        st.integers(min_value=1, max_value=4 * QUANTUM),  # cost
    ),
    min_size=1,
    max_size=25,
)
service_lists = st.lists(
    st.floats(min_value=0.01, max_value=1.5), min_size=1, max_size=8
)
failure_lists = st.lists(st.booleans(), min_size=1, max_size=8)


#: Both slot-acquisition policies over the shared dispatch body: the
#: global blocking pool, or per-file pools skipped while full.
slot_policies = st.sampled_from([None, lambda req: req.file])


@given(
    arrivals=arrival_lists,
    services=service_lists,
    failures=failure_lists,
    slot_groups=slot_policies,
)
@settings(max_examples=40, deadline=None)
def test_conservation_exactly_once(arrivals, services, failures, slot_groups):
    cluster = Cluster.build(n_compute=1, n_storage=1)
    env = cluster.env
    executor = ChaosExecutor(cluster, services, failures)
    board = SLOBoard(cluster.monitors)
    sched = FairScheduler(
        cluster,
        (TenantSpec("t", rate=1.0),),
        executor,
        board,
        queue_capacity=8,
        concurrency=2,
        quantum=QUANTUM,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
        slot_groups=slot_groups,
    )

    def feed():
        for i, (gap, rel_deadline, cost) in enumerate(arrivals, start=1):
            yield env.timeout(gap)
            sched.submit(
                ServeRequest(
                    req_id=i,
                    tenant="t",
                    operator="op",
                    file=f"f{i % 2}",
                    arrival=env.now,
                    deadline=env.now + rel_deadline,
                    cost=cost,
                )
            )

    env.process(feed())
    cluster.run()

    stats = board.tenants["t"]
    # Exactly-once settlement over admitted; rejected outside the set.
    assert board.conservation_ok(), board.unsettled()
    assert stats.settled == stats.admitted
    assert stats.admitted + stats.rejected == len(arrivals)
    assert sum(stats.outcomes[o] for o in OUTCOMES) == stats.admitted


weights = st.tuples(
    st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)
)


@given(w=weights, backlog=st.integers(min_value=10, max_value=30))
@settings(max_examples=25, deadline=None)
def test_no_starvation_under_weighted_backlog(w, backlog):
    """With quantum-sized requests and both tenants backlogged, every
    round dispatches exactly weight_a : weight_b, so over any prefix the
    normalised dispatch counts stay within one round of each other."""
    wa, wb = w
    cluster = Cluster.build(n_compute=1, n_storage=1)
    executor = ChaosExecutor(cluster, [0.001], [False])
    board = SLOBoard(cluster.monitors)
    sched = FairScheduler(
        cluster,
        (TenantSpec("a", rate=1.0, weight=wa), TenantSpec("b", rate=1.0, weight=wb)),
        executor,
        board,
        queue_capacity=64,
        concurrency=1,
        quantum=QUANTUM,
    )
    rid = 0
    for _ in range(backlog):
        rid += 1
        sched.submit(_req(rid, "a"))
    for _ in range(backlog):
        rid += 1
        sched.submit(_req(rid, "b"))
    cluster.run()

    assert board.conservation_ok()
    log = [name for name, _ in sched.dispatch_log]
    assert len(log) == 2 * backlog
    # Both tenants' first dispatches land within the first round.
    assert "a" in log[: wa + wb]
    assert "b" in log[: wa + wb]
    # While both are backlogged, normalised shares diverge by at most
    # one round's grant.
    joint_rounds = min(backlog // wa, backlog // wb)
    horizon = joint_rounds * (wa + wb)
    ca = cb = 0
    for name in log[:horizon]:
        if name == "a":
            ca += 1
        else:
            cb += 1
        assert abs(ca / wa - cb / wb) <= 2.0, (ca, cb, wa, wb)


def _req(req_id, tenant, file="f"):
    return ServeRequest(
        req_id=req_id,
        tenant=tenant,
        operator="op",
        file=file,
        arrival=0.0,
        deadline=1000.0,
        cost=QUANTUM,
    )


@given(
    arrivals=arrival_lists,
    services=service_lists,
    failures=failure_lists,
    batch_max=st.integers(min_value=2, max_value=4),
    files=st.lists(st.sampled_from(["f0", "f1"]), min_size=1, max_size=8),
    slot_groups=slot_policies,
)
@settings(max_examples=40, deadline=None)
def test_conservation_exactly_once_batched(
    arrivals, services, failures, batch_max, files, slot_groups
):
    """Batched dispatch under chaos (mixed keys, faults, expiries) still
    settles every admitted request exactly once."""
    cluster = Cluster.build(n_compute=1, n_storage=1)
    env = cluster.env
    executor = ChaosExecutor(cluster, services, failures)
    board = SLOBoard(cluster.monitors)
    sched = FairScheduler(
        cluster,
        (TenantSpec("t", rate=1.0),),
        executor,
        board,
        queue_capacity=8,
        concurrency=2,
        quantum=QUANTUM,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
        batch_max=batch_max,
        slot_groups=slot_groups,
    )

    def feed():
        for i, (gap, rel_deadline, cost) in enumerate(arrivals, start=1):
            yield env.timeout(gap)
            sched.submit(
                ServeRequest(
                    req_id=i,
                    tenant="t",
                    operator="op",
                    file=files[i % len(files)],
                    arrival=env.now,
                    deadline=env.now + rel_deadline,
                    cost=cost,
                )
            )

    env.process(feed())
    cluster.run()

    stats = board.tenants["t"]
    assert board.conservation_ok(), board.unsettled()
    assert stats.settled == stats.admitted
    assert stats.admitted + stats.rejected == len(arrivals)
    assert sum(stats.outcomes[o] for o in OUTCOMES) == stats.admitted
    assert sched.batch_stats.requests >= sched.batch_stats.dispatches


@given(
    w=weights,
    backlog=st.integers(min_value=10, max_value=30),
    batch_max=st.integers(min_value=2, max_value=4),
    shared_key=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_no_starvation_under_batched_backlog(w, backlog, batch_max, shared_key):
    """DWRR fairness survives batching: riders prepay their own tenant's
    deficit, so each tenant's first dispatch still lands within one
    *batch round* of grants and normalised shares stay within one batch
    window of each other — a tenant never waits more than one batch
    round beyond its weight."""
    wa, wb = w
    cluster = Cluster.build(n_compute=1, n_storage=1)
    executor = ChaosExecutor(cluster, [0.001], [False])
    board = SLOBoard(cluster.monitors)
    sched = FairScheduler(
        cluster,
        (TenantSpec("a", rate=1.0, weight=wa), TenantSpec("b", rate=1.0, weight=wb)),
        executor,
        board,
        queue_capacity=64,
        concurrency=1,
        quantum=QUANTUM,
        batch_max=batch_max,
    )
    # shared_key=True lets batches merge across tenants (one file);
    # False keeps keys disjoint so merging is intra-tenant only.
    file_for = (lambda t: "f") if shared_key else (lambda t: f"file-{t}")
    rid = 0
    for _ in range(backlog):
        rid += 1
        sched.submit(_req(rid, "a", file=file_for("a")))
    for _ in range(backlog):
        rid += 1
        sched.submit(_req(rid, "b", file=file_for("b")))
    cluster.run()

    assert board.conservation_ok()
    log = [name for name, _ in sched.dispatch_log]
    assert len(log) == 2 * backlog
    # Both tenants' first dispatches land within one batch round.
    horizon = (wa + wb) * batch_max
    assert "a" in log[:horizon]
    assert "b" in log[:horizon]
    if not shared_key:
        # With disjoint keys, merging is intra-tenant only: a tenant can
        # overshoot its grant by at most one batch window of riders
        # (prepaid into debt), so normalised dispatch counts diverge by
        # at most one round plus one window each.
        joint_rounds = min(backlog // wa, backlog // wb)
        prefix = joint_rounds * (wa + wb)
        ca = cb = 0
        for name in log[:prefix]:
            if name == "a":
                ca += 1
            else:
                cb += 1
            assert abs(ca / wa - cb / wb) <= 2.0 * batch_max, (
                ca, cb, wa, wb, batch_max,
            )
    else:
        # Cross-tenant merging makes raw counts key-driven, not
        # weight-driven (riders are spare capacity prepaid by their own
        # tenant), so fairness shows up as prepayment, not share bounds.
        assert sched._deficit["a"] <= QUANTUM * wa
        assert sched._deficit["b"] <= QUANTUM * wb
    for t in ("a", "b"):
        assert board.tenants[t].settled == backlog


def test_serve_error_is_not_retried():
    """Accounting bugs (ServeError) must propagate, never be retried."""
    cluster = Cluster.build(n_compute=1, n_storage=1)
    env = cluster.env

    class PoisonExecutor:
        def request_cost(self, req):
            return QUANTUM

        def execute_batch(self, batch, span=None):
            return env.process(self._run())

        def _run(self):
            yield env.timeout(0.01)
            raise ServeError("ledger corruption")

    board = SLOBoard(cluster.monitors)
    sched = FairScheduler(
        cluster, (TenantSpec("t", rate=1.0),), PoisonExecutor(), board
    )
    sched.submit(_req(1, "t"))
    try:
        cluster.run()
        raised = False
    except ServeError:
        raised = True
    assert raised
    assert board.tenants["t"].retries == 0
