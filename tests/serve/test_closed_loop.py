"""Closed-loop workload: bounded population, think time, affinity.

The defining property of the closed loop is that offered load is an
*outcome*: each client waits for its previous request to settle before
thinking up the next, so in-flight demand can never exceed the
population and conservation (every generated request is admitted or
rejected; every admitted one settles exactly once) holds under any mix
of think times, affinities, service times and backend faults.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.hw import Cluster
from repro.scenarios import ScenarioSpec, TopologySpec, run_scenario
from repro.serve import (
    OUTCOMES,
    ClosedLoopWorkload,
    FairScheduler,
    OpenLoopWorkload,
    RetryPolicy,
    SLOBoard,
    TenantSpec,
)


def closed_tenant(**overrides):
    kwargs = dict(
        name="c",
        mode="closed",
        population=2,
        think_time=0.1,
        affinity=0.5,
        files=("f",),
    )
    kwargs.update(overrides)
    return TenantSpec(**kwargs)


class TestSpecValidation:
    def test_closed_needs_positive_population(self):
        with pytest.raises(ServeError, match="population"):
            closed_tenant(population=0)

    def test_closed_needs_positive_think_time(self):
        with pytest.raises(ServeError, match="think_time"):
            closed_tenant(think_time=0.0)

    def test_affinity_is_a_probability(self):
        with pytest.raises(ServeError, match="affinity"):
            closed_tenant(affinity=1.5)

    def test_unknown_mode(self):
        with pytest.raises(ServeError, match="mode"):
            closed_tenant(mode="half-open")

    def test_open_loop_rejects_closed_tenants(self):
        cluster = Cluster.build(n_compute=1, n_storage=1)
        with pytest.raises(ServeError, match="ClosedLoopWorkload"):
            OpenLoopWorkload(cluster, (closed_tenant(),), duration=1.0,
                             deadline=1.0)

    def test_closed_loop_rejects_open_tenants(self):
        cluster = Cluster.build(n_compute=1, n_storage=1)
        with pytest.raises(ServeError, match="OpenLoopWorkload"):
            ClosedLoopWorkload(
                cluster, (TenantSpec("o", rate=1.0, files=("f",)),),
                duration=1.0, deadline=1.0,
            )


class RecordingSink:
    """Accepts everything instantly; settles after a scripted delay."""

    def __init__(self, cluster, delay=0.01, capacity=None):
        self.cluster = cluster
        self.delay = delay
        self.capacity = capacity
        self.requests = []
        self.in_flight = 0
        self.peak_in_flight = 0
        self.rejected = 0

    def submit(self, req):
        if self.capacity is not None and self.in_flight >= self.capacity:
            self.rejected += 1
            return False
        self.requests.append(req)
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        self.cluster.env.process(self._settle(req))
        return True

    def _settle(self, req):
        yield self.cluster.env.timeout(self.delay)
        self.in_flight -= 1
        req.extra["settled"].succeed("completed")


class TestClosedLoopBehaviour:
    def test_in_flight_never_exceeds_population(self):
        cluster = Cluster.build(n_compute=1, n_storage=1)
        workload = ClosedLoopWorkload(
            cluster,
            (closed_tenant(population=3, think_time=0.02),),
            duration=2.0,
            deadline=1.0,
        )
        sink = RecordingSink(cluster, delay=0.5)  # slow system
        workload.start(sink)
        cluster.run()
        assert workload.generated == len(sink.requests)
        assert workload.generated > 0
        assert sink.peak_in_flight <= workload.population

    def test_full_affinity_pins_each_client_to_one_file(self):
        cluster = Cluster.build(n_compute=1, n_storage=1)
        workload = ClosedLoopWorkload(
            cluster,
            (closed_tenant(population=1, affinity=1.0, think_time=0.05,
                           files=("f0", "f1", "f2")),),
            duration=3.0,
            deadline=1.0,
        )
        sink = RecordingSink(cluster)
        workload.start(sink)
        cluster.run()
        assert len(sink.requests) > 5
        assert len({r.file for r in sink.requests}) == 1

    def test_zero_affinity_spreads_over_the_files(self):
        cluster = Cluster.build(n_compute=1, n_storage=1)
        workload = ClosedLoopWorkload(
            cluster,
            (closed_tenant(population=2, affinity=0.0, think_time=0.02,
                           files=("f0", "f1")),),
            duration=3.0,
            deadline=1.0,
        )
        sink = RecordingSink(cluster)
        workload.start(sink)
        cluster.run()
        assert {r.file for r in sink.requests} == {"f0", "f1"}

    def test_rejection_costs_a_think_gap_not_a_spin(self):
        cluster = Cluster.build(n_compute=1, n_storage=1)
        workload = ClosedLoopWorkload(
            cluster,
            (closed_tenant(population=2, think_time=0.05),),
            duration=2.0,
            deadline=1.0,
        )
        sink = RecordingSink(cluster, delay=10.0, capacity=1)
        workload.start(sink)
        cluster.run()  # terminates: no zero-time resubmit loop
        assert sink.rejected > 0

    def test_ids_never_collide_with_open_loop(self):
        from repro.serve.workload import CLOSED_ID_BASE

        cluster = Cluster.build(n_compute=1, n_storage=1)
        workload = ClosedLoopWorkload(
            cluster, (closed_tenant(),), duration=1.0, deadline=1.0
        )
        sink = RecordingSink(cluster)
        workload.start(sink)
        cluster.run()
        assert all(r.req_id > CLOSED_ID_BASE for r in sink.requests)


@pytest.fixture(scope="module")
def mixed_summary():
    def run():
        spec = ScenarioSpec(
            name="mixed",
            description="one open-loop and one closed-loop tenant",
            topology=TopologySpec(),
            tenants=(
                TenantSpec("open", rate=4.0, files=("dem_a",)),
                TenantSpec("closed", mode="closed", population=2,
                           think_time=0.1, affinity=0.8, files=("dem_b",)),
            ),
            duration=2.0,
            deadline=1.0,
            seed=7,
            queue_capacity=16,
            concurrency=4,
        )
        return run_scenario(spec)[0]

    return run(), run()


class TestMixedModeServing:
    def test_both_modes_serve(self, mixed_summary):
        summary, _ = mixed_summary
        assert summary["tenants"]["open"]["completed"] > 0
        assert summary["tenants"]["closed"]["completed"] > 0

    def test_conservation(self, mixed_summary):
        summary, _ = mixed_summary
        assert summary["admitted"] == summary["settled"]
        rejected = summary["tenants"]["_all"]["rejected"]
        assert summary["generated"] == summary["admitted"] + rejected

    def test_mixed_run_is_deterministic(self, mixed_summary):
        first, second = mixed_summary
        assert first == second


populations = st.integers(min_value=1, max_value=4)
think_times = st.floats(min_value=0.01, max_value=0.5)
affinities = st.floats(min_value=0.0, max_value=1.0)
service_lists = st.lists(
    st.floats(min_value=0.005, max_value=0.8), min_size=1, max_size=6
)
failure_lists = st.lists(st.booleans(), min_size=1, max_size=6)


class ChaosExecutor:
    """Backend whose per-call service times and faults are scripted."""

    def __init__(self, cluster, services, failures):
        self.env = cluster.env
        self.services = services
        self.failures = failures
        self.calls = 0

    def request_cost(self, req):
        return 1024

    def execute_batch(self, batch, span=None):
        return self.env.process(self._run(batch[0]))

    def _run(self, req):
        i = self.calls
        self.calls += 1
        yield self.env.timeout(self.services[i % len(self.services)])
        if self.failures[i % len(self.failures)]:
            raise RuntimeError("chaos")
        return True


@given(
    population=populations,
    think_time=think_times,
    affinity=affinities,
    services=service_lists,
    failures=failure_lists,
)
@settings(max_examples=40, deadline=None)
def test_closed_loop_conservation_under_chaos(
    population, think_time, affinity, services, failures
):
    """Whatever the backend does, the closed loop's accounting is exact:
    generated == admitted + rejected, every admitted request settles in
    exactly one outcome, and in-flight never exceeds the population."""
    cluster = Cluster.build(n_compute=1, n_storage=1)
    executor = ChaosExecutor(cluster, services, failures)
    board = SLOBoard(cluster.monitors)
    tenants = (
        closed_tenant(population=population, think_time=think_time,
                      affinity=affinity, files=("f0", "f1")),
    )
    sched = FairScheduler(
        cluster,
        tenants,
        executor,
        board,
        queue_capacity=2,  # small: force rejections into the accounting
        concurrency=1,
        quantum=1024,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
    )
    workload = ClosedLoopWorkload(cluster, tenants, duration=3.0, deadline=0.5)
    workload.start(sched)
    cluster.run()

    stats = board.tenants["c"]
    assert board.conservation_ok(), board.unsettled()
    assert stats.settled == stats.admitted
    assert stats.admitted + stats.rejected == workload.generated
    assert sum(stats.outcomes[o] for o in OUTCOMES) == stats.admitted
