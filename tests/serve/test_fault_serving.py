"""End-to-end fault-tolerant serving: crash a data server mid-run.

The acceptance story of the fault subsystem, at test scale: with full
neighbour replication (``halo_strips == group``) and a recovery policy,
a single data-server crash mid-workload loses *zero* requests; with
replication disabled, the same crash loses some.  And with no faults
configured, the subsystem is invisible.
"""

import pytest

from repro.faults import RecoveryPolicy
from repro.fleet import Cell, FleetSystem
from repro.harness.chaos_bench import fault_spec, single_crash
from repro.scenarios import build_scenario, run_scenario
from repro.sim import Environment

DURATION = 1.5
RECOVERY = RecoveryPolicy(rpc_timeout=0.25, max_attempts=2, backoff=0.02)


def chaos_cell(scheme, duration, **changes):
    """One chaos-bench cell's summary, straight from its spec."""
    return run_scenario(fault_spec(scheme, duration, **changes))[0]


def lone_cell(spec):
    """The same spec served by a one-cell fleet; the cell's summary."""
    env = Environment()
    cell = Cell("cell", *build_scenario(spec, env=env))
    fleet = FleetSystem(
        env, [cell], spec.tenants, duration=spec.duration,
        deadline=spec.deadline, load=spec.load,
    )
    return fleet.run()["cells"][0]


def crash_plan():
    return single_crash(DURATION)


@pytest.fixture(scope="module")
def replicated_crash():
    return chaos_cell(
        "TS", DURATION, chaos=crash_plan(), recovery=RECOVERY, replicated=True
    )


@pytest.fixture(scope="module")
def unreplicated_crash():
    return chaos_cell(
        "TS", DURATION, chaos=crash_plan(), recovery=RECOVERY, replicated=False
    )


class TestReplicatedSurvivesTheCrash:
    def test_every_request_finishes(self, replicated_crash):
        t = replicated_crash["tenants"]["_all"]
        assert replicated_crash["generated"] > 0
        assert t["availability"] == 1.0
        assert t["failed"] == 0 and t["expired"] == 0

    def test_failover_served_the_outage(self, replicated_crash):
        faults = replicated_crash["faults"]
        assert faults["crashes"] == 1
        assert faults["recoveries"] == 1
        assert faults["failover_reads"] > 0

    def test_mttr_matches_the_plan(self, replicated_crash):
        faults = replicated_crash["faults"]
        assert faults["mttr"] == pytest.approx(0.4 * DURATION)
        assert faults["still_down"] == []

    def test_conservation(self, replicated_crash):
        assert replicated_crash["admitted"] == replicated_crash["settled"]


class TestReplicationIsLoadBearing:
    def test_unreplicated_crash_loses_requests(
        self, replicated_crash, unreplicated_crash
    ):
        rep = replicated_crash["tenants"]["_all"]
        unrep = unreplicated_crash["tenants"]["_all"]
        finished = lambda t: t["completed"] + t["late"]
        assert unrep["availability"] < 1.0
        assert finished(unrep) < finished(rep)

    def test_failures_are_clean_not_hung(self, unreplicated_crash):
        # Detection turns lost requests into terminal failures; nothing
        # is left admitted-but-unsettled.
        assert unreplicated_crash["admitted"] == unreplicated_crash["settled"]


class TestFaultFreeRuns:
    def test_no_faults_means_no_faults_block(self):
        summary = chaos_cell("TS", DURATION)
        assert "faults" not in summary

    def test_recovery_only_run_reports_zero_fault_activity(self):
        summary = chaos_cell("TS", DURATION, recovery=RECOVERY)
        faults = summary["faults"]
        assert faults["crashes"] == 0
        assert faults["failover_reads"] == 0
        assert summary["tenants"]["_all"]["availability"] == 1.0

    def test_decision_cache_cleared_on_membership_change(self):
        # Both deployments of the serving stack carry the hook.
        spec = fault_spec("DAS", DURATION, chaos=crash_plan(), recovery=RECOVERY)
        for summary in (run_scenario(spec)[0], lone_cell(spec)):
            stats = summary["decision_cache"]
            # The crash and the recovery each flushed the cache, so at
            # least two extra misses happened beyond the three (tenant,
            # kernel) combinations.
            assert stats["invalidations"] > 0
            assert summary["faults"]["events_applied"] == 2
