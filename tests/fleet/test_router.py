"""Unit tests for fleet placement, probes and spillover."""

import pytest

from repro.errors import FleetError
from repro.fleet import FleetRouter
from repro.fleet.router import PROBE_INTERVAL
from repro.sim import MonitorHub

from .conftest import make_cell, make_request


def make_router(env, cells, **kw):
    return FleetRouter(env, cells, MonitorHub(env), **kw)


class TestConstruction:
    def test_unknown_policy_rejected(self, env, cell_pair):
        with pytest.raises(FleetError):
            make_router(env, cell_pair, policy="roulette")

    def test_empty_fleet_rejected(self, env):
        with pytest.raises(FleetError):
            make_router(env, [])

    def test_duplicate_cell_names_rejected(self, env):
        cells = [make_cell(env, "same"), make_cell(env, "same")]
        with pytest.raises(FleetError):
            make_router(env, cells)

    def test_assignment_to_unknown_cell_rejected(self, env, cell_pair):
        with pytest.raises(FleetError):
            make_router(env, cell_pair, assignments={"alpha": "nowhere"})


class TestSticky:
    def test_explicit_assignment_wins(self, env, cell_pair):
        router = make_router(
            env, cell_pair, policy="sticky", assignments={"alpha": "cell-1"}
        )
        assert router.submit(make_request(1, tenant="alpha"))
        assert router.placements[1] == "cell-1"

    def test_unseen_tenants_pinned_round_robin(self, env, cell_pair):
        router = make_router(env, cell_pair, policy="sticky")
        router.submit(make_request(1, tenant="alpha"))
        router.submit(make_request(2, tenant="beta"))
        router.submit(make_request(3, tenant="alpha"))
        assert router.placements == {1: "cell-0", 2: "cell-1", 3: "cell-0"}


class TestLeastLoaded:
    def test_picks_the_emptier_cell(self, env, cell_pair):
        cell_pair[0].submit(make_request(100))
        cell_pair[0].submit(make_request(101))
        router = make_router(env, cell_pair, policy="least-loaded")
        router.submit(make_request(1))
        assert router.placements[1] == "cell-1"

    def test_ties_break_by_cell_order(self, env, cell_pair):
        router = make_router(env, cell_pair, policy="least-loaded")
        router.submit(make_request(1))
        assert router.placements[1] == "cell-0"


class TestLocality:
    def test_restricts_to_hosting_cells(self, env):
        cells = [
            make_cell(env, "cell-0", files=("dem_a",)),
            make_cell(env, "cell-1"),
        ]
        router = make_router(env, cells, policy="locality")
        router.submit(make_request(1, tenant="beta", file="dem_b"))
        assert router.placements[1] == "cell-1"

    def test_unhosted_file_raises(self, env):
        cells = [make_cell(env, "cell-0", files=("dem_a",))]
        router = make_router(env, cells, policy="locality")
        with pytest.raises(FleetError):
            router.submit(make_request(1, file="dem_z"))


class TestSpillover:
    def _jam(self, cell, start=100):
        for i in range(cell.scheduler.queue_capacity):
            cell.submit(make_request(start + i))

    def test_full_pin_spills_to_the_other_cell(self, env, cell_pair):
        router = make_router(
            env, cell_pair, policy="sticky", assignments={"alpha": "cell-0"}
        )
        self._jam(cell_pair[0])
        assert router.submit(make_request(1))
        assert router.placements[1] == "cell-1"
        assert router.spilled == 1

    def test_every_queue_full_books_one_rejection(self, env, cell_pair):
        router = make_router(
            env, cell_pair, policy="sticky", assignments={"alpha": "cell-0"}
        )
        self._jam(cell_pair[0], start=100)
        self._jam(cell_pair[1], start=200)
        assert not router.submit(make_request(1))
        assert router.shed == 1
        assert router.routed == 1


class TestProbes:
    def test_degraded_cell_routed_around_after_a_sweep(self, env, cell_pair):
        router = make_router(env, cell_pair, policy="least-loaded")
        cell_pair[0].cluster.storage_nodes[0].fail()
        assert router.is_healthy(cell_pair[0])  # probes have not seen it
        router._sweep()
        assert not router.is_healthy(cell_pair[0])
        router.submit(make_request(1))
        assert router.placements[1] == "cell-1"

    def test_transitions_counted_both_ways(self, env, cell_pair):
        router = make_router(env, cell_pair)
        node = cell_pair[0].cluster.storage_nodes[0]
        node.fail()
        router._sweep()
        node.recover()
        router._sweep()
        assert router.monitors.counter("fleet.transitions").value == 2
        assert router.is_healthy(cell_pair[0])

    def test_probe_loop_exits_when_drained(self, env, cell_pair):
        router = make_router(env, cell_pair, duration=4 * PROBE_INTERVAL)
        router.start()
        env.run()
        assert env.now == pytest.approx(4 * PROBE_INTERVAL)
        assert router.monitors.counter("fleet.probes").value == 4

    def test_double_start_raises(self, env, cell_pair):
        router = make_router(env, cell_pair)
        router.start()
        with pytest.raises(FleetError):
            router.start()
