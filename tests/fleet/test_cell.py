"""Unit tests for the fleet serving cell wrapper."""

import pytest

from repro.errors import FleetError
from repro.fleet import Cell
from repro.serve import ServeConfig, ServeSystem
from repro.sim import Environment

from .conftest import TENANTS, make_cell, make_platform, make_request


class TestConstruction:
    def test_unknown_scheme_rejected(self, env):
        cell = make_cell(env, "c")
        config = ServeConfig(
            tenants=TENANTS, scheme="???", duration=1.0, deadline=1.0
        )
        with pytest.raises(FleetError):
            Cell("bad", cell.pfs, config)

    def test_no_tenants_rejected(self, env):
        cell = make_cell(env, "c")
        config = ServeConfig(
            tenants=(), scheme="DAS", duration=1.0, deadline=1.0
        )
        with pytest.raises(FleetError):
            Cell("bad", cell.pfs, config)

    def test_shares_the_fleet_clock(self, env):
        a = make_cell(env, "a")
        b = make_cell(env, "b")
        assert a.env is env and b.env is env
        assert a.cluster is not b.cluster

    def test_double_start_raises(self, env):
        cell = make_cell(env, "c")
        cell.start()
        with pytest.raises(FleetError):
            cell.start()


class TestRoutingSignals:
    def test_healthy_tracks_storage_nodes(self, env):
        cell = make_cell(env, "c")
        assert cell.healthy()
        assert cell.up_fraction() == 1.0
        cell.cluster.storage_nodes[0].fail()
        assert not cell.healthy()
        assert cell.up_fraction() == 0.5
        cell.cluster.storage_nodes[0].recover()
        assert cell.healthy()

    def test_hosts_by_pfs_residence(self, env):
        cell = make_cell(env, "c", files=("dem_a",))
        assert cell.hosts("dem_a")
        assert not cell.hosts("dem_b")

    def test_would_admit_respects_queue_capacity(self, env):
        cell = make_cell(env, "c", queue_capacity=2)
        assert cell.would_admit(make_request(1))
        assert cell.submit(make_request(1))
        assert cell.submit(make_request(2))
        assert not cell.would_admit(make_request(3))
        assert not cell.would_admit(make_request(4, tenant="nobody"))

    def test_load_counts_backlog_and_in_flight(self, env):
        cell = make_cell(env, "c", queue_capacity=8, concurrency=1)
        assert cell.load() == 0.0
        for i in range(1, 4):
            cell.submit(make_request(i))
        assert cell.load() == 3.0


class TestServing:
    def test_submitted_requests_settle_and_summarise(self, env):
        cell = make_cell(env, "c")
        cell.start()
        for i in range(1, 5):
            cell.submit(make_request(i))
        env.run()
        assert cell.board.total_admitted == 4
        assert cell.board.total_settled == 4
        assert cell.drained(duration=0.0)
        summary = cell.summary(elapsed=env.now)
        assert summary["cell"] == "c"
        assert summary["admitted"] == summary["settled"] == 4
        assert summary["result_digest"]["count"] == 4

    def test_sharded_slot_groups_key_on_primary_server(self, env):
        cell = make_cell(env, "c")
        group = cell.scheduler._slot_groups(make_request(1, file="dem_a"))
        assert group == cell.pfs.metadata.lookup("dem_a").layout.servers[0]
        assert group in cell.pfs.server_names

    def test_only_cells_shard_their_admission_slots(self, env):
        # One stack, two acquisition policies: a ServeSystem keeps the
        # single global pool, a Cell keys pools on the primary server.
        system = ServeSystem(*make_platform(Environment(), "s"))
        assert system.scheduler._slot_groups is None
        cell = make_cell(env, "c")
        group = cell.scheduler._slot_groups(make_request(1, file="dem_b"))
        assert group == cell.pfs.metadata.lookup("dem_b").layout.servers[0]

    def test_shared_summary_block_matches_serve_system(self, env):
        # Same spec, both deployments of the stack: the block they share
        # carries the same keys in the same order.
        shared = (
            "paths", "tenants", "batch", "result_digest", "decision_cache",
        )
        system = ServeSystem(*make_platform(Environment(), "s"))
        cell = make_cell(env, "s")
        block = list(cell.summary_block(0.0))
        assert block == list(shared)
        for summary in (system.summary(0.0), cell.summary(0.0)):
            assert [k for k in summary if k in shared] == block
