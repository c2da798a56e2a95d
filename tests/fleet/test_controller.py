"""Unit tests for budget-arbitrated fleet autoscaling."""

import pytest

from repro.errors import FleetError
from repro.fleet import FleetController
from repro.fleet.controller import OBSERVE_INTERVAL
from repro.sim import MonitorHub


class StubPolicy:
    def __init__(self, lo, hi):
        self.min_servers = lo
        self.max_servers = hi


class StubAutoscaler:
    def __init__(self, lo=2, hi=4, active=None):
        self.policy = StubPolicy(lo, hi)
        self.active = lo if active is None else active
        self.arbiter = None
        self.started = False

    def start(self):
        self.started = True


class StubWindow:
    def p99(self, now):
        return 0.0

    def count(self, now):
        return 0


class StubBoard:
    window = StubWindow()


class StubScheduler:
    def queued_total(self):
        return 0


class StubCell:
    def __init__(self, name, autoscaler=None):
        self.name = name
        self.autoscaler = autoscaler
        self.board = StubBoard()
        self.scheduler = StubScheduler()

    def drained(self, duration):
        return True


def make_controller(env, cells, **kw):
    return FleetController(env, cells, MonitorHub(env), **kw)


class TestBudget:
    def test_default_budget_is_the_sum_of_clamps(self, env):
        cells = [
            StubCell("a", StubAutoscaler(2, 4)),
            StubCell("b", StubAutoscaler(2, 3)),
            StubCell("c"),  # not autoscaled: contributes nothing
        ]
        assert make_controller(env, cells).budget == 7

    def test_budget_below_minimum_footprint_rejected(self, env):
        cells = [StubCell("a", StubAutoscaler(2, 4)), StubCell("b", StubAutoscaler(2, 4))]
        with pytest.raises(FleetError):
            make_controller(env, cells, budget=3)

    def test_total_active_sums_autoscaled_cells(self, env):
        cells = [
            StubCell("a", StubAutoscaler(2, 4, active=3)),
            StubCell("b", StubAutoscaler(2, 4, active=2)),
        ]
        assert make_controller(env, cells).total_active() == 5


class TestArbitration:
    def _fleet(self, env, budget=5):
        cells = [
            StubCell("a", StubAutoscaler(2, 4)),
            StubCell("b", StubAutoscaler(2, 4)),
        ]
        controller = make_controller(env, cells, budget=budget)
        return controller, cells

    def test_scale_up_within_budget_granted(self, env):
        controller, cells = self._fleet(env, budget=5)
        arbiter = controller._make_arbiter(cells[0])
        # Totals 4; a -> 3 projects to 5, exactly the budget.
        assert arbiter(cells[0].autoscaler, "up", 3)
        assert controller.decisions[-1]["verdict"] == "grant"
        assert controller.monitors.counter("fleet.scale_grants").value == 1

    def test_scale_up_over_budget_denied(self, env):
        controller, cells = self._fleet(env, budget=5)
        cells[1].autoscaler.active = 3  # totals 5: no headroom left
        arbiter = controller._make_arbiter(cells[0])
        assert not arbiter(cells[0].autoscaler, "up", 3)
        assert controller.decisions[-1]["verdict"] == "deny"
        assert controller.monitors.counter("fleet.scale_denied").value == 1

    def test_scale_down_always_granted(self, env):
        controller, cells = self._fleet(env, budget=4)
        cells[0].autoscaler.active = 4  # already over: up would be denied
        arbiter = controller._make_arbiter(cells[0])
        assert arbiter(cells[0].autoscaler, "down", 2)
        assert controller.monitors.counter("fleet.scale_grants").value == 1

    def test_ledger_records_the_decision_context(self, env):
        controller, cells = self._fleet(env, budget=5)
        controller._make_arbiter(cells[1])(cells[1].autoscaler, "up", 4)
        entry = controller.decisions[-1]
        assert entry["cell"] == "b"
        assert entry["direction"] == "up"
        assert entry["target"] == 4
        assert entry["budget"] == 5
        assert entry["verdict"] == "deny"  # 4 - 2 + 4 = 6 > 5


class TestLifecycle:
    def test_start_attaches_arbiters_and_control_loops(self, env):
        cells = [StubCell("a", StubAutoscaler()), StubCell("b")]
        controller = make_controller(env, cells)
        controller.start()
        assert cells[0].autoscaler.started
        assert cells[0].autoscaler.arbiter is not None

    def test_double_start_raises(self, env):
        controller = make_controller(env, [StubCell("a")])
        controller.start()
        with pytest.raises(FleetError):
            controller.start()

    def test_observe_loop_traces_until_drained(self, env):
        cells = [StubCell("a", StubAutoscaler(2, 4, active=3))]
        controller = make_controller(env, cells, duration=2 * OBSERVE_INTERVAL)
        controller.start()
        env.run()
        assert env.now == pytest.approx(2 * OBSERVE_INTERVAL)
        assert [obs["t"] for obs in controller.trace] == pytest.approx(
            [OBSERVE_INTERVAL, 2 * OBSERVE_INTERVAL]
        )
        assert all(obs["total_active"] == 3 for obs in controller.trace)
        assert controller.trace[-1]["a"]["active"] == 3
        assert controller.monitors.gauge("fleet.active_servers").level == 3
