"""The autoscale controller: policy, hysteresis, resizes, safety.

Three layers of coverage:

* pure logic — policy validation and :func:`scaled_layout` re-spanning;
* control loop — breach/calm streaks, the hysteresis band, cooldown and
  clamp, driven by hand-fed window samples against a real platform;
* integration — a full ramped serving run where resizes race in-flight
  requests, asserting conservation, cache invalidation, and that the
  per-request output CRCs match a never-resized run of the same
  workload (exactly-once, digest-identical across resizes).
"""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.hw import Cluster
from repro.pfs import ParallelFileSystem
from repro.pfs.layout import GroupedLayout, RoundRobinLayout
from repro.pfs.replicated import ReplicatedGroupedLayout
from repro.serve import (
    AutoscaleController,
    AutoscalePolicy,
    ServeConfig,
    ServeSystem,
    SLOWindow,
    scaled_layout,
)
from repro.serve.autoscale import AutoscaleAction
from repro.serve.dispatch import LoadAwareExecutor
from repro.serve.workload import TenantSpec
from repro.units import KiB
from repro.workloads import fractal_dem


class TestPolicyValidation:
    def test_defaults_valid(self):
        AutoscalePolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_servers": 0},
            {"min_servers": 3, "max_servers": 2},
            {"interval": 0.0},
            {"cooldown": -1.0},
            {"p99_low": 0.0},
            {"p99_low": 0.6, "p99_high": 0.5},
            {"queue_high": 0},
            {"breach_ticks": 0},
            {"calm_ticks": 0},
            {"step": 0},
            {"min_samples": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ServeError):
            AutoscalePolicy(**kwargs)


class TestScaledLayout:
    SERVERS4 = ["s0", "s1", "s2", "s3"]

    def test_empty_servers_raises(self):
        with pytest.raises(ServeError):
            scaled_layout(RoundRobinLayout(["s0"], 4 * KiB), [], 64 * KiB)

    def test_round_robin_respans(self):
        out = scaled_layout(
            RoundRobinLayout(["s0", "s1"], 4 * KiB), self.SERVERS4, 64 * KiB
        )
        assert isinstance(out, RoundRobinLayout)
        assert list(out.servers) == self.SERVERS4
        assert out.strip_size == 4 * KiB

    def test_grouped_shrinks_group_on_more_servers(self):
        # 16 strips over 2 servers needs group 8; over 4 it needs 4.
        old = GroupedLayout(["s0", "s1"], 4 * KiB, 8)
        out = scaled_layout(old, self.SERVERS4, 64 * KiB)
        assert isinstance(out, GroupedLayout)
        assert out.group == 4

    def test_replicated_preserves_halo(self):
        old = ReplicatedGroupedLayout(["s0", "s1"], 4 * KiB, 8, halo_strips=2)
        out = scaled_layout(old, self.SERVERS4, 64 * KiB)
        assert isinstance(out, ReplicatedGroupedLayout)
        assert out.halo_strips == 2
        assert out.group == 4

    def test_group_never_below_halo(self):
        # Halo reach bounds the group from below, or replication breaks.
        old = ReplicatedGroupedLayout(["s0"], 4 * KiB, 4, halo_strips=3)
        out = scaled_layout(old, self.SERVERS4, 16 * KiB)  # 4 strips
        assert out.group >= out.halo_strips


class FakeScheduler:
    def __init__(self):
        self.queues = {"t": []}


class FakeBoard:
    """Just enough board for the controller: a window and two totals."""

    def __init__(self, horizon=2.0):
        self.window = SLOWindow(horizon)
        self.total_admitted = 0
        self.total_settled = 0


def build_world(ingest_servers=2, halo=True):
    cluster = Cluster.build(n_compute=2, n_storage=4)
    pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
    dem = fractal_dem(128, 128, rng=np.random.default_rng(7))  # 16 strips
    subset = pfs.server_names[:ingest_servers]
    if halo:
        layout = ReplicatedGroupedLayout(subset, 4 * KiB, 8, halo_strips=1)
    else:
        layout = RoundRobinLayout(subset, 4 * KiB)
    pfs.client("c0").ingest("dem", dem, layout)
    return cluster, pfs


def build_controller(policy, duration=60.0, ingest_servers=2):
    cluster, pfs = build_world(ingest_servers=ingest_servers)
    executor = LoadAwareExecutor(pfs, scheme="DAS")
    scheduler = FakeScheduler()
    board = FakeBoard()
    controller = AutoscaleController(
        pfs, executor, scheduler, board, policy,
        files=("dem",), duration=duration,
    )
    return cluster, pfs, executor, scheduler, board, controller


def feed_breach(cluster, board, latency=5.0, period=0.1, until=10.0):
    """A process that keeps the window full of slow finishes."""

    def feeder():
        while cluster.env.now < until:
            board.window.record(cluster.env.now, latency)
            yield cluster.env.timeout(period)

    cluster.env.process(feeder(), name="breach-feeder")


class TestControllerConstruction:
    def test_clamp_beyond_cluster_raises(self):
        cluster, pfs = build_world()
        with pytest.raises(ServeError):
            AutoscaleController(
                pfs, LoadAwareExecutor(pfs, scheme="DAS"), FakeScheduler(),
                FakeBoard(), AutoscalePolicy(max_servers=9),
                files=("dem",), duration=10.0,
            )

    def test_no_files_raises(self):
        cluster, pfs = build_world()
        with pytest.raises(ServeError):
            AutoscaleController(
                pfs, LoadAwareExecutor(pfs, scheme="DAS"), FakeScheduler(),
                FakeBoard(), AutoscalePolicy(),
                files=(), duration=10.0,
            )

    def test_initial_partition_outside_clamp_raises(self):
        cluster, pfs = build_world(ingest_servers=4)
        with pytest.raises(ServeError):
            AutoscaleController(
                pfs, LoadAwareExecutor(pfs, scheme="DAS"), FakeScheduler(),
                FakeBoard(), AutoscalePolicy(min_servers=1, max_servers=2),
                files=("dem",), duration=10.0,
            )

    def test_start_twice_raises(self):
        *_, controller = build_controller(AutoscalePolicy(min_servers=2))
        controller.start()
        with pytest.raises(ServeError):
            controller.start()


class TestHysteresis:
    """Streak logic, exercised tick by tick without running the sim.

    ``_tick()`` is a generator that only yields when it commits a
    resize, so a no-action tick can be driven synchronously with
    ``list()`` and its streak bookkeeping inspected directly.
    """

    def policy(self, **kwargs):
        defaults = dict(
            min_servers=2, max_servers=4, breach_ticks=3, calm_ticks=3,
            min_samples=1, p99_low=0.2, p99_high=0.5,
        )
        defaults.update(kwargs)
        return AutoscalePolicy(**defaults)

    def test_single_breach_tick_does_not_scale(self):
        *_, board, controller = build_controller(self.policy())[3:]
        board.window.record(0.0, 5.0)
        assert list(controller._tick()) == []
        assert controller._breach_streak == 1
        assert controller.active == 2
        assert controller.actions == []

    def test_queue_depth_alone_breaches(self):
        _, _, _, scheduler, _, controller = build_controller(self.policy())
        scheduler.queues["t"] = list(range(30))  # >= queue_high
        list(controller._tick())
        assert controller._breach_streak == 1

    def test_ambiguous_band_resets_both_streaks(self):
        *_, board, controller = build_controller(self.policy())[3:]
        board.window.record(0.0, 5.0)
        list(controller._tick())
        assert controller._breach_streak == 1
        # p99 lands between p99_low and p99_high: neither breach nor calm.
        board.window._samples.clear()
        board.window.record(0.0, 0.3)
        list(controller._tick())
        assert controller._breach_streak == 0
        assert controller._calm_streak == 0

    def test_warm_up_gates_the_latency_breach(self):
        *_, board, controller = build_controller(
            self.policy(min_samples=5)
        )[3:]
        board.window.record(0.0, 5.0)  # breaching p99, but 1 < min_samples
        list(controller._tick())
        assert controller._breach_streak == 0

    def test_empty_window_idle_queues_count_calm(self):
        *_, controller = build_controller(self.policy())
        list(controller._tick())
        assert controller._calm_streak == 1

    def test_cooldown_holds_a_ready_scale_up(self):
        cluster, _, _, _, board, controller = build_controller(
            self.policy(breach_ticks=1, cooldown=100.0)
        )
        controller._last_action_at = 0.0  # pretend a resize just happened
        board.window.record(0.0, 5.0)
        assert list(controller._tick()) == []
        assert controller.actions == []
        holds = cluster.monitors.counter("autoscale.cooldown_holds").value
        assert holds == 1


class TestResize:
    def test_breach_streak_scales_up(self):
        policy = AutoscalePolicy(
            min_servers=2, max_servers=4, interval=0.25, breach_ticks=2,
            min_samples=1, cooldown=100.0,  # one action only
        )
        cluster, pfs, executor, _, board, controller = build_controller(
            policy, duration=5.0
        )
        feed_breach(cluster, board, until=4.0)
        controller.start()
        cluster.run()
        assert [a.direction for a in controller.actions] == ["up"]
        assert controller.active == 3
        assert controller.partition() == pfs.server_names[:3]
        # The file really moved: its layout now spans the new partition.
        layout = pfs.metadata.lookup("dem").layout
        assert list(layout.servers) == pfs.server_names[:3]
        assert layout.halo_strips == 1  # reach preserved across the move
        assert controller.actions[0].moved_bytes > 0
        assert cluster.monitors.counter("autoscale.scale_ups").value == 1

    def test_calm_streak_scales_down_and_drops_stray_caches(self):
        policy = AutoscalePolicy(
            min_servers=2, max_servers=4, interval=0.25, calm_ticks=2,
            cooldown=100.0,
        )
        cluster, pfs, executor, _, board, controller = build_controller(
            policy, duration=5.0, ingest_servers=3
        )
        # Warm the outgoing server's strip cache so the drop is visible
        # (the default platform runs cacheless; give it a budget first).
        third = pfs.server_names[2]
        pfs.servers[third].cache.budget = 64 * KiB
        pfs.servers[third].cache.insert(("dem", 0), 4 * KiB)
        assert len(pfs.servers[third].cache) == 1
        controller.start()
        cluster.run()
        assert [a.direction for a in controller.actions] == ["down"]
        assert controller.active == 2
        assert len(pfs.servers[third].cache) == 0
        layout = pfs.metadata.lookup("dem").layout
        assert list(layout.servers) == pfs.server_names[:2]

    def test_resize_invalidates_decision_cache(self):
        policy = AutoscalePolicy(
            min_servers=2, max_servers=4, interval=0.25, breach_ticks=1,
            min_samples=1, cooldown=100.0,
        )
        cluster, pfs, executor, _, board, controller = build_controller(
            policy, duration=2.0
        )
        # Warm the decision cache with the pre-resize geometry.
        meta = pfs.metadata.lookup("dem")
        executor.cache.decide(meta, "gaussian", pipeline_length=2)
        assert executor.cache.stats.misses == 1
        feed_breach(cluster, board, until=1.5)
        controller.start()
        cluster.run()
        assert controller.actions, "no resize happened"
        # The stale verdict is gone: the same consult misses again.
        executor.cache.decide(
            pfs.metadata.lookup("dem"), "gaussian", pipeline_length=2
        )
        assert executor.cache.stats.misses == 2

    def test_observer_mode_never_resizes(self):
        policy = AutoscalePolicy(
            min_servers=2, max_servers=2, interval=0.25, breach_ticks=1,
            min_samples=1,
        )
        cluster, pfs, executor, _, board, controller = build_controller(
            policy, duration=3.0
        )
        feed_breach(cluster, board, until=2.5)
        controller.start()
        cluster.run()
        assert controller.actions == []
        assert controller.active == 2
        assert cluster.monitors.counter("autoscale.breaches").value > 0
        assert [o for o in controller.trace if o["breach"]], "never observed"


def ramped_run(autoscale):
    """One small ramped serving run on the throttled serving platform
    (the default platform is too fast for a 4x surge to queue anything);
    returns (summary, system)."""
    from repro.scenarios.platform import SERVE_SPEC

    cluster = Cluster.build(n_compute=4, n_storage=4, spec=SERVE_SPEC)
    pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
    dem = fractal_dem(128, 192, rng=np.random.default_rng(11))
    subset = pfs.server_names[:2]
    pfs.client("c0").ingest(
        "dem", dem, ReplicatedGroupedLayout(subset, 4 * KiB, 12, halo_strips=1)
    )
    config = ServeConfig(
        tenants=(
            TenantSpec("t", rate=8.0, kernels=("gaussian",), files=("dem",)),
        ),
        scheme="DAS",
        duration=6.0,
        deadline=0.5,
        concurrency=4,
        queue_capacity=12,
        ramp=((0.0, 1.0), (1.5, 4.0), (4.0, 0.25)),
        autoscale=autoscale,
    )
    system = ServeSystem(pfs, config)
    return system.run(), system


class TestServingIntegration:
    def test_resizes_race_in_flight_requests_safely(self):
        policy = AutoscalePolicy(
            min_servers=2, max_servers=4, interval=0.25, breach_ticks=2,
            calm_ticks=4, cooldown=0.5, min_samples=3, queue_high=6,
            p99_high=0.5, p99_low=0.25,
        )
        observer = AutoscalePolicy(
            min_servers=2, max_servers=2, interval=policy.interval,
            breach_ticks=policy.breach_ticks, calm_ticks=policy.calm_ticks,
            cooldown=policy.cooldown, min_samples=policy.min_samples,
            queue_high=policy.queue_high, p99_high=policy.p99_high,
            p99_low=policy.p99_low,
        )
        auto_summary, auto_system = ramped_run(policy)
        static_summary, static_system = ramped_run(observer)

        a = auto_summary["autoscale"]
        assert a["scale_ups"] >= 1, "surge never triggered a resize"
        # Exactly-once conservation straight through the resizes.
        assert auto_summary["admitted"] == auto_summary["settled"]
        assert static_summary["admitted"] == static_summary["settled"]
        # Digest-identical: any request completed by both runs produced
        # the same output bytes, resize or no resize.
        auto_digests = auto_system.executor.digests
        static_digests = static_system.executor.digests
        shared = set(auto_digests) & set(static_digests)
        assert shared, "runs completed no common requests"
        assert all(auto_digests[r] == static_digests[r] for r in shared)

    def test_summary_block_only_when_configured(self):
        summary, _ = ramped_run(None)
        assert "autoscale" not in summary

    def test_replay_is_bit_identical(self):
        policy = AutoscalePolicy(
            min_servers=2, max_servers=4, interval=0.25, breach_ticks=2,
            calm_ticks=4, cooldown=0.5, min_samples=3, queue_high=6,
        )
        first, _ = ramped_run(policy)
        second, _ = ramped_run(policy)
        assert first == second

    def test_action_log_round_trips_into_summary(self):
        policy = AutoscalePolicy(
            min_servers=2, max_servers=4, interval=0.25, breach_ticks=2,
            calm_ticks=4, cooldown=0.5, min_samples=3, queue_high=6,
        )
        summary, system = ramped_run(policy)
        block = summary["autoscale"]
        assert len(block["actions"]) == len(system.autoscaler.actions)
        for entry, action in zip(block["actions"], system.autoscaler.actions):
            assert isinstance(action, AutoscaleAction)
            assert entry["direction"] == action.direction
            assert entry["to"] == action.to_servers
