"""SLO-driven autoscaling of the storage partition.

The paper's thesis is that active storage should adapt *per request* —
offload only when the predicted bytes win.  This module closes the loop
one level up: the deployment itself adapts.  An
:class:`AutoscaleController` runs on the simulation clock, watches the
windowed SLO signal (:class:`~repro.serve.slo.SLOWindow` p99 plus
admission-queue depth), and grows or shrinks the *active storage
partition* — the prefix of the cluster's storage servers that holds the
served files — by driving the PR 3 redistribution engine under the same
per-file :class:`~repro.sim.resources.ReadWriteLock` fencing the
serving data path uses.  In-flight reads and resizes therefore never
race: a resize takes each file's write side, moves the strips, and
releases; reads queued behind it observe the new layout.

Flap control is structural, not tuned-by-hope:

* **hysteresis** — a scale-up needs ``breach_ticks`` *consecutive*
  breaching observations, a scale-down ``calm_ticks`` consecutive calm
  ones; a single noisy window moves nothing;
* **cooldown** — after any resize the controller holds for ``cooldown``
  simulated seconds, so it observes the effect of its last action
  before taking another;
* **clamp** — the partition never leaves ``[min_servers, max_servers]``.

Membership changes invalidate caches exactly as fault-driven changes
do (see :class:`~repro.faults.injector.FaultInjector`): the offload
:class:`~repro.core.decision_cache.DecisionCache` is cleared — cached
verdicts predate the new membership — and servers leaving the partition
drop their strip caches (a drained server's page cache is gone for
serving purposes).  Everything the controller does is booked under
``autoscale.*`` counters and a per-tick :attr:`AutoscaleController.trace`
so benches and tests can replay its reasoning deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..errors import ServeError
from ..obs.span import NULL_SPAN
from ..pfs.layout import GroupedLayout, Layout, RoundRobinLayout
from ..pfs.replicated import ReplicatedGroupedLayout


@dataclass(frozen=True)
class AutoscalePolicy:
    """The knobs of the control loop (see docs/OPERATIONS.md).

    ``p99_high`` / ``p99_low`` are the scale-up and scale-down
    thresholds on the windowed p99; keeping ``p99_low`` well below
    ``p99_high`` is the hysteresis *band* that prevents flapping around
    a single set-point.  ``queue_high`` breaches on admission backlog
    even before latencies surface (queues build faster than p99 moves).
    """

    #: Partition clamp: the controller never drains below / grows above.
    min_servers: int = 1
    max_servers: int = 4
    #: Control tick, simulated seconds.
    interval: float = 0.5
    #: Windowed-p99 thresholds, simulated seconds.
    p99_high: float = 0.5
    p99_low: float = 0.2
    #: Total admission-queue depth that counts as a breach on its own.
    queue_high: int = 24
    #: Consecutive breaching ticks required before a scale-up.
    breach_ticks: int = 2
    #: Consecutive calm ticks required before a scale-down.
    calm_ticks: int = 6
    #: Hold time after any resize, simulated seconds.
    cooldown: float = 2.0
    #: Servers added / removed per action.
    step: int = 1
    #: Warm-up: windowed p99 is actionable only with this many samples.
    min_samples: int = 5

    def __post_init__(self):
        if self.min_servers < 1 or self.max_servers < self.min_servers:
            raise ServeError(
                "autoscale clamp needs 1 <= min_servers <= max_servers,"
                f" got [{self.min_servers}, {self.max_servers}]"
            )
        if self.interval <= 0 or self.cooldown < 0:
            raise ServeError("interval must be positive and cooldown >= 0")
        if not 0 < self.p99_low <= self.p99_high:
            raise ServeError(
                "thresholds need 0 < p99_low <= p99_high,"
                f" got ({self.p99_low}, {self.p99_high})"
            )
        if self.queue_high < 1:
            raise ServeError("queue_high must be >= 1")
        if self.breach_ticks < 1 or self.calm_ticks < 1:
            raise ServeError("breach_ticks and calm_ticks must be >= 1")
        if self.step < 1:
            raise ServeError("step must be >= 1")
        if self.min_samples < 1:
            raise ServeError("min_samples must be >= 1")


@dataclass(frozen=True)
class AutoscaleAction:
    """One committed resize, for traces and summaries."""

    at: float
    direction: str  # "up" | "down"
    from_servers: int
    to_servers: int
    moved_bytes: int
    reason: str


def scaled_layout(layout: Layout, servers: Sequence[str], file_size: int) -> Layout:
    """``layout``'s placement family re-spanned over ``servers``.

    Preserves what makes the layout correct for its operators — the
    replicated halo reach — while recomputing the group factor so the
    strips of a ``file_size``-byte file spread across the new partition:
    more servers means smaller groups (more parallelism), fewer servers
    means larger groups.  The decision engine's ``already_optimal`` test
    keys on the halo reach, so a file that was offloadable stays
    offloadable after a resize.
    """
    servers = list(servers)
    if not servers:
        raise ServeError("scaled_layout needs at least one server")
    n_strips = max(1, layout.n_strips(file_size))
    if isinstance(layout, ReplicatedGroupedLayout):
        group = max(layout.halo_strips, 1, math.ceil(n_strips / len(servers)))
        return ReplicatedGroupedLayout(
            servers, layout.strip_size, group, layout.halo_strips
        )
    if isinstance(layout, GroupedLayout):
        group = max(1, math.ceil(n_strips / len(servers)))
        return GroupedLayout(servers, layout.strip_size, group)
    return RoundRobinLayout(servers, layout.strip_size)


class AutoscaleController:
    """Grow/shrink the active storage partition when the SLO drifts.

    The controller is a plain simulation process; :meth:`start` spawns
    it and it exits on its own once the run has drained (offered load
    ended, queues empty, every admitted request settled), so a serving
    run with autoscaling still quiesces.
    """

    def __init__(
        self,
        pfs,
        executor,
        scheduler,
        board,
        policy: AutoscalePolicy,
        files: Sequence[str],
        duration: float,
    ):
        names = pfs.server_names
        if policy.max_servers > len(names):
            raise ServeError(
                f"max_servers {policy.max_servers} exceeds the cluster's"
                f" {len(names)} storage servers"
            )
        if not files:
            raise ServeError("autoscale controller needs at least one file")
        self.pfs = pfs
        self.executor = executor
        self.scheduler = scheduler
        self.board = board
        self.policy = policy
        self.files = sorted(set(files))
        self.duration = float(duration)
        self.env = pfs.cluster.env
        self.monitors = pfs.cluster.monitors
        #: Current partition size: how many of server_names[:n] serve data.
        self.active = self._initial_active()
        if not policy.min_servers <= self.active <= policy.max_servers:
            raise ServeError(
                f"initial partition ({self.active} servers) lies outside the"
                f" clamp [{policy.min_servers}, {policy.max_servers}]"
            )
        self.actions: List[AutoscaleAction] = []
        #: One dict per control tick: the controller's full observation.
        self.trace: List[Dict[str, float]] = []
        #: Optional fleet-level veto: ``callable(controller, direction,
        #: target) -> bool`` consulted before a resize commits (see
        #: ``repro.fleet.FleetController``).  ``None`` approves all.
        self.arbiter = None
        self._breach_streak = 0
        self._calm_streak = 0
        self._last_action_at = -float("inf")
        self._gauge = self.monitors.gauge("autoscale.active")
        self._gauge.adjust(self.active)
        self._started = False

    def _initial_active(self) -> int:
        """Partition size implied by the tracked files' layouts."""
        return max(
            len(self.pfs.metadata.lookup(f).layout.servers) for f in self.files
        )

    # -- lifecycle -------------------------------------------------------------
    def start(self):
        if self._started:
            raise ServeError("autoscale controller already started")
        self._started = True
        return self.env.process(self._run(), name="autoscale-controller")

    def _drained(self) -> bool:
        return (
            self.env.now >= self.duration
            and not any(self.scheduler.queues.values())
            and self.board.total_settled == self.board.total_admitted
        )

    def _run(self):
        while True:
            yield self.env.timeout(self.policy.interval)
            if self._drained():
                return
            yield from self._tick()

    # -- one control decision --------------------------------------------------
    def _observe(self) -> Dict[str, float]:
        now = self.env.now
        samples = self.board.window.count(now)
        p99 = self.board.window.p99(now)
        depth = sum(len(q) for q in self.scheduler.queues.values())
        return {"t": now, "p99": p99, "samples": samples, "depth": depth}

    def _tick(self):
        policy = self.policy
        obs = self._observe()
        self.monitors.counter("autoscale.ticks").add()
        breach = (
            obs["samples"] >= policy.min_samples and obs["p99"] > policy.p99_high
        ) or obs["depth"] >= policy.queue_high
        calm = (
            obs["samples"] == 0 or obs["p99"] <= policy.p99_low
        ) and obs["depth"] == 0
        if breach:
            self._breach_streak += 1
            self._calm_streak = 0
            self.monitors.counter("autoscale.breaches").add()
        elif calm:
            self._calm_streak += 1
            self._breach_streak = 0
        else:
            # Between the thresholds: the hysteresis band resets both
            # streaks — neither scaling direction may act on ambiguity.
            self._breach_streak = 0
            self._calm_streak = 0
        obs.update(
            active=self.active,
            breach=int(breach),
            calm=int(calm),
            breach_streak=self._breach_streak,
            calm_streak=self._calm_streak,
        )
        self.trace.append(obs)

        cooling = self.env.now - self._last_action_at < policy.cooldown
        if cooling:
            self.monitors.counter("autoscale.cooldown_holds").add()
            return
        if self._breach_streak >= policy.breach_ticks:
            target = min(policy.max_servers, self.active + policy.step)
            if target > self.active and self._approved("up", target):
                yield from self._resize(
                    target,
                    reason=(
                        f"p99 {obs['p99']:.3f}s / depth {obs['depth']:.0f}"
                        f" breached for {self._breach_streak} ticks"
                    ),
                )
            self._breach_streak = 0
        elif self._calm_streak >= policy.calm_ticks:
            target = max(policy.min_servers, self.active - policy.step)
            if target < self.active and self._approved("down", target):
                yield from self._resize(
                    target,
                    reason=(
                        f"p99 {obs['p99']:.3f}s calm for"
                        f" {self._calm_streak} ticks"
                    ),
                )
            self._calm_streak = 0

    def _approved(self, direction: str, target: int) -> bool:
        """Consult the fleet arbiter, when one is attached."""
        if self.arbiter is None:
            return True
        return bool(self.arbiter(self, direction, target))

    # -- the resize itself -----------------------------------------------------
    def _resize(self, target: int, reason: str):
        """Move every tracked file onto the first ``target`` storage
        servers, one file at a time under its write fence."""
        old_servers = set(self.pfs.server_names[: self.active])
        new_names = self.pfs.server_names[:target]
        direction = "up" if target > self.active else "down"
        tracer = self.monitors.tracer
        rspan = NULL_SPAN
        if tracer:
            rspan = tracer.begin(
                f"resize:{direction}",
                cat="resize",
                track="autoscale",
                target=target,
                from_servers=self.active,
            )
        moved_total = 0
        for file in self.files:
            claim = self.executor.write_fence(file)
            fence = NULL_SPAN
            if rspan and not claim.triggered:
                # Span only contended fence waits; an uncontended claim
                # completes synchronously and would be a 0-width span.
                fence = tracer.begin(
                    f"fence:{file}", cat="fence", parent=rspan, file=file
                )
            yield claim
            fence.finish()
            try:
                meta = self.pfs.metadata.lookup(file)
                old_layout = meta.layout
                new_layout = scaled_layout(old_layout, new_names, meta.size)
                if list(old_layout.servers) == list(new_layout.servers) and (
                    getattr(old_layout, "group", None)
                    == getattr(new_layout, "group", None)
                ):
                    continue
                move = NULL_SPAN
                if rspan:
                    move = tracer.begin(
                        f"redistribute:{file}",
                        cat="redistribute",
                        parent=rspan,
                        file=file,
                    )
                moved = yield self.pfs.redistributor.redistribute(file, new_layout)
                move.finish(bytes=int(moved))
                moved_total += int(moved)
                if self.executor.cache is not None:
                    self.executor.cache.invalidate_meta(meta, layout=old_layout)
            finally:
                claim.release()
        # Membership changed: mirror the fault path's invalidations.
        if self.executor.cache is not None:
            self.executor.cache.clear()
        for name in sorted(old_servers - set(new_names)):
            server = self.pfs.servers.get(name)
            if server is not None and server.cache is not None:
                server.cache.clear()

        self._gauge.adjust(target - self.active)
        action = AutoscaleAction(
            at=self.env.now,
            direction=direction,
            from_servers=self.active,
            to_servers=target,
            moved_bytes=moved_total,
            reason=reason,
        )
        self.actions.append(action)
        self.active = target
        self._last_action_at = self.env.now
        self.monitors.counter(f"autoscale.scale_{direction}s").add()
        self.monitors.counter("autoscale.moved_bytes").add(moved_total)
        rspan.finish(moved_bytes=moved_total)
        if tracer:
            tracer.instant(
                f"autoscale.scale-{direction}",
                track="autoscale",
                target=target,
                moved_bytes=moved_total,
            )

    # -- reporting -------------------------------------------------------------
    def partition(self) -> List[str]:
        """Names of the storage servers currently in the partition."""
        return list(self.pfs.server_names[: self.active])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AutoscaleController active={self.active}"
            f" clamp=[{self.policy.min_servers},{self.policy.max_servers}]"
            f" actions={len(self.actions)}>"
        )
