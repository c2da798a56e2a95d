"""Fault injector: applies a :class:`~repro.faults.plan.FaultPlan`.

The injector is a plain simulation process.  It sleeps until each
scheduled event's time and then mutates the cluster: ``crash`` brings a
node's NIC down (and drops that server's strip cache — a crashed
machine loses its page cache), ``recover`` brings it back, ``slow`` /
``restore`` scale a disk's streaming throughput, and ``cut`` / ``heal``
partition / repair a link in the fabric.

Everything it does is booked under ``faults.*`` counters, and outage
windows are tracked so :meth:`FaultInjector.mttr` can report the mean
time to repair.  Listeners registered with :meth:`on_event` observe
each applied event — the serving layer uses this to invalidate its
offload decision cache when membership changes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import FaultError
from ..sim import Process
from .plan import FaultEvent, FaultPlan

Listener = Callable[[FaultEvent], None]


class FaultInjector:
    """Applies a fault plan to a live cluster at simulated times."""

    def __init__(self, cluster, plan: FaultPlan, pfs=None):
        self.cluster = cluster
        self.plan = plan
        self.pfs = pfs
        self.monitors = cluster.monitors
        self.applied: List[FaultEvent] = []
        self._listeners: List[Listener] = []
        self._down_since: Dict[str, float] = {}
        self._repair_times: List[float] = []
        self._started = False

    # -- wiring ---------------------------------------------------------------
    def on_event(self, listener: Listener) -> None:
        """Call ``listener(event)`` after each event is applied."""
        self._listeners.append(listener)

    def start(self) -> Optional[Process]:
        """Spawn the injector process (no-op for an empty plan)."""
        if self._started:
            raise FaultError("fault injector already started")
        self._started = True
        if not self.plan:
            return None
        return self.cluster.env.process(self._run(), name="fault-injector")

    # -- the injector process -------------------------------------------------
    def _run(self):
        env = self.cluster.env
        for event in self.plan:
            if event.at > env.now:
                yield env.timeout(event.at - env.now)
            self._apply(event)
            self.applied.append(event)
            for listener in self._listeners:
                listener(event)

    def _apply(self, event: FaultEvent) -> None:
        env = self.cluster.env
        kind = event.kind
        if kind == "crash":
            node = self.cluster.node(event.target)
            if node.is_up:
                node.fail()
                self._down_since[event.target] = env.now
                self.monitors.counter("faults.crashes").add()
                if self.pfs is not None:
                    server = self.pfs.servers.get(event.target)
                    if server is not None and server.cache is not None:
                        server.cache.clear()
        elif kind == "recover":
            node = self.cluster.node(event.target)
            if not node.is_up:
                node.recover()
                went_down = self._down_since.pop(event.target, None)
                if went_down is not None:
                    outage = env.now - went_down
                    self._repair_times.append(outage)
                    self.monitors.counter("faults.downtime_seconds").add(outage)
                self.monitors.counter("faults.recoveries").add()
        elif kind == "slow":
            self.cluster.node(event.target).disk.degrade(event.factor)
            self.monitors.counter("faults.disk_degraded").add()
        elif kind == "restore":
            self.cluster.node(event.target).disk.restore()
            self.monitors.counter("faults.disk_restored").add()
        elif kind == "cut":
            self.cluster.fabric.cut(event.target, event.peer)
            self.monitors.counter("faults.link_cuts").add()
        elif kind == "heal":
            self.cluster.fabric.heal(event.target, event.peer)
            self.monitors.counter("faults.link_heals").add()
        else:  # pragma: no cover - FaultEvent validates kinds
            raise FaultError(f"unknown fault kind {kind!r}")
        if self.monitors.tracer:
            self.monitors.tracer.instant(
                f"fault.{event.kind}",
                track="faults",
                target=event.target,
                peer=event.peer or None,
            )

    # -- measurement ----------------------------------------------------------
    def mttr(self) -> float:
        """Mean time to repair over completed outages (0 when none)."""
        if not self._repair_times:
            return 0.0
        return sum(self._repair_times) / len(self._repair_times)

    @property
    def repairs(self) -> int:
        return len(self._repair_times)

    @property
    def still_down(self) -> List[str]:
        """Nodes crashed by the plan and not (yet) recovered."""
        return sorted(self._down_since)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FaultInjector events={len(self.plan)}"
            f" applied={len(self.applied)} repairs={self.repairs}>"
        )
