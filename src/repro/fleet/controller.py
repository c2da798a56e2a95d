"""Fleet-level autoscale coordination under a shared server budget.

Each cell already closes its own control loop
(:class:`~repro.serve.autoscale.AutoscaleController`: windowed-p99 +
queue-depth hysteresis, cooldown, clamp).  The fleet controller adds
the layer a real deployment needs on top: the cells draw from one
**server budget**, so a breaching cell may only scale up while the
fleet-wide active-partition total stays within it.  Arbitration is a
veto hook on each cell controller (``arbiter``) consulted at the
moment a resize would commit — the per-cell hysteresis, cooldown and
clamp logic is untouched, and a denied scale-up simply re-arms (the
cell keeps breaching and asks again next streak).

The controller also runs a fleet observation loop on the simulation
clock: every :data:`OBSERVE_INTERVAL` it snapshots each cell's SLO
window (the same signal the per-cell loops act on) and the fleet-wide
active total into :attr:`trace`, and books ``fleet.active_servers`` so the
bench can assert coordination happened where it claims.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import FleetError
from .cell import Cell

#: Simulated seconds between fleet observation ticks.
OBSERVE_INTERVAL = 0.5


class FleetController:
    """Per-cell autoscaling, coordinated against one server budget."""

    def __init__(
        self,
        env,
        cells: Sequence[Cell],
        monitors,
        budget: Optional[int] = None,
        duration: Optional[float] = None,
    ):
        self.env = env
        self.cells = tuple(cells)
        self.monitors = monitors
        self.duration = duration
        self.autoscaled = tuple(c for c in self.cells if c.autoscaler is not None)
        max_total = sum(
            c.autoscaler.policy.max_servers for c in self.autoscaled
        )
        #: Fleet-wide cap on the sum of active partitions.  The default
        #: (sum of per-cell clamps) never denies; a tighter budget makes
        #: scale-ups compete.
        self.budget = int(budget) if budget is not None else max_total
        if self.autoscaled:
            min_total = sum(
                c.autoscaler.policy.min_servers for c in self.autoscaled
            )
            if self.budget < min_total:
                raise FleetError(
                    f"budget {self.budget} below the fleet's minimum"
                    f" footprint {min_total}"
                )
        #: One dict per arbitration: the fleet's resize ledger.
        self.decisions: List[Dict[str, object]] = []
        #: One dict per observation tick: per-cell SLO-window snapshot.
        self.trace: List[Dict[str, object]] = []
        self._started = False

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        """Attach the arbiter to every autoscaled cell, start their
        control loops, and spawn the fleet observation loop."""
        if self._started:
            raise FleetError("fleet controller already started")
        self._started = True
        for cell in self.autoscaled:
            cell.autoscaler.arbiter = self._make_arbiter(cell)
            cell.autoscaler.start()
        if self.autoscaled:
            self.env.process(self._observe_loop(), name="fleet-controller")

    def total_active(self) -> int:
        return sum(c.autoscaler.active for c in self.autoscaled)

    def _make_arbiter(self, cell: Cell):
        def arbiter(controller, direction: str, target: int) -> bool:
            granted = True
            if direction == "up":
                projected = self.total_active() - controller.active + target
                granted = projected <= self.budget
            kind = "grant" if granted else "deny"
            self.monitors.counter(
                "fleet.scale_grants" if granted else "fleet.scale_denied"
            ).add()
            self.decisions.append(
                {
                    "t": self.env.now,
                    "cell": cell.name,
                    "direction": direction,
                    "target": target,
                    "total_active": self.total_active(),
                    "budget": self.budget,
                    "verdict": kind,
                }
            )
            tracer = self.monitors.tracer
            if tracer:
                tracer.instant(
                    f"fleet.scale-{kind}",
                    track="fleet",
                    cell=cell.name,
                    direction=direction,
                    target=target,
                )
            return granted

        return arbiter

    # -- the fleet observation loop ---------------------------------------------
    def _drained(self) -> bool:
        if self.duration is None or self.env.now < self.duration:
            return False
        return all(c.drained(self.duration) for c in self.cells)

    def _observe_loop(self):
        gauge = self.monitors.gauge("fleet.active_servers")
        gauge.set(self.total_active())
        while True:
            yield self.env.timeout(OBSERVE_INTERVAL)
            now = self.env.now
            obs: Dict[str, object] = {"t": now, "total_active": self.total_active()}
            for cell in self.autoscaled:
                obs[cell.name] = {
                    "p99": cell.board.window.p99(now),
                    "samples": cell.board.window.count(now),
                    "depth": cell.scheduler.queued_total(),
                    "active": cell.autoscaler.active,
                }
            self.trace.append(obs)
            gauge.set(self.total_active())
            if self._drained():
                return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FleetController cells={len(self.autoscaled)}/{len(self.cells)}"
            f" budget={self.budget} decisions={len(self.decisions)}>"
        )
