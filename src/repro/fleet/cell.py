"""One serving cell of the fleet: today's full serve stack, no workload.

A :class:`Cell` *is* the :class:`~repro.serve.service.ServingStack` a
:class:`~repro.serve.ServeSystem` has — SLO board, load-aware executor,
optional fault injector with membership-change cache invalidation, DWRR
fair scheduler, optional autoscale controller — over a cell-private
cluster and PFS that share the *fleet's* simulation clock.  What a cell
does **not** own is arrival generation: requests reach it only through
the :class:`~repro.fleet.router.FleetRouter`'s ``submit``, so placement
is a fleet decision, not a cell one.

Cells run **sharded admission slots**: the scheduler's concurrency pool
is split per primary storage server of the request's file (the
``slot_groups`` it hands ``FairScheduler``), so one hot file saturating its
own node's slots cannot starve dispatches bound for the cell's other nodes.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import FleetError
from ..kernels.base import KernelRegistry
from ..pfs.filesystem import ParallelFileSystem
from ..serve.service import ServeConfig, ServingStack
from ..serve.workload import ServeRequest


class Cell(ServingStack):
    """One federated serving cell on the shared fleet clock."""

    error = FleetError

    def __init__(
        self,
        name: str,
        pfs: ParallelFileSystem,
        config: ServeConfig,
        registry: Optional[KernelRegistry] = None,
    ):
        metadata = pfs.metadata

        def slot_groups(req: ServeRequest) -> str:
            # Admission-slot group: the file's primary storage server
            # under the *current* layout (a resize or failover re-homes
            # the group with the data).
            return metadata.lookup(req.file).layout.servers[0]

        super().__init__(pfs, config, registry, slot_groups=slot_groups)
        self.name = name
        # Every cell has nodes named s0...; a shared fleet tracer keeps
        # their device lanes apart by cell.
        self.cluster.monitors.lane = f"{name}/"
        self.env = pfs.cluster.env
        self._started = False

    # -- routing signals --------------------------------------------------------
    def healthy(self) -> bool:
        """True iff every storage node in the cell is up (the router's
        probe signal — a degraded cell still serves, it is just routed
        around when a healthy alternative exists)."""
        return all(node.is_up for node in self.cluster.storage_nodes)

    def up_fraction(self) -> float:
        nodes = self.cluster.storage_nodes
        return sum(1 for n in nodes if n.is_up) / len(nodes) if nodes else 0.0

    def hosts(self, file: str) -> bool:
        """Whether this cell's PFS holds ``file`` (locality placement)."""
        return file in self.pfs.metadata

    def load(self) -> float:
        """Admission backlog + in-flight fan-outs: the router's
        least-loaded signal."""
        return float(self.scheduler.queued_total() + self.scheduler.slots_in_use())

    def would_admit(self, req: ServeRequest) -> bool:
        """Whether ``submit`` would admit ``req`` right now (the router
        pre-checks so a rejection is booked in exactly one cell)."""
        queue = self.scheduler.queues.get(req.tenant)
        return queue is not None and len(queue) < self.scheduler.queue_capacity

    # -- the router-facing sink -------------------------------------------------
    def submit(self, req: ServeRequest) -> bool:
        return self.scheduler.submit(req)

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        """Start the cell's fault schedule.  The autoscaler is started
        (and arbitrated) by the :class:`~repro.fleet.FleetController`."""
        if self._started:
            raise FleetError(f"cell {self.name!r} already started")
        self._started = True
        if self.injector is not None:
            self.injector.start()

    def drained(self, duration: float) -> bool:
        return (
            self.env.now >= duration
            and not any(self.scheduler.queues.values())
            and self.board.total_settled == self.board.total_admitted
        )

    # -- reporting --------------------------------------------------------------
    def summary(self, elapsed: float) -> Dict[str, object]:
        return {
            "cell": self.name,
            "scheme": self.config.scheme,
            "elapsed": elapsed,
            "admitted": self.board.total_admitted,
            "settled": self.board.total_settled,
            **self.summary_block(elapsed),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cell {self.name} scheme={self.config.scheme}"
            f" admitted={self.board.total_admitted}"
            f" healthy={self.healthy()}>"
        )
