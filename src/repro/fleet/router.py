"""Global load-balancer tier: placement policies, probes, spillover.

The :class:`FleetRouter` is the fleet's admission sink — anything that
feeds a single cell (``OpenLoopWorkload``, ``ClosedLoopWorkload``) can
feed the fleet unchanged, because the router exposes the same
``submit(request) -> bool`` contract and forwards each request to
exactly one cell.

Placement is pluggable (:data:`PLACEMENT_POLICIES`):

* ``sticky`` — each tenant is pinned to one cell (explicit assignment
  map, or deterministic first-seen round-robin).  Keeps a tenant's
  decision-cache and strip-cache locality; the hot tenant's blast
  radius is its own cell.
* ``least-loaded`` — per request, the healthy cell with the smallest
  load signal (admission backlog + in-flight fan-outs + long-tail
  utilization) wins; ties break by cell order, so routing is
  deterministic.
* ``locality`` — cells that *host* the request's file (by PFS
  residence) are the only candidates, least-loaded among them.

Health is probed, not assumed: a periodic sweep on the simulation
clock asks every cell whether all its storage nodes are up — the same
``Node.is_up`` the fault injector flips — so a crashed node marks its
cell degraded within one probe interval and recovery heals it the same
way.  A degraded cell is routed around while a healthy candidate
exists, but it is never unroutable: with every healthy queue full (or
no healthy cell at all) the router **spills** into the best degraded
cell rather than shedding — and only when *no* candidate has queue
room is the request submitted to its primary cell to be rejected
there, so each generated request books exactly one admission or one
rejection fleet-wide (conservation).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import FleetError
from ..serve.workload import ServeRequest
from .cell import Cell

PLACEMENT_POLICIES = ("sticky", "least-loaded", "locality")

#: Simulated seconds between health-probe sweeps.
PROBE_INTERVAL = 0.25


class FleetRouter:
    """Routes every foreground request to exactly one cell."""

    def __init__(
        self,
        env,
        cells: Sequence[Cell],
        monitors,
        policy: str = "sticky",
        duration: Optional[float] = None,
        assignments: Optional[Mapping[str, str]] = None,
        longtail=None,
    ):
        if policy not in PLACEMENT_POLICIES:
            raise FleetError(
                f"unknown placement policy {policy!r}"
                f" (expected one of {PLACEMENT_POLICIES})"
            )
        if not cells:
            raise FleetError("a fleet needs at least one cell")
        if len({c.name for c in cells}) != len(cells):
            raise FleetError("cell names must be unique")
        self.env = env
        self.cells: Tuple[Cell, ...] = tuple(cells)
        self.monitors = monitors
        self.policy = policy
        self.duration = duration
        self.longtail = longtail
        self._by_name = {c.name: c for c in self.cells}
        #: Tenant -> cell pin (sticky policy).  Explicit assignments are
        #: validated up front; unseen tenants are pinned round-robin in
        #: first-seen order (deterministic: arrival order is simulated).
        self._sticky: Dict[str, Cell] = {}
        if assignments:
            for tenant, cell_name in assignments.items():
                cell = self._by_name.get(cell_name)
                if cell is None:
                    raise FleetError(
                        f"assignment {tenant!r} -> unknown cell {cell_name!r}"
                    )
                self._sticky[tenant] = cell
        self._next_pin = 0
        #: Last probe verdict per cell name (everything healthy at t=0).
        self._healthy: Dict[str, bool] = {c.name: True for c in self.cells}
        #: req_id -> cell name, for spillover/CRC accounting.
        self.placements: Dict[int, str] = {}
        #: req_id -> (tenant, file, operator, pipeline_length), for
        #: digest-consistency checks across cells.
        self.requests: Dict[int, Tuple[str, str, str, int]] = {}
        self.routed = 0
        self.spilled = 0
        self.shed = 0
        self._started = False

    # -- health probes ----------------------------------------------------------
    def start(self):
        """Spawn the periodic health-probe sweep."""
        if self._started:
            raise FleetError("router already started")
        self._started = True
        return self.env.process(self._probe_loop(), name="fleet-probes")

    def _probe_loop(self):
        while True:
            yield self.env.timeout(PROBE_INTERVAL)
            self._sweep()
            if self._drained():
                return

    def _sweep(self) -> None:
        self.monitors.counter("fleet.probes").add()
        up = 0
        tracer = self.monitors.tracer
        for cell in self.cells:
            was = self._healthy[cell.name]
            now_healthy = cell.healthy()
            self._healthy[cell.name] = now_healthy
            up += int(now_healthy)
            if was != now_healthy:
                self.monitors.counter("fleet.transitions").add()
                if tracer:
                    tracer.instant(
                        "fleet.health",
                        track="fleet",
                        cell=cell.name,
                        healthy=int(now_healthy),
                        up_fraction=cell.up_fraction(),
                    )
            if self.longtail is not None:
                self.monitors.gauge(f"fleet.longtail.util.{cell.name}").set(
                    self.longtail.utilization(cell.name)
                )
        gauge = self.monitors.gauge("fleet.cells_healthy")
        gauge.set(up)

    def _drained(self) -> bool:
        if self.duration is None or self.env.now < self.duration:
            return False
        return all(c.drained(self.duration) for c in self.cells)

    def is_healthy(self, cell: Cell) -> bool:
        """The *probed* health state (stale by up to one interval —
        routing reacts to what monitoring has seen, like a real LB)."""
        return self._healthy[cell.name]

    # -- placement --------------------------------------------------------------
    def _signal(self, cell: Cell) -> float:
        load = cell.load()
        if self.longtail is not None:
            # A cell saturated by background long-tail traffic is a bad
            # spillover target even when its foreground queues are short.
            load += self.longtail.utilization(cell.name) * cell.scheduler.queue_capacity
        return load

    def _pin(self, tenant: str) -> Cell:
        cell = self._sticky.get(tenant)
        if cell is None:
            cell = self.cells[self._next_pin % len(self.cells)]
            self._next_pin += 1
            self._sticky[tenant] = cell
        return cell

    def _candidates(self, req: ServeRequest) -> Tuple[Cell, List[Cell]]:
        """``(primary, ordered)`` for ``req``.

        ``primary`` is the pure policy choice (health and queue state
        ignored — leaving it counts as spillover).  ``ordered`` is the
        spillover preference: healthy candidates before degraded ones,
        the policy front-runner first within its health class, load
        signal then cell order breaking ties.
        """
        if self.policy == "locality":
            pool = [c for c in self.cells if c.hosts(req.file)]
            if not pool:
                raise FleetError(
                    f"no cell hosts file {req.file!r} (locality placement)"
                )
        else:
            pool = list(self.cells)
        index = {c.name: i for i, c in enumerate(self.cells)}
        ranked = sorted(pool, key=lambda c: (self._signal(c), index[c.name]))
        if self.policy == "sticky":
            pin = self._pin(req.tenant)
            ranked = [pin] + [c for c in ranked if c is not pin]
        primary = ranked[0]
        healthy = [c for c in ranked if self._healthy[c.name]]
        degraded = [c for c in ranked if not self._healthy[c.name]]
        return primary, healthy + degraded

    # -- the admission sink -----------------------------------------------------
    def submit(self, req: ServeRequest) -> bool:
        """Route ``req`` to one cell; returns that cell's admission
        verdict.  Same contract as ``FairScheduler.submit``."""
        primary, candidates = self._candidates(req)
        target = next((c for c in candidates if c.would_admit(req)), primary)
        spilled = target is not primary
        tracer = self.monitors.tracer
        if tracer:
            tracer.instant(
                "fleet.route",
                track="fleet",
                req=req.req_id,
                tenant=req.tenant,
                cell=target.name,
                policy=self.policy,
                spilled=int(spilled),
            )
        admitted = target.submit(req)
        self.placements[req.req_id] = target.name
        self.requests[req.req_id] = (
            req.tenant, req.file, req.operator, req.pipeline_length,
        )
        self.routed += 1
        self.monitors.counter("fleet.routed").add()
        if admitted:
            self.monitors.counter(f"fleet.routed.{target.name}").add()
            if spilled:
                self.spilled += 1
                self.monitors.counter("fleet.spillovers").add()
        else:
            self.shed += 1
            self.monitors.counter("fleet.rejected").add()
        return admitted

    # -- reporting --------------------------------------------------------------
    def placement_counts(self) -> Dict[str, int]:
        counts = {c.name: 0 for c in self.cells}
        for name in self.placements.values():
            counts[name] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FleetRouter policy={self.policy} cells={len(self.cells)}"
            f" routed={self.routed} spilled={self.spilled}>"
        )
