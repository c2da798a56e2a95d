"""The federated fleet: N cells, one router, one controller, one clock.

:class:`FleetSystem` is the fleet analogue of
:class:`~repro.serve.ServeSystem`: it takes already-built cells (each a
full serve stack on the shared :class:`~repro.sim.Environment`), wires
the global tier around them — :class:`~repro.fleet.router.FleetRouter`
placement + health probes + spillover,
:class:`~repro.fleet.controller.FleetController` budget-arbitrated
autoscaling, optional :class:`~repro.fleet.longtail.LongtailAggregator`
background load — and runs one serving interval to quiescence.

The foreground workload is exact: one
:class:`~repro.serve.workload.OpenLoopWorkload` (plus a closed-loop one
when tenants ask for it) draws per-tenant Poisson arrivals from the
fleet's own seeded streams and submits them to the *router*, which is a
drop-in admission sink.  Determinism is end to end: same seed, same
cells, same summary, bit for bit — the fleet bench replays every run to
prove it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..errors import FleetError
from ..serve.batch import combine_digests
from ..serve.service import attach_sampler, bind_tracer
from ..serve.workload import TenantSpec, build_workloads
from ..sim import Environment, MonitorHub, RandomStreams
from .cell import Cell
from .controller import FleetController
from .longtail import LongtailAggregator, LongtailStream
from .router import FleetRouter


class _WorkloadHost:
    """The slice of ``Cluster`` the workload generators consume (env +
    named random streams), so foreground arrivals draw from fleet-owned
    substreams rather than any one cell's."""

    def __init__(self, env: Environment, seed: int):
        self.env = env
        self.rand = RandomStreams(seed)


class FleetSystem:
    """One multi-cell federated serving run."""

    def __init__(
        self,
        env: Environment,
        cells: Sequence[Cell],
        tenants: Tuple[TenantSpec, ...],
        duration: float,
        deadline: float,
        policy: str = "sticky",
        budget: Optional[int] = None,
        longtail: Sequence[LongtailStream] = (),
        longtail_capacity: float = 0.0,
        ramp: Optional[Tuple[Tuple[float, float], ...]] = None,
        seed: int = 20120910,
        tracer: Optional[object] = None,
        assignments: Optional[Dict[str, str]] = None,
        telemetry: Optional[object] = None,
    ):
        if not cells:
            raise FleetError("a fleet needs at least one cell")
        if not tenants:
            raise FleetError("a fleet run needs at least one tenant")
        if duration <= 0 or deadline <= 0:
            raise FleetError("duration and deadline must be positive")
        for cell in cells:
            if cell.env is not env:
                raise FleetError(
                    f"cell {cell.name!r} lives on a different clock"
                )
            missing = [
                t.name for t in tenants if t.name not in cell.scheduler.queues
            ]
            if missing:
                raise FleetError(
                    f"cell {cell.name!r} lacks queues for tenant(s) {missing}"
                    " (every cell must know every foreground tenant, or"
                    " spillover has nowhere to land)"
                )
        self.env = env
        self.cells = tuple(cells)
        self.tenants = tuple(tenants)
        self.duration = float(duration)
        self.deadline = float(deadline)
        self.monitors = MonitorHub(env)
        bind_tracer(
            tracer, env, self.monitors, *(c.cluster.monitors for c in self.cells)
        )
        self.longtail: Optional[LongtailAggregator] = None
        if longtail:
            self.longtail = LongtailAggregator(
                env,
                self.monitors,
                longtail,
                cell_names=[c.name for c in self.cells],
                capacity=longtail_capacity,
                horizon=self.duration,
            )
        self.router = FleetRouter(
            env,
            self.cells,
            self.monitors,
            policy=policy,
            duration=self.duration,
            assignments=assignments,
            longtail=self.longtail,
        )
        self.controller = FleetController(
            env,
            self.cells,
            self.monitors,
            budget=budget,
            duration=self.duration,
        )
        self.workloads = build_workloads(
            _WorkloadHost(env, seed), self.tenants, self.duration,
            self.deadline, ramp=ramp,
        )
        # One sampler over every hub on the shared clock: the fleet scope
        # (router/controller/longtail counters) plus one scope per cell.
        self.telemetry = attach_sampler(
            env,
            telemetry,
            [(c.name, c.cluster.monitors) for c in self.cells],
            active_until=self.duration,
            fleet=self.monitors,
        )
        self._ran = False

    # -- the run ----------------------------------------------------------------
    def run(self) -> Dict[str, object]:
        """Offer load, drain every cell, and return the fleet summary."""
        if self._ran:
            raise FleetError("a FleetSystem runs exactly once")
        self._ran = True
        started = self.env.now
        for cell in self.cells:
            cell.start()
        self.controller.start()
        if self.longtail is not None:
            self.longtail.start()
        self.router.start()
        for workload in self.workloads:
            workload.start(self.router)
        self.env.run()  # to quiescence across every cell
        for cell in self.cells:
            cell.scheduler.close()
        elapsed = self.env.now - started
        if self.telemetry is not None:
            self.telemetry.finalize(self.env.now)
        self._check_conservation()
        return self.summary(elapsed)

    def _check_conservation(self) -> None:
        generated = sum(w.generated for w in self.workloads)
        if self.router.routed != generated:
            raise FleetError(
                f"router saw {self.router.routed} of {generated} generated"
                " requests"
            )
        admitted = sum(c.board.total_admitted for c in self.cells)
        if admitted + self.router.shed != generated:
            raise FleetError(
                f"conservation violated: {generated} generated !="
                f" {admitted} admitted + {self.router.shed} rejected"
            )
        for cell in self.cells:
            if not cell.board.conservation_ok():
                raise FleetError(
                    f"cell {cell.name!r} conservation violated:"
                    f" {cell.board.unsettled()} admitted never settled"
                )
        if self.longtail is not None and not self.longtail.conservation_ok():
            raise FleetError("long-tail offered volume never fully drained")

    # -- cross-cell result identity ---------------------------------------------
    def digest_consistency(self) -> Dict[str, object]:
        """Per-request CRC identity across cells: every request with the
        same ``(file, operator, pipeline)`` must digest identically no
        matter which cell served it — spillover must not change bytes."""
        by_key: Dict[Tuple[str, str, int], set] = {}
        for cell in self.cells:
            for req_id, crc in cell.executor.digests.items():
                tenant, file, operator, pipeline = self.router.requests[req_id]
                by_key.setdefault((file, operator, pipeline), set()).add(crc)
        conflicting = sorted(
            "|".join(map(str, key))
            for key, crcs in by_key.items()
            if len(crcs) > 1
        )
        return {
            "keys": len(by_key),
            "consistent": not conflicting,
            "conflicting": conflicting,
        }

    # -- reporting --------------------------------------------------------------
    def summary(self, elapsed: float) -> Dict[str, object]:
        counters = self.monitors.counter
        digest_items = sorted(
            (req_id, crc)
            for cell in self.cells
            for req_id, crc in cell.executor.digests.items()
        )
        out: Dict[str, object] = {
            "policy": self.router.policy,
            "n_cells": len(self.cells),
            "duration": self.duration,
            "elapsed": elapsed,
            "generated": sum(w.generated for w in self.workloads),
            "routed": self.router.routed,
            "admitted": sum(c.board.total_admitted for c in self.cells),
            "settled": sum(c.board.total_settled for c in self.cells),
            "rejected": self.router.shed,
            "spillovers": self.router.spilled,
            "placements": self.router.placement_counts(),
            "health": {
                "probes": int(counters("fleet.probes").value),
                "transitions": int(counters("fleet.transitions").value),
                "healthy_final": sum(
                    1 for c in self.cells if self.router.is_healthy(c)
                ),
            },
            "fleet": {
                "budget": self.controller.budget,
                "scale_grants": int(counters("fleet.scale_grants").value),
                "scale_denied": int(counters("fleet.scale_denied").value),
                "active_final": self.controller.total_active(),
            },
            "cells": [cell.summary(elapsed) for cell in self.cells],
            "digest_consistency": self.digest_consistency(),
            "result_digest": {
                "count": len(digest_items),
                "crc": combine_digests(digest_items),
            },
        }
        if self.longtail is not None:
            out["longtail"] = self.longtail.summary()
        if self.telemetry is not None:
            # Only telemetry-configured runs carry the block, so
            # sampled-off fleet summaries stay bit-identical.
            out["telemetry"] = self.telemetry.summary_block()
        return out
