"""fleet-bench: multi-cell federation behind the global router tier.

Exercises :mod:`repro.fleet` end to end and measures what the fleet
layer claims to provide:

* **Isolation** — three sticky cells, chaos (disk slowdown + crash +
  recovery) injected into cell-0 only, long-tail background streams on
  every cell.  The blast radius stays contained: every *healthy* cell
  keeps 100% availability and a p99 under the serve-bench SLO while the
  stricken cell rides out its faults on halo-replica failover.
* **Spillover** — two cells, the hot cell's tenants jammed by the same
  chaos until its admission queues fill; the router spills overflow
  into the healthy cell.  Conservation holds fleet-wide (every
  generated request books exactly one admission or one rejection) and
  per-request CRCs prove a spilled request returns bit-identical bytes.
* **Placement invariance** — the same workload routed under each
  placement policy (sticky / least-loaded / locality) produces the
  identical combined result digest: placement moves *where* a request
  runs, never *what* it computes.
* **Scaling** — per-cell tenant cohorts swept over 1, 2 and 4 cells on
  one shared clock; aggregate throughput scales near-linearly (>= 0.8x
  ideal at 4 cells) because cells share nothing but the clock.
* **Budget arbitration** — two autoscaling cells under a surge, their
  clamps summing past the fleet budget; the :class:`FleetController`
  grants scale-ups until the budget binds and denies past it, and the
  fleet-wide active total never exceeds the budget.

Every run is bit-identically reproducible from the root seed; with
``verify=True`` the bench replays the isolation run and asserts summary
equality, and ``--trace-dir`` re-runs it traced (router hop included)
under the usual zero-perturbation contract.  The report lands in
``benchmarks/BENCH_fleet.json`` via ``--bench-dir``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..fleet import Cell, FleetSystem, LongtailStream
from ..scenarios import ScenarioSpec, build_scenario
from ..scenarios.platform import ExperimentPlatform
from ..serve import AutoscalePolicy, TenantSpec
from ..sim import Environment
from ..units import KiB, MiB
from .autoscale_bench import MAX_SERVERS, MIN_SERVERS
from .autoscale_bench import POLICY as BUDGET_POLICY
from .chaos_bench import CHAOS_RECOVERY
from .common import scaled_duration
from .experiment_report import ExperimentReport
from .replays import Replays
from .serve_bench import SERVE_CELL

#: Seconds of offered load per fleet run at the default scale.
DURATION = 6.0

#: Arrival-to-finish budget of the foreground cohort.  Generous (the
#: chaos-bench value) so faulted cells fail over instead of expiring.
FLEET_DEADLINE = 2.5

#: The SLO gate healthy cells are held to in the isolation run — the
#: serve-bench deadline, i.e. "a cell next to the blast acts like a
#: fault-free serve-bench cell".
HEALTHY_P99 = 0.5

#: Cell counts swept by the scaling runs.
CELL_COUNTS = (1, 2, 4)

#: Near-linearity floor: aggregate throughput at N cells must be at
#: least this fraction of N x the single-cell throughput.
SCALING_FLOOR = 0.8

#: Per-cohort offered rate (requests / simulated s) in the scaling runs.
COHORT_RATE = 8.0

#: Long-tail background: bytes per aggregated request and the per-cell
#: fluid-link capacity.
LONGTAIL_BYTES = 64 * KiB
LONGTAIL_CAPACITY = 8 * MiB

#: The budget-run cells use autoscale-bench's clamp and control loop
#: (:data:`BUDGET_POLICY`); the fleet budget is set between
#: ``2 * MIN_SERVERS`` and ``2 * MAX_SERVERS`` so the surge makes the
#: cells compete for headroom.
FLEET_BUDGET = 5


def fleet_tenants() -> Tuple[TenantSpec, ...]:
    """The fixed three-tenant foreground mix of the isolation /
    spillover / policy runs (alpha is the hot tenant)."""
    return (
        TenantSpec(
            "alpha",
            rate=6.0,
            weight=3.0,
            kernels=("gaussian", "flow-routing"),
            files=("dem_a",),
        ),
        TenantSpec(
            "beta",
            rate=3.0,
            weight=2.0,
            kernels=("gaussian",),
            files=("dem_b",),
        ),
        TenantSpec(
            "gamma",
            rate=2.0,
            weight=1.0,
            kernels=("flow-accumulation",),
            files=("dem_a", "dem_b"),
        ),
    )


def chaos_schedule(duration: float) -> str:
    """The stricken cell's schedule: a disk slowdown bracketing a
    crash/recovery round trip, everything healed by 0.8 of the run."""
    return ";".join(
        (
            f"slow:s2@{0.15 * duration:g}x0.05",
            f"crash:s1@{0.3 * duration:g}",
            f"recover:s1@{0.6 * duration:g}",
            f"restore:s2@{0.8 * duration:g}",
        )
    )


def longtail_streams(n_cells: int, duration: float) -> Tuple[LongtailStream, ...]:
    """One background population per cell: steady, then a mid-run rate
    step, then quiet for the drain tail."""
    return tuple(
        LongtailStream(
            f"bg-{i}",
            f"cell-{i}",
            LONGTAIL_BYTES,
            (
                (0.0, 40.0 + 10.0 * i),
                (duration / 2, 80.0),
                (0.75 * duration, 0.0),
            ),
        )
        for i in range(n_cells)
    )


def cell_spec(
    tenants: Tuple[TenantSpec, ...],
    duration: float,
    chaos: bool = False,
    autoscale: Optional[AutoscalePolicy] = None,
) -> ScenarioSpec:
    """One serving cell of the fleet as a spec value.

    Every cell ingests the same rasters from the same seed —
    neighbour-replicated, so any cell survives a single crash and a
    request produces the same bytes wherever the router lands it.  The
    autoscaled cells ingest onto the small partition instead (the
    controller needs headroom to grow into).
    """
    if autoscale is not None:
        placement = dict(ingest="partition", partition_servers=autoscale.min_servers)
    else:
        placement = dict(ingest="replicated")
    return replace(
        SERVE_CELL,
        topology=replace(SERVE_CELL.topology, **placement),
        tenants=tenants,
        duration=duration,
        deadline=FLEET_DEADLINE,
        chaos=chaos_schedule(duration) if chaos else None,
        recovery=CHAOS_RECOVERY if chaos else None,
        decision_ttl=1.0 if chaos else None,
        autoscale=autoscale,
    )


def fleet_run(
    n_cells: int,
    tenants: Tuple[TenantSpec, ...],
    duration: float,
    policy: str = "sticky",
    assignments: Optional[Dict[str, str]] = None,
    chaos_cell: Optional[int] = None,
    longtail: bool = False,
    autoscale: bool = False,
    budget: Optional[int] = None,
    ramp: Optional[Tuple[Tuple[float, float], ...]] = None,
    platform: Optional[ExperimentPlatform] = None,
    tracer=None,
    telemetry=None,
) -> Tuple[Dict[str, object], FleetSystem]:
    """One federated run: fresh clock, ``n_cells`` identical cells (bar
    the chaos plan / autoscale clamp), one router, one controller."""
    env = Environment()
    cells = []
    for i in range(n_cells):
        spec = cell_spec(
            tenants,
            duration,
            chaos=chaos_cell == i,
            autoscale=BUDGET_POLICY if autoscale else None,
        )
        cells.append(Cell(f"cell-{i}", *build_scenario(spec, platform, env=env)))
    fleet = FleetSystem(
        env,
        cells,
        tenants,
        duration=duration,
        deadline=FLEET_DEADLINE,
        policy=policy,
        assignments=assignments,
        longtail=longtail_streams(n_cells, duration) if longtail else (),
        longtail_capacity=LONGTAIL_CAPACITY if longtail else 0.0,
        budget=budget,
        ramp=ramp,
        tracer=tracer,
        telemetry=telemetry,
    )
    return fleet.run(), fleet


def _cell_of(summary: Dict[str, object], name: str) -> Dict[str, object]:
    return next(c for c in summary["cells"] if c["cell"] == name)  # type: ignore[union-attr]


def _tenants_all(cell: Dict[str, object]) -> Dict[str, object]:
    return cell["tenants"]["_all"]  # type: ignore[index]


def _agg_throughput(summary: Dict[str, object]) -> float:
    return sum(
        _tenants_all(c)["throughput"] for c in summary["cells"]  # type: ignore[union-attr]
    )


def _rows(run: str, summary: Dict[str, object]) -> List[dict]:
    rows = []
    for cell in summary["cells"]:  # type: ignore[union-attr]
        t = _tenants_all(cell)
        faults = cell.get("faults") or {}
        rows.append(
            {
                "run": run,
                "policy": summary["policy"],
                "cells": summary["n_cells"],
                "cell": cell["cell"],
                "placed": summary["placements"][cell["cell"]],  # type: ignore[index]
                "admitted": cell["admitted"],
                "completed": t["completed"],
                "late": t["late"],
                "failed": t["failed"],
                "availability": round(t["availability"], 4),
                "throughput_rps": round(t["throughput"], 3),
                "p99_s": round(t["lat_p99"], 4),
                "spillovers": summary["spillovers"],
                "rejected": summary["rejected"],
                "failover_reads": faults.get("failover_reads", 0),
            }
        )
    return rows


def fleet_bench(
    platform=None,
    scale=None,
    verify=True,
    cell_counts: Sequence[int] = CELL_COUNTS,
    trace_dir=None,
    trace_sample: int = 1,
    telemetry_dir=None,
) -> ExperimentReport:
    """The multi-cell federation bench (registered as ``fleet-bench``).

    ``scale`` follows the harness convention (simulated bytes per paper
    GB) and maps onto each run's duration exactly as in serve-bench
    (floor 1.5 s).  At reduced scale the chaos lifecycle and the surge
    land too close to the drain, so the isolation-dynamics and budget
    checks only assert on full-length runs — conservation, placement
    invariance, scaling and replay assert always.
    """
    replays = Replays(verify, trace_dir, trace_sample, telemetry_dir)
    duration = scaled_duration(scale, DURATION, 1.5)
    full_length = duration >= DURATION
    tenants = fleet_tenants()
    sticky_3 = {"alpha": "cell-0", "beta": "cell-1", "gamma": "cell-2"}
    sticky_2 = {"alpha": "cell-0", "beta": "cell-0", "gamma": "cell-1"}

    rows: List[dict] = []
    summaries: Dict[str, Dict[str, object]] = {}
    systems: Dict[str, FleetSystem] = {}
    runs = {}

    def run(label: str, **kw) -> Dict[str, object]:
        runs[label] = partial(fleet_run, platform=platform, **kw)
        summary, system = runs[label]()
        summaries[label] = summary
        systems[label] = system
        rows.extend(_rows(label, summary))
        return summary

    # Isolation: chaos in cell-0 only, every cell carrying background
    # long-tail load, tenants pinned one per cell.
    isolation = run(
        "isolation",
        n_cells=3,
        tenants=tenants,
        duration=duration,
        policy="sticky",
        assignments=sticky_3,
        chaos_cell=0,
        longtail=True,
    )

    # Spillover: both hot tenants pinned to the stricken cell; its
    # queues jam and the router spills into the healthy cell.
    spill = run(
        "spillover",
        n_cells=2,
        tenants=tenants,
        duration=duration,
        policy="sticky",
        assignments=sticky_2,
        chaos_cell=0,
    )

    # Placement invariance: the same fault-free workload under each
    # policy (long-tail on, so least-loaded exercises its full signal).
    for policy in ("sticky", "least-loaded", "locality"):
        run(
            f"policy-{policy}",
            n_cells=2,
            tenants=tenants,
            duration=duration,
            policy=policy,
            longtail=True,
        )

    # Scaling: one tenant cohort per cell, swept over the cell counts.
    for n in cell_counts:
        cohorts = tuple(
            TenantSpec(
                f"cohort-{i}",
                rate=COHORT_RATE,
                weight=1.0,
                kernels=("gaussian",),
                files=("dem_a",),
            )
            for i in range(n)
        )
        run(
            f"scale-{n}",
            n_cells=n,
            tenants=cohorts,
            duration=duration,
            policy="sticky",
            assignments={f"cohort-{i}": f"cell-{i}" for i in range(n)},
        )

    # Budget arbitration: two autoscaling cells surging into a fleet
    # budget below the sum of their clamps.
    budget = run(
        "budget",
        n_cells=2,
        tenants=tenants,
        duration=duration,
        policy="sticky",
        assignments=sticky_2,
        autoscale=True,
        budget=FLEET_BUDGET,
        ramp=((0.0, 1.0), (duration / 4, 4.0), (0.75 * duration, 0.25)),
    )

    healthy = [_cell_of(isolation, n) for n in ("cell-1", "cell-2")]
    chaos = _cell_of(isolation, "cell-0")
    chaos_faults = chaos["faults"]  # type: ignore[index]
    longtail = isolation["longtail"]  # type: ignore[index]

    checks = []
    checks.append(
        (
            "isolation: the chaos cell rode out its faults on failover"
            " (one crash, one recovery, halo-replica reads > 0)",
            chaos_faults["crashes"] == 1  # type: ignore[index]
            and chaos_faults["recoveries"] == 1  # type: ignore[index]
            and chaos_faults["failover_reads"] > 0,  # type: ignore[index]
        )
    )
    if full_length:
        healthy_p99 = max(_tenants_all(c)["lat_p99"] for c in healthy)
        checks.append(
            (
                "isolation: the stricken cell cannot breach a healthy"
                " cell's SLO — every healthy cell keeps 100% availability"
                f" and p99 <= {HEALTHY_P99:g}s (worst {healthy_p99:.4f}s)",
                all(_tenants_all(c)["availability"] == 1.0 for c in healthy)
                and healthy_p99 <= HEALTHY_P99,
            )
        )
        checks.append(
            (
                "isolation: the router's probes saw the cell degrade and"
                " heal (>= 2 health transitions, all cells healthy at the"
                " end)",
                isolation["health"]["transitions"] >= 2  # type: ignore[index]
                and isolation["health"]["healthy_final"] == 3,  # type: ignore[index]
            )
        )
    checks.append(
        (
            "isolation: the long-tail fluid streams conserve — every"
            f" offered background request drained"
            f" ({longtail['completed_requests']} requests)",  # type: ignore[index]
            longtail["conservation_ok"] and longtail["completed_requests"] > 0,  # type: ignore[index]
        )
    )
    if full_length:
        checks.append(
            (
                "spillover: jamming the hot cell's queues pushed overflow"
                f" into the healthy cell ({spill['spillovers']} spillovers)",
                spill["spillovers"] > 0,  # type: ignore[operator]
            )
        )
    checks.append(
        (
            "spillover: fleet-wide conservation — every generated request"
            " books exactly one admission or one rejection"
            f" ({spill['generated']} = {spill['admitted']} +"
            f" {spill['rejected']})",
            spill["generated"] == spill["admitted"] + spill["rejected"],  # type: ignore[operator]
        )
    )
    checks.append(
        (
            "spillover: a spilled request returns bit-identical bytes —"
            " per-request CRCs agree across cells for every"
            " (file, operator, pipeline) key",
            spill["digest_consistency"]["consistent"],  # type: ignore[index]
        )
    )
    policy_crcs = {
        p: summaries[f"policy-{p}"]["result_digest"]["crc"]  # type: ignore[index]
        for p in ("sticky", "least-loaded", "locality")
    }
    checks.append(
        (
            "placement invariance: sticky, least-loaded and locality route"
            " the same workload to different cells yet produce the"
            " identical combined result digest",
            len(set(policy_crcs.values())) == 1
            and all(
                summaries[f"policy-{p}"]["rejected"] == 0 for p in policy_crcs
            ),
        )
    )
    thr = {n: _agg_throughput(summaries[f"scale-{n}"]) for n in cell_counts}
    base = thr[cell_counts[0]]
    scaling_ok = base > 0 and all(
        thr[n] >= SCALING_FLOOR * (n / cell_counts[0]) * base
        for n in cell_counts[1:]
    )
    thr_text = ", ".join(f"{n} cells {thr[n]:.2f} rps" for n in cell_counts)
    checks.append(
        (
            "scaling: aggregate throughput is near-linear in cell count"
            f" (>= {SCALING_FLOOR:g}x ideal; {thr_text})",
            scaling_ok,
        )
    )
    checks.append(
        (
            "scaling: no run sheds — offered load stays proportional to"
            " capacity at every cell count",
            all(
                summaries[f"scale-{n}"]["rejected"] == 0 for n in cell_counts
            ),
        )
    )
    if full_length:
        controller = systems["budget"].controller
        denied = budget["fleet"]["scale_denied"]  # type: ignore[index]
        granted = budget["fleet"]["scale_grants"]  # type: ignore[index]
        checks.append(
            (
                "budget: the surge makes the cells compete — the fleet"
                f" controller granted {granted} resize(s) and denied"
                f" {denied} scale-up(s) past the {FLEET_BUDGET}-server"
                " budget",
                granted > 0 and denied > 0,
            )
        )
        checks.append(
            (
                "budget: the fleet-wide active total never exceeded the"
                " budget at any observation tick",
                all(
                    obs["total_active"] <= FLEET_BUDGET
                    for obs in controller.trace
                )
                and budget["fleet"]["active_final"] <= FLEET_BUDGET,  # type: ignore[index]
            )
        )
    checks.append(
        (
            "conservation: every admitted request settled exactly once in"
            " every cell of every run",
            all(
                c["admitted"] == c["settled"]
                for s in summaries.values()
                for c in s["cells"]  # type: ignore[union-attr]
            ),
        )
    )
    rerun = runs["isolation"]
    meta = {"bench": "fleet-bench", "run": "isolation", "duration": duration}
    checks += replays.verified(
        "bit-identical replay: the isolation run reproduces the"
        " same fleet summary (placements, health transitions and"
        " per-request digests included) from the same seed",
        rerun,
        isolation,
    )
    # The isolation run in alert form: the router's probes page
    # fleet-unhealthy while cell-0 rides out its faults (and resolve it
    # once healed), spillover tickets while traffic diverts, and the
    # stricken cell's own admission heartbeat stalls mid-crash.  The
    # healthy cells' ledgers staying empty IS the isolation claim.
    # Reduced-scale runs skip the expectations with the other lifecycle
    # checks.
    aux_checks = replays.observed(
        "fleet_isolation",
        rerun,
        isolation,
        meta,
        expect_alerts=(
            ("fleet-unhealthy", "fleet-spillover", "admission-stall")
            if full_length
            else ()
        ),
    )

    topology = SERVE_CELL.topology
    return ExperimentReport(
        experiment="fleet-bench",
        title="Fleet federation: isolation, spillover, placement, scaling",
        rows=rows,
        checks=checks,
        aux_checks=aux_checks,
        notes=(
            f"{topology.nodes}-node cells (half storage),"
            f" {topology.raster[0]}x{topology.raster[1]}"
            f" rasters replicated per cell, {duration:g}s per run, deadline"
            f" {FLEET_DEADLINE:g}s; chaos = slow+crash+recover in cell-0;"
            f" long-tail {LONGTAIL_BYTES // KiB} KiB requests over"
            f" {LONGTAIL_CAPACITY / MiB:g} MiB/s per-cell fluid links;"
            f" scaling cohorts at {COHORT_RATE:g} rps/cell over cell counts"
            f" {tuple(cell_counts)}; budget run: clamp"
            f" [{MIN_SERVERS}, {MAX_SERVERS}] x2 cells vs fleet budget"
            f" {FLEET_BUDGET}."
            + (
                ""
                if full_length
                else " Reduced scale: isolation-dynamics, spillover and"
                " budget checks skipped (the fault/surge lifecycles need"
                " the full duration)."
            )
        ),
    )
