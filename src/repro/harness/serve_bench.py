"""serve-bench: throughput-latency curves for the serving layer.

Sweeps offered load over the three schemes with a fixed multi-tenant
mix and reports, per (scheme, load) cell, the achieved throughput and
the arrival-to-finish latency tail.  This is the serving-system analogue
of the paper's Fig. 11 comparison: instead of one operation's makespan,
it asks *how much offered load each scheme sustains before its p99
latency blows through the deadline* — the operating-point view a
storage service actually cares about.

The platform is deliberately throttled (narrow NIC, slow disks,
expensive kernels) so a handful of requests per second is real load on
an 8-node cluster; the *ratios* between the schemes' costs — NAS pays
inter-server halo traffic and request-serving CPU on round-robin data,
warm DAS finds its halo local — are the same forces as in the one-shot
experiments, now compounding under queueing.

Batching cells: the DAS sweep is doubled with ``batch_max > 1`` cells
(same workload, same seed) plus extended loads, so the report shows the
amortisation directly — fewer request-header bytes and fewer halo bytes
per completed request at equal offered load, and a strictly higher
sustained operating point — while the result digests prove batch-on
outputs are bit-identical to batch-off.

Every cell is a :class:`~repro.scenarios.ScenarioSpec` value — the
base :data:`SERVE_CELL` re-aimed by :func:`serve_spec` — materialised by
:func:`~repro.scenarios.build_scenario` and bit-identically reproducible
from the root seed; with ``verify=True`` the bench replays one cell and
asserts the summaries are equal.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, Sequence, Tuple

from ..scenarios import ScenarioSpec, TopologySpec, run_scenario
from ..serve import TenantSpec
from .common import scaled_duration
from .experiment_report import ExperimentReport
from .replays import Replays

#: Schemes swept, in reporting order.
SERVE_SCHEMES = ("TS", "NAS", "DAS")

#: Offered-load multipliers swept (1.0 = BASE_RATE aggregate arrivals).
DEFAULT_LOADS = (0.5, 1.0, 2.0, 4.0)

#: Batch window of the batch-on DAS cells (requests per fan-out).
DEFAULT_BATCH_MAX = 8

#: Extra loads swept for the DAS batch-on/off comparison: past the
#: unbatched breaking point, so the raised operating point is visible.
BATCH_EXTRA_LOADS = (8.0,)

#: Aggregate request arrival rate at load 1.0 (requests / simulated s).
BASE_RATE = 10.0

#: Arrival-to-finish latency budget (the SLO), simulated seconds.
DEADLINE = 0.5

#: Seconds of offered load per cell at the default scale.
DURATION = 6.0


def serve_tenants(rate: float = BASE_RATE) -> Tuple[TenantSpec, ...]:
    """The bench's fixed three-tenant mix (weights 3:2:1)."""
    return (
        TenantSpec(
            "alpha",
            rate=rate * 0.5,
            weight=3.0,
            kernels=("gaussian", "flow-routing"),
            files=("dem_a",),
        ),
        TenantSpec(
            "beta",
            rate=rate * 0.3,
            weight=2.0,
            kernels=("gaussian",),
            files=("dem_b",),
        ),
        TenantSpec(
            "gamma",
            rate=rate * 0.2,
            weight=1.0,
            kernels=("flow-accumulation",),
            files=("dem_a", "dem_b"),
        ),
    )


#: The bench's base cell: 8 nodes (half storage) on the throttled
#: serving platform, two 128x192 rasters placed the way each scheme's
#: I/O stack would, the fixed tenant mix at load 1.0.  Chaos-, autoscale-
#: and engine-bench vary this same value.
SERVE_CELL = ScenarioSpec(
    name="serve-bench",
    description="One (scheme, load) point of the serving sweep.",
    topology=TopologySpec(),
    tenants=serve_tenants(),
    duration=DURATION,
    deadline=DEADLINE,
)


def serve_spec(
    scheme: str, load: float, duration: float = DURATION, **changes
) -> ScenarioSpec:
    """:data:`SERVE_CELL` re-aimed at one (scheme, load) point; further
    ``changes`` are :class:`ScenarioSpec` fields (``batch_max=8``, ...)."""
    return replace(
        SERVE_CELL,
        topology=replace(SERVE_CELL.topology, scheme=scheme),
        load=load,
        duration=duration,
        **changes,
    )


def _row(summary: Dict[str, object]) -> dict:
    t = summary["tenants"]["_all"]  # type: ignore[index]
    batch = summary["batch"]  # type: ignore[index]
    wire = summary["bytes"]  # type: ignore[index]
    return {
        "scheme": summary["scheme"],
        "load": summary["load"],
        "batch": batch["max"],
        "offered_rps": BASE_RATE * float(summary["load"]),  # type: ignore[arg-type]
        "generated": summary["generated"],
        "rejected": t["rejected"],
        "completed": t["completed"],
        "late": t["late"],
        "expired": t["expired"],
        "failed": t["failed"],
        "throughput_rps": round(t["throughput"], 3),
        "p50_s": round(t["lat_p50"], 4),
        "p95_s": round(t["lat_p95"], 4),
        "p99_s": round(t["lat_p99"], 4),
        "hdr_bytes": wire["request_header"],
        "halo_bytes": wire["halo_local"] + wire["halo_remote"],
        "batch_hit_rate": round(batch["hit_rate"], 4),
    }


def _sustained(
    rows: Sequence[dict], scheme: str, deadline: float, batch: int = 1
) -> float:
    """Highest swept load at which the scheme's p99 meets the deadline
    with nothing shed (0.0 when even the lowest load misses)."""
    ok = [
        r["load"]
        for r in rows
        if r["scheme"] == scheme
        and r["batch"] == batch
        and r["p99_s"] <= deadline
        and r["rejected"] == 0
        and r["expired"] == 0
    ]
    return max(ok) if ok else 0.0


def serve_bench(
    scale=None,
    verify=True,
    loads: Sequence[float] = DEFAULT_LOADS,
    schemes: Sequence[str] = SERVE_SCHEMES,
    batch_max: int = DEFAULT_BATCH_MAX,
    trace_dir=None,
    telemetry_dir=None,
) -> ExperimentReport:
    """The serving-layer sweep (registered as ``serve-bench``).

    ``scale`` follows the harness convention of "simulated bytes per
    paper GB" and maps onto the offered-load *duration*: the default
    1 MiB gives :data:`DURATION` seconds per cell; smaller scales
    shorten the run proportionally (floor 1.5 s).  With
    ``batch_max > 1`` (the default) and DAS in ``schemes``, the DAS
    loads are re-swept with batching on — plus :data:`BATCH_EXTRA_LOADS`
    both ways — for the amortisation comparison; ``batch_max=1``
    reproduces the plain three-scheme sweep.
    """
    replays = Replays(verify, trace_dir, telemetry_dir)
    duration = scaled_duration(scale, DURATION, 1.5)

    def cell(scheme, load, batch=1):
        return partial(
            run_scenario, serve_spec(scheme, load, duration, batch_max=batch)
        )

    batching = batch_max > 1 and "DAS" in schemes
    # Cells are (scheme, load, batch_max) triples.
    cells: list = [(scheme, load, 1) for scheme in schemes for load in loads]
    das_loads: Tuple[float, ...] = tuple(loads)
    if batching:
        das_loads += tuple(l for l in BATCH_EXTRA_LOADS if l not in loads)
        cells += [("DAS", l, 1) for l in das_loads if l not in loads]
        cells += [("DAS", l, batch_max) for l in das_loads]
    rows = []
    summaries: Dict[Tuple[str, float, int], Dict[str, object]] = {}
    for scheme, load, batch in cells:
        summary, _ = cell(scheme, load, batch)()
        summaries[(scheme, load, batch)] = summary
        rows.append(_row(summary))

    checks = []
    # The overload comparisons need queues time to build: at reduced
    # scale (shorter duration) NAS legitimately survives the top load,
    # so only the full-length sweep asserts them.
    full_length = duration >= DURATION
    if full_length and "DAS" in schemes and "NAS" in schemes:
        das_ok = _sustained(rows, "DAS", DEADLINE)
        nas_ok = _sustained(rows, "NAS", DEADLINE)
        checks.append(
            (
                f"DAS sustains higher offered load than NAS before p99 breaks"
                f" the {DEADLINE:.1f}s deadline (DAS x{das_ok:g} vs NAS x{nas_ok:g})",
                das_ok > nas_ok,
            )
        )
        top = max(loads)
        nas_top = next(r for r in rows if r["scheme"] == "NAS" and r["load"] == top)
        checks.append(
            (
                "overload is visible, not hidden: NAS at the top load is late,"
                " sheds, or violates p99",
                nas_top["late"] + nas_top["expired"] + nas_top["rejected"] > 0
                or nas_top["p99_s"] > DEADLINE,
            )
        )
    if "DAS" in schemes:
        cache_stats = [
            s["decision_cache"] for (sch, _, _), s in summaries.items() if sch == "DAS"
        ]
        checks.append(
            (
                "decision cache absorbs the repeated Fig. 3 consults"
                " (hits > misses in every DAS cell)",
                all(c["hits"] > c["misses"] for c in cache_stats),  # type: ignore[index]
            )
        )
    if batching:
        top = max(das_loads)
        on = summaries[("DAS", top, batch_max)]
        off = summaries[("DAS", top, 1)]
        hdr = lambda s: s["bytes"]["request_header"]  # type: ignore[index]

        def halo_per_completed(s):
            done = max(1, s["tenants"]["_all"]["completed"])  # type: ignore[index]
            return (s["bytes"]["halo_local"] + s["bytes"]["halo_remote"]) / done  # type: ignore[index]

        checks.append(
            (
                f"batching amortises RPC headers: fewer request-header bytes"
                f" at load x{top:g} ({hdr(on)} vs {hdr(off)})",
                hdr(on) < hdr(off),
            )
        )
        checks.append(
            (
                "batching amortises halo assembly: fewer halo bytes per"
                f" completed request at load x{top:g}"
                f" ({halo_per_completed(on):.0f} vs {halo_per_completed(off):.0f})",
                halo_per_completed(on) < halo_per_completed(off),
            )
        )
        hot = [
            s["batch"]["hit_rate"]  # type: ignore[index]
            for (sch, l, b), s in summaries.items()
            if b > 1 and l >= 2.0
        ]
        checks.append(
            (
                "batching engages under load: duplicate-key dispatches share"
                " fan-outs (hit rate > 0 at loads >= x2)",
                bool(hot) and any(rate > 0 for rate in hot),
            )
        )
        low = min(das_loads)
        checks.append(
            (
                f"batch on/off bit-identical outputs at load x{low:g}"
                " (per-request result CRCs agree)",
                summaries[("DAS", low, batch_max)]["result_digest"]
                == summaries[("DAS", low, 1)]["result_digest"],
            )
        )
        if full_length:
            sus_on = _sustained(rows, "DAS", DEADLINE, batch=batch_max)
            sus_off = _sustained(rows, "DAS", DEADLINE, batch=1)
            checks.append(
                (
                    "batched DAS sustains a strictly higher load before p99"
                    f" breaks the deadline (x{sus_on:g} vs x{sus_off:g})",
                    sus_on > sus_off,
                )
            )
    checks.append(
        (
            "conservation: every admitted request settled exactly once"
            " in every cell",
            all(s["admitted"] == s["settled"] for s in summaries.values()),
        )
    )
    aux_checks = []
    if rows:
        scheme0, load0 = schemes[0], loads[0]
        checks += replays.verified(
            f"bit-identical replay: {scheme0} at load x{load0:g} reproduces"
            " the same summary from the same seed",
            cell(scheme0, load0),
            summaries[(scheme0, load0, 1)],
        )
        t_scheme = "DAS" if "DAS" in schemes else schemes[0]
        t_load = 1.0 if 1.0 in loads else loads[0]
        aux_checks = replays.observed(
            f"serve_{t_scheme}_x{t_load:g}",
            cell(t_scheme, t_load),
            summaries[(t_scheme, t_load, 1)],
            {
                "bench": "serve-bench",
                "scheme": t_scheme,
                "load": t_load,
                "duration": duration,
            },
        )

    topology = SERVE_CELL.topology
    return ExperimentReport(
        experiment="serve-bench",
        title="Serving layer: offered load vs latency tail, TS/NAS/DAS",
        rows=rows,
        checks=checks,
        aux_checks=aux_checks,
        notes=(
            f"{topology.nodes} nodes (half storage),"
            f" {topology.raster[0]}x{topology.raster[1]} rasters,"
            f" 3 tenants (weights 3:2:1) offering {BASE_RATE:g} req/s at load 1.0"
            f" for {duration:g}s; deadline {DEADLINE:g}s, throttled serving platform."
            + (
                f" DAS re-swept with batch_max={batch_max}"
                " (same-(file, kernel) requests share one fan-out)."
                if batching
                else ""
            )
            + (
                ""
                if full_length
                else " Reduced scale: overload comparisons skipped"
                " (queues need the full duration to build)."
            )
        ),
    )
