"""chaos-bench: fault injection against the serving layer.

Sweeps fault intensity against TS/NAS/DAS serving runs and measures
what the fault subsystem claims to provide:

* **Parity** — with the fault plane off, every scheme's serving summary
  is *equal* to the plain serve-bench cell from the same seed: building
  the fault subsystem changed nothing for fault-free runs.
* **Fault tolerance** — crashing one data server mid-workload, a file
  ingested with full neighbour replication (``halo_strips == group``)
  still completes 100% of requests under TS and DAS: reads fail over to
  halo replicas, offload decisions degrade to normal I/O while the
  server is down, and the run recovers when it returns.  NAS — blind
  offload, no decision plane — loses the requests that land on the dead
  server, but detection fails them cleanly instead of hanging them.
* **The replication is load-bearing** — the same crash against an
  unreplicated (round-robin) file finishes strictly fewer requests.
* **Recovery costs nothing when nothing fails** — a run with the full
  recovery policy armed but no faults injected produces bit-identical
  request results (CRC digests) to the recovery-off run.

A final *storm* cell layers every fault kind (crash, disk slowdown,
link cut) on one DAS run to exercise timeouts, retries and hedged
reads together; it asserts conservation, not throughput.

Every cell is serve-bench's :data:`~repro.harness.serve_bench.SERVE_CELL`
varied by :func:`fault_spec` (ingest policy, fault schedule in chaos-spec
grammar, recovery policy) and is deterministic from the root seed.  The
report lands in ``benchmarks/BENCH_faults.json`` via ``--bench-dir``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, Optional, Sequence

from ..faults import FaultPlan, RecoveryPolicy
from ..scenarios import ScenarioSpec, run_scenario
from .common import scaled_duration
from .experiment_report import ExperimentReport
from .replays import Replays
from .serve_bench import DEADLINE, DURATION, SERVE_CELL, serve_spec

#: Schemes swept through the crash cells, in reporting order.
CHAOS_SCHEMES = ("TS", "NAS", "DAS")

#: Offered-load multiplier for every chaos cell (moderate: the point is
#: fault response, not queueing collapse).
CHAOS_LOAD = 1.0

#: Arrival-to-finish budget for faulted cells: generous enough that a
#: failover (fast-fail + one replica read) never expires a request, so
#: unavailability in the rows means *lost* requests, not slow ones.
CHAOS_DEADLINE = 2.5

#: When the crash lands / heals, as fractions of the cell duration.
CRASH_AT = 0.3
RECOVER_AT = 0.7

#: Recovery policy armed in every faulted cell.  ``hedge_delay`` is
#: below the slowed-disk read time so the storm cell exercises hedging.
CHAOS_RECOVERY = RecoveryPolicy(
    rpc_timeout=0.25,
    max_attempts=2,
    backoff=0.02,
    hedge_delay=0.1,
)

#: Disk throughput multiplier of the storm cell's slow phase.
STORM_SLOW_FACTOR = 0.05


def fault_spec(
    scheme: str,
    duration: float,
    chaos: Optional[str] = None,
    recovery: Optional[RecoveryPolicy] = None,
    replicated: bool = True,
    deadline: float = CHAOS_DEADLINE,
) -> ScenarioSpec:
    """One faulted serving cell as a spec value.

    A serve-bench cell apart from the ingest policy and the fault /
    recovery configuration, so ``chaos=None, recovery=None,
    replicated=False`` and the serve-bench deadline reproduces a
    serve-bench cell bit-identically.
    """
    spec = serve_spec(
        scheme,
        CHAOS_LOAD,
        duration,
        deadline=deadline,
        chaos=chaos,
        recovery=recovery,
        decision_ttl=1.0 if recovery is not None and scheme == "DAS" else None,
    )
    if replicated:
        spec = replace(spec, topology=replace(spec.topology, ingest="replicated"))
    return spec


def single_crash(duration: float) -> str:
    """Crash the second storage server mid-workload, heal it later."""
    return FaultPlan.single_crash(
        "s1", at=CRASH_AT * duration, recover_at=RECOVER_AT * duration
    ).spec()


def storm(duration: float) -> str:
    """Every fault kind in one schedule: crash, disk slowdown, link cut."""
    return ";".join(
        (
            f"slow:s2@{0.15 * duration:g}x{STORM_SLOW_FACTOR:g}",
            f"crash:s1@{CRASH_AT * duration:g}",
            f"cut:c0-s3@{0.4 * duration:g}",
            f"heal:c0-s3@{0.55 * duration:g}",
            f"recover:s1@{RECOVER_AT * duration:g}",
            f"restore:s2@{0.8 * duration:g}",
        )
    )


def _row(cell: str, summary: Dict[str, object], replicated: bool) -> dict:
    t = summary["tenants"]["_all"]  # type: ignore[index]
    faults = summary.get("faults", {})  # type: ignore[union-attr]
    return {
        "cell": cell,
        "scheme": summary["scheme"],
        "replicated": replicated,
        "generated": summary["generated"],
        "completed": t["completed"],
        "late": t["late"],
        "expired": t["expired"],
        "failed": t["failed"],
        "availability": round(t["availability"], 4),
        "throughput_rps": round(t["throughput"], 3),
        "p99_s": round(t["lat_p99"], 4),
        "failover_reads": faults.get("failover_reads", 0),
        "hedged_reads": faults.get("hedged_reads", 0),
        "hedge_wins": faults.get("hedge_wins", 0),
        "rpc_timeouts": faults.get("rpc_timeouts", 0),
        "retries": faults.get("retries", 0),
        "degraded_decisions": faults.get("degraded_decisions", 0),
        "crashes": faults.get("crashes", 0),
        "recoveries": faults.get("recoveries", 0),
        "mttr_s": round(float(faults.get("mttr", 0.0)), 4),
        "downtime_s": round(float(faults.get("downtime_seconds", 0.0)), 4),
    }


def chaos_bench(
    platform=None,
    scale=None,
    verify=True,
    schemes: Sequence[str] = CHAOS_SCHEMES,
    chaos_spec: Optional[str] = None,
    trace_dir=None,
    trace_sample: int = 1,
    telemetry_dir=None,
) -> ExperimentReport:
    """The fault-injection sweep (registered as ``chaos-bench``).

    ``scale`` follows the harness convention (simulated bytes per paper
    GB) and maps onto the per-cell duration exactly as in serve-bench.
    ``chaos_spec`` optionally appends one extra DAS cell driven by a
    user-supplied fault schedule (see ``FaultPlan.parse``).
    """
    replays = Replays(verify, trace_dir, trace_sample, telemetry_dir)
    duration = scaled_duration(scale, DURATION, 1.5)
    crash = single_crash(duration)
    storm_spec = storm(duration)

    rows = []
    summaries: Dict[str, Dict[str, object]] = {}
    runs = {}

    def run(cell: str, scheme: str, replicated: bool = True, **kw) -> Dict[str, object]:
        runs[cell] = partial(
            run_scenario,
            fault_spec(scheme, duration, replicated=replicated, **kw),
            platform,
        )
        summary, _ = runs[cell]()
        summaries[cell] = summary
        rows.append(_row(cell, summary, replicated))
        return summary

    # Parity: fault plane off == the plain serve-bench cell, bit for bit.
    # (As spec values the two are equal by construction; running both
    # still proves the fault/recovery plumbing is inert when unarmed.)
    parity_ok = True
    if verify:
        for scheme in schemes:
            chaotic, _ = run_scenario(
                fault_spec(scheme, duration, replicated=False, deadline=DEADLINE),
                platform,
            )
            plain, _ = run_scenario(serve_spec(scheme, CHAOS_LOAD, duration), platform)
            parity_ok = parity_ok and chaotic == plain

    # Recovery armed, nothing fails: request results must be identical.
    baseline = run("baseline", "DAS")
    armed = run("recovery-armed", "DAS", recovery=CHAOS_RECOVERY)

    # The headline cells: one data server crashes mid-workload.
    for scheme in schemes:
        run(f"crash-{scheme}", scheme, chaos=crash, recovery=CHAOS_RECOVERY)
    unrep = run(
        "crash-TS-unreplicated",
        "TS",
        replicated=False,
        chaos=crash,
        recovery=CHAOS_RECOVERY,
    )

    # Degraded-mode offload decisions need a layout the engine *accepts*
    # for offload: the optimizer's planned distribution (boundary halo
    # only).  The crash then forces the engine's fallback to normal I/O
    # while the server is down; interior strips are unreplicated, so
    # this cell measures the fallback, not 100% availability.
    degraded = None
    if "DAS" in schemes:
        degraded = run(
            "degraded-DAS",
            "DAS",
            replicated=False,
            chaos=crash,
            recovery=CHAOS_RECOVERY,
        )

    # Storm: every fault kind at once against DAS.
    run("storm-DAS", "DAS", chaos=storm_spec, recovery=CHAOS_RECOVERY)

    if chaos_spec:
        run("custom-DAS", "DAS", chaos=chaos_spec, recovery=CHAOS_RECOVERY)

    crash_cells = [summaries[f"crash-{s}"] for s in schemes]
    #: Schemes whose serving path can survive the crash: TS reads fail
    #: over to replicas, DAS additionally falls back from offload.  NAS
    #: offloads unconditionally with no decision plane, so execs landing
    #: on the dead server fail cleanly instead — the contrast the bench
    #: exists to show.
    survivors = [s for s in schemes if s != "NAS"]

    def faults_of(s: Dict[str, object]) -> Dict[str, object]:
        return s["faults"]  # type: ignore[return-value]

    def availability(s: Dict[str, object]) -> float:
        return s["tenants"]["_all"]["availability"]  # type: ignore[index]

    def finished(s: Dict[str, object]) -> int:
        t = s["tenants"]["_all"]  # type: ignore[index]
        return t["completed"] + t["late"]  # type: ignore[index]

    checks = []
    if verify:
        checks.append(
            (
                "parity: with the fault plane off every scheme's summary"
                " equals the plain serve-bench cell from the same seed",
                parity_ok,
            )
        )
    checks.append(
        (
            "recovery armed on a fault-free run: per-request result CRCs"
            " identical to the recovery-off run",
            armed["result_digest"] == baseline["result_digest"],
        )
    )
    checks.append(
        (
            "recovery armed on a fault-free run stays fully available",
            availability(armed) == 1.0,
        )
    )
    crash_avail = ", ".join(
        "{}={:g}".format(s, availability(summaries["crash-" + s])) for s in schemes
    )
    checks.append(
        (
            "single data-server crash with halo_strips == group: 100% of"
            f" requests complete under TS and DAS ({crash_avail})",
            all(availability(summaries["crash-" + s]) == 1.0 for s in survivors),
        )
    )
    if "NAS" in schemes:
        nas = summaries["crash-NAS"]
        checks.append(
            (
                "NAS has no decision plane: blind offload into the crash"
                " loses requests, but detection fails them cleanly"
                " (availability < 1, zero hung requests)",
                availability(nas) < 1.0 and nas["admitted"] == nas["settled"],
            )
        )
    checks.append(
        (
            "failover actually happened: halo-replica reads served strips"
            " of the crashed server in every surviving crash cell",
            all(
                faults_of(summaries["crash-" + s])["failover_reads"] > 0
                for s in survivors
            ),
        )
    )
    checks.append(
        (
            "the injector did its round trip: one crash, one recovery,"
            " MTTR recorded in every crash cell",
            all(
                faults_of(c)["crashes"] == 1
                and faults_of(c)["recoveries"] == 1
                and faults_of(c)["mttr"] > 0
                for c in crash_cells
            ),
        )
    )
    if degraded is not None:
        paths = degraded["paths"]  # type: ignore[index]
        checks.append(
            (
                "degraded-mode decisions: on the planned (offloadable)"
                " layout DAS stops offloading to the partially-down file"
                " and falls back to normal I/O, then offloads again",
                faults_of(degraded)["degraded_decisions"] > 0
                and paths["offload"] > 0,  # type: ignore[index]
            )
        )
    checks.append(
        (
            "replication is load-bearing: the same crash against an"
            " unreplicated file finishes strictly fewer requests"
            f" ({finished(unrep)} vs {finished(summaries['crash-TS'])})",
            finished(unrep) < finished(summaries["crash-TS"])
            and availability(unrep) < 1.0,
        )
    )
    storm_faults = faults_of(summaries["storm-DAS"])
    checks.append(
        (
            "storm cell applied every fault kind and settled every"
            " admitted request",
            storm_faults["events_applied"] == len(FaultPlan.parse(storm_spec))
            and storm_faults["disk_degraded"] == 1
            and storm_faults["link_cuts"] == 1
            and summaries["storm-DAS"]["admitted"]
            == summaries["storm-DAS"]["settled"],
        )
    )
    checks.append(
        (
            "conservation: every admitted request settled exactly once"
            " in every cell",
            all(s["admitted"] == s["settled"] for s in summaries.values()),
        )
    )

    # The storm cell exercises the whole fault vocabulary — crash, disk
    # slowdown, link cut, timeouts, retries, hedges — so its trace
    # carries every instant-event kind the exporter knows.
    aux_checks = replays.traced(
        "chaos_storm_DAS",
        runs["storm-DAS"],
        summaries["storm-DAS"],
        {"bench": "chaos-bench", "cell": "storm-DAS", "duration": duration},
    )

    # The NAS crash cell is the one whose faults *show*: NAS offloads with
    # no decision plane, so execs landing on the dead server fail until it
    # recovers — the availability and latency budgets burn on both
    # windows, page, and resolve once the server heals.  (DAS cells mask
    # the same faults via fallback + hedging; their ledgers staying empty
    # is the bench's whole point.)
    if "NAS" in schemes:
        t_cell, expect = "crash-NAS", ("availability-burn", "latency-burn")
    else:
        t_cell, expect = "storm-DAS", ()
    aux_checks += replays.sampled(
        f"chaos_{t_cell.replace('-', '_')}",
        runs[t_cell],
        summaries[t_cell],
        {"bench": "chaos-bench", "cell": t_cell, "duration": duration},
        expect_alerts=expect,
    )

    topology = SERVE_CELL.topology
    return ExperimentReport(
        experiment="chaos-bench",
        title="Fault injection: availability and failover, TS/NAS/DAS",
        rows=rows,
        checks=checks,
        aux_checks=aux_checks,
        notes=(
            f"{topology.nodes} nodes (half storage),"
            f" {topology.raster[0]}x{topology.raster[1]} rasters,"
            f" load x{CHAOS_LOAD:g} for {duration:g}s per cell; crash at"
            f" {CRASH_AT:g}, recovery at {RECOVER_AT:g} of the run; faulted-cell"
            f" deadline {CHAOS_DEADLINE:g}s; recovery policy"
            f" rpc_timeout={CHAOS_RECOVERY.rpc_timeout:g}s,"
            f" {CHAOS_RECOVERY.max_attempts} attempts,"
            f" hedge at {CHAOS_RECOVERY.hedge_delay:g}s."
            + (f" Custom spec cell: {chaos_spec!r}." if chaos_spec else "")
        ),
    )
