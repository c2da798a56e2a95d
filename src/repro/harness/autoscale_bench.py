"""autoscale-bench: SLO-driven partition scaling under a load surge.

One workload, three deployments.  Every cell offers the same ramped
load — calm, a 4x surge, calm again — over the same files from the same
seed; what differs is who owns capacity:

* ``static-min`` pins the files to the small partition (the cheap
  steady-state deployment) and shows the surge breaching the SLO;
* ``static-max`` pins them to the large partition (the provisioned-for-
  peak deployment) and shows the surge absorbed — at 2x the storage
  footprint for the whole run;
* ``autoscale`` starts on the small partition and lets the
  :class:`~repro.serve.autoscale.AutoscaleController` resize it: the
  windowed p99 breach triggers scale-ups, the post-surge calm triggers
  scale-downs, and the run ends back at the minimum.

The static cells run the controller in *observer mode* (clamp pinned to
their partition size, so it can watch but never act) — that is what
gives them the same windowed-p99 trace the autoscale cell has, without
any resize machinery running.

The checks encode the controller's contract: the surge really breaches
the static-min SLO; autoscaling scales up and the windowed p99 comes
back under the deadline; the calm tail drains capacity back to the
minimum; clamp and cooldown are honoured; every admitted request
settles exactly once in every cell; and every request completed by both
the autoscale and static-min cells produced bit-identical output bytes
(per-request CRCs agree), so resizes never corrupted an in-flight
result.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, Tuple

from ..scenarios import ScenarioSpec, run_scenario
from ..serve import AutoscalePolicy, ServeSystem
from ..units import KiB
from .common import scaled_duration
from .experiment_report import ExperimentReport
from .replays import Replays
from .serve_bench import DEADLINE, SERVE_CELL

#: Partition clamp of the autoscale cell (also the two static sizes).
MIN_SERVERS = 2
MAX_SERVERS = 4

#: Seconds of offered load per cell at the default scale.
DURATION = 12.0

#: Offered-load multiplier during the surge phase.
SURGE = 4.0

#: The control loop of the autoscale cell.  The observer policies of the
#: static cells reuse every knob but pin the clamp to one size.
POLICY = AutoscalePolicy(
    min_servers=MIN_SERVERS,
    max_servers=MAX_SERVERS,
    interval=0.25,
    p99_high=DEADLINE,
    p99_low=DEADLINE / 2,
    queue_high=8,
    breach_ticks=2,
    calm_ticks=4,
    cooldown=1.0,
)

#: Cell name -> (clamp_min, clamp_max, ingest partition size).
CELLS = (
    ("static-min", MIN_SERVERS, MIN_SERVERS, MIN_SERVERS),
    ("static-max", MAX_SERVERS, MAX_SERVERS, MAX_SERVERS),
    ("autoscale", MIN_SERVERS, MAX_SERVERS, MIN_SERVERS),
)


def surge_ramp(duration: float) -> Tuple[Tuple[float, float], ...]:
    """Calm quarter, sustained surge, calm final third."""
    return ((0.0, 1.0), (duration / 4, SURGE), (2 * duration / 3, 0.25))


def autoscale_spec(
    clamp_min: int, clamp_max: int, ingest_servers: int, duration: float
) -> ScenarioSpec:
    """One ramped cell as a spec value: serve-bench's DAS cell, files
    planned onto the first ``ingest_servers`` servers, the surge ramp,
    and :data:`POLICY` with its clamp pinned to this deployment."""
    return replace(
        SERVE_CELL,
        topology=replace(
            SERVE_CELL.topology, ingest="partition", partition_servers=ingest_servers
        ),
        duration=duration,
        ramp=surge_ramp(duration),
        autoscale=replace(POLICY, min_servers=clamp_min, max_servers=clamp_max),
    )


def _row(name: str, summary: Dict[str, object], system: ServeSystem) -> dict:
    t = summary["tenants"]["_all"]  # type: ignore[index]
    a = summary["autoscale"]  # type: ignore[index]
    trace = system.autoscaler.trace
    return {
        "cell": name,
        "clamp": f"{a['clamp'][0]}-{a['clamp'][1]}",  # type: ignore[index]
        "active_final": a["active"],
        "scale_ups": a["scale_ups"],
        "scale_downs": a["scale_downs"],
        "moved_kb": round(a["moved_bytes"] / KiB, 1),  # type: ignore[operator]
        "completed": t["completed"],
        "late": t["late"],
        "expired": t["expired"],
        "rejected": t["rejected"],
        "p99_s": round(t["lat_p99"], 4),
        "peak_win_p99_s": round(max((o["p99"] for o in trace), default=0.0), 4),
        "final_win_p99_s": round(trace[-1]["p99"], 4) if trace else 0.0,
    }


def autoscale_bench(
    scale=None, verify=True, trace_dir=None, telemetry_dir=None
) -> ExperimentReport:
    """The autoscaling comparison (registered as ``autoscale-bench``).

    ``scale`` maps onto the run *duration* exactly as in serve-bench:
    the default 1 MiB gives :data:`DURATION` seconds per cell, smaller
    scales shorten it proportionally (floor 6 s — the control loop needs
    a few cooldown periods of calm tail to demonstrate the scale-down).
    """
    replays = Replays(verify, trace_dir, telemetry_dir)
    duration = scaled_duration(scale, DURATION, 6.0)

    rows = []
    runs = {}
    results: Dict[str, Tuple[Dict[str, object], ServeSystem]] = {}
    for name, lo, hi, ingest in CELLS:
        runs[name] = partial(run_scenario, autoscale_spec(lo, hi, ingest, duration))
        summary, system = runs[name]()
        results[name] = (summary, system)
        rows.append(_row(name, summary, system))
    by_cell = {r["cell"]: r for r in rows}

    auto_summary, auto_system = results["autoscale"]
    auto = auto_summary["autoscale"]  # type: ignore[index]
    actions = auto_system.autoscaler.actions
    trace = auto_system.autoscaler.trace
    last_up = max(
        (a.at for a in actions if a.direction == "up"), default=float("inf")
    )
    after_up = [o for o in trace if o["t"] > last_up and o["samples"] > 0]

    def breach_ticks(cell: str):
        """Control ticks whose windowed p99 exceeded the deadline."""
        return [
            o
            for o in results[cell][1].autoscaler.trace
            if o["p99"] > DEADLINE
        ]

    auto_breach = breach_ticks("autoscale")
    static_breach = breach_ticks("static-min")
    auto_clear = max((o["t"] for o in auto_breach), default=0.0)
    static_clear = max((o["t"] for o in static_breach), default=0.0)

    # The surge-vs-recovery comparisons need the full-length run: at
    # reduced scale the scale-ups land so close to the end that neither
    # the recovery nor the calm-tail scale-down fits before the drain.
    full_length = duration >= DURATION
    checks = []
    if full_length:
        checks += [
            (
                f"the surge breaches the static-min SLO (peak windowed p99"
                f" {by_cell['static-min']['peak_win_p99_s']:g}s >"
                f" {DEADLINE:g}s deadline)",
                by_cell["static-min"]["peak_win_p99_s"] > DEADLINE,
            ),
            (
                "provisioning for peak absorbs it: static-max sheds and"
                " expires less than static-min",
                by_cell["static-max"]["rejected"]
                + by_cell["static-max"]["expired"]
                < by_cell["static-min"]["rejected"]
                + by_cell["static-min"]["expired"],
            ),
            (
                f"the controller scales up under the surge"
                f" ({auto['scale_ups']} scale-up(s))",
                auto["scale_ups"] >= 1,  # type: ignore[operator]
            ),
            (
                "after the last scale-up the windowed p99 comes back under"
                " the deadline and ends the run there",
                bool(after_up) and after_up[-1]["p99"] <= DEADLINE,
            ),
            (
                "scaling up shortens the breach: the autoscale cell spends"
                f" fewer control ticks over the deadline ({len(auto_breach)}"
                f" vs {len(static_breach)}) and clears it sooner"
                f" ({auto_clear:.2f}s vs {static_clear:.2f}s)",
                len(auto_breach) < len(static_breach)
                and auto_clear < static_clear,
            ),
            (
                "capacity returns: the calm tail scales back down to the"
                f" minimum ({auto['scale_downs']} scale-down(s), final"
                f" partition {auto['active']})",
                auto["scale_downs"] >= 1 and auto["active"] == MIN_SERVERS,  # type: ignore[operator]
            ),
        ]
    checks += [
        (
            f"clamp honoured: the partition never leaves"
            f" [{MIN_SERVERS}, {MAX_SERVERS}]",
            all(MIN_SERVERS <= o["active"] <= MAX_SERVERS for o in trace)
            and all(
                MIN_SERVERS <= a.to_servers <= MAX_SERVERS for a in actions
            ),
        ),
        (
            f"cooldown honoured: consecutive resizes are"
            f" >= {POLICY.cooldown:g}s apart",
            all(
                later.at - earlier.at >= POLICY.cooldown
                for earlier, later in zip(actions, actions[1:])
            ),
        ),
        (
            "observer cells never resize: pinned clamps produce zero actions",
            all(
                results[c][0]["autoscale"]["scale_ups"]  # type: ignore[index]
                == results[c][0]["autoscale"]["scale_downs"]  # type: ignore[index]
                == 0
                for c in ("static-min", "static-max")
            ),
        ),
        (
            "conservation: every admitted request settled exactly once in"
            " every cell",
            all(s["admitted"] == s["settled"] for s, _ in results.values()),
        ),
    ]

    # Exactly-once across resizes: both cells saw the same deterministic
    # arrival stream, so any request completed by both must have produced
    # the same output bytes — a resize mid-flight may never change what a
    # request computes.
    auto_digests = auto_system.executor.digests
    static_digests = results["static-min"][1].executor.digests
    shared = sorted(set(auto_digests) & set(static_digests))
    checks.append(
        (
            f"resizes never corrupt results: all {len(shared)} requests"
            " completed by both autoscale and static-min have identical"
            " per-request output CRCs",
            bool(shared)
            and all(auto_digests[r] == static_digests[r] for r in shared),
        )
    )

    rerun = runs["autoscale"]
    meta = {"bench": "autoscale-bench", "cell": "autoscale", "duration": duration}
    checks += replays.verified(
        "bit-identical replay: the autoscale cell reproduces the"
        " same summary (actions included) from the same seed",
        rerun,
        auto_summary,
    )
    # The full-length surge plays the whole incident on the sampler:
    # queue-growth trips first (the leading indicator), saturation and
    # both burn pages follow, and the controller's scale-up must resolve
    # every one of them before the horizon.  Reduced-scale runs skip the
    # expectations for the same reason they skip the surge/recovery checks.
    aux_checks = replays.observed(
        "autoscale",
        rerun,
        auto_summary,
        meta,
        expect_alerts=(
            ("availability-burn", "latency-burn", "queue-growth", "queue-saturated")
            if full_length
            else ()
        ),
    )

    return ExperimentReport(
        experiment="autoscale-bench",
        title="SLO-driven autoscaling: static partitions vs the controller",
        rows=rows,
        checks=checks,
        aux_checks=aux_checks,
        notes=(
            f"{SERVE_CELL.topology.nodes} nodes, ramped load"
            f" 1x -> {SURGE:g}x -> 0.25x over"
            f" {duration:g}s, deadline {DEADLINE:g}s; clamp"
            f" [{MIN_SERVERS}, {MAX_SERVERS}], tick {POLICY.interval:g}s,"
            f" cooldown {POLICY.cooldown:g}s; static cells run the controller"
            " as a pinned-clamp observer."
            + (
                ""
                if full_length
                else " Reduced scale: surge/recovery comparisons skipped"
                " (the lifecycle needs the full duration)."
            )
        ),
    )
