"""Per-layer metrics: their names, units and directions, and how each is
derived from a traced pass.

Host-time metrics (``*_s``, ``*_us``, ``*_per_s``, overheads) come from
the span recorder or the micro-timings and carry the sandbox's noise.
Everything else is an exact count read off the simulator at the span
boundaries: it repeats bit for bit at a given seed, so two commits
compare by equality.  A layer a workload never calls reports 0.

``unit`` says which clock a number is on: ``s``/``us`` are host time,
``sim_s`` is simulated time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from . import platform as P
from .cells import CellResult
from .trace import Recorder

MB = 1e6

#: (name, unit, better) of every end-to-end metric, in reporting order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_time_s", "sim_s", "lower"),
    ("sim_wire_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric, in reporting order.
PER_LAYER = (
    ("workloads.synth_s", "s", "lower"),
    ("workloads.synth_mb_per_s", "MB/s", "higher"),
    ("kernels.reference_s", "s", "lower"),
    ("kernels.flow-routing.melem_per_s", "Melem/s", "higher"),
    ("kernels.flow-accumulation.melem_per_s", "Melem/s", "higher"),
    ("kernels.gaussian.melem_per_s", "Melem/s", "higher"),
    ("kernels.window_melem_per_s", "Melem/s", "higher"),
    ("hw.build_s", "s", "lower"),
    ("hw.disk_read_mb", "MB", "lower"),
    ("hw.disk_write_mb", "MB", "lower"),
    ("hw.cpu_busy_sim_s", "sim_s", "lower"),
    ("pfs.ingest_s", "s", "lower"),
    ("pfs.ingest_mb_per_s", "MB/s", "higher"),
    ("pfs.collect_s", "s", "lower"),
    ("pfs.map_extent_us", "us", "lower"),
    ("pfs.redistribute_mb", "MB", "lower"),
    ("pfs.rpc_header_mb", "MB", "lower"),
    ("pfs.stored_per_user_byte", "B/B", "lower"),
    ("net.client_mb", "MB", "lower"),
    ("net.server_mb", "MB", "lower"),
    ("net.sends_per_s", "1/s", "higher"),
    ("sim.events", "count", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.timeout_storm_kev_per_s", "kev/s", "higher"),
    ("sim.store_pingpong_kev_per_s", "kev/s", "higher"),
    ("sim.resource_contention_kev_per_s", "kev/s", "higher"),
    ("sim.condition_races_kev_per_s", "kev/s", "higher"),
    ("core.plan_s", "s", "lower"),
    ("core.predict_us", "us", "lower"),
    ("core.plan_us", "us", "lower"),
    ("core.decide_us", "us", "lower"),
    ("core.decision_cache_hit_rate", "ratio", "higher"),
    ("core.halo_remote_mb", "MB", "lower"),
    ("core.halo_local_mb", "MB", "higher"),
    ("core.predicted_over_measured_halo", "ratio", "lower"),
    ("schemes.TS.run_s", "s", "lower"),
    ("schemes.NAS.run_s", "s", "lower"),
    ("schemes.DAS.run_s", "s", "lower"),
    ("schemes.TS.events", "count", "lower"),
    ("schemes.NAS.events", "count", "lower"),
    ("schemes.DAS.events", "count", "lower"),
    ("schemes.das_over_ts_sim", "ratio", "lower"),
    ("schemes.nas_over_ts_sim", "ratio", "lower"),
    ("serve.settled", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.late", "count", "lower"),
    ("serve.batch_hit_rate", "ratio", "higher"),
    ("serve.req_per_host_s", "1/s", "higher"),
    ("serve.TS.events_per_request", "count", "lower"),
    ("serve.NAS.events_per_request", "count", "lower"),
    ("serve.DAS.events_per_request", "count", "lower"),
    ("serve.DAS_x4.sim_p99_s", "sim_s", "lower"),
    ("serve.NAS_x1.sim_p99_s", "sim_s", "lower"),
    ("serve.stage.queue_share", "ratio", "lower"),
    ("serve.stage.compute_share", "ratio", "lower"),
    ("serve.stage.rpc_share", "ratio", "lower"),
    ("serve.stage.read_share", "ratio", "lower"),
    ("serve.stage.offload_share", "ratio", "lower"),
    ("faults.failover_reads", "count", "lower"),
    ("faults.retries", "count", "lower"),
    ("fleet.run_s", "s", "lower"),
    ("fleet.routed", "count", "higher"),
    ("fleet.spillovers", "count", "lower"),
    ("scenarios.load_us", "us", "lower"),
    ("scenarios.build_s", "s", "lower"),
    ("scenarios.checks_passed", "count", "higher"),
    ("scenarios.checks_declared", "count", "higher"),
    *((f"scenarios.{name}.run_s", "s", "lower") for name in P.SCENARIOS),
    ("obs.trace_overhead", "ratio", "lower"),
    ("obs.spans_per_request", "count", "lower"),
    ("telemetry.sample_overhead", "ratio", "lower"),
    ("telemetry.samples", "count", "higher"),
    ("verify_s", "s", "lower"),
    ("host.user_s", "s", "lower"),
    ("host.sys_s", "s", "lower"),
    ("host.minor_faults", "count", "lower"),
    ("host.other_s", "s", "lower"),
    ("host.span_coverage", "ratio", "higher"),
    ("host.calibration_drift", "ratio", "lower"),
    ("host.bench_trace_overhead", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum(results: Iterable[CellResult], key: str) -> float:
    return sum(r.extra.get(key, 0.0) for r in results)


def from_pass(results: List[CellResult], rec: Recorder) -> Dict[str, float]:
    """The metrics one traced pass yields: span self-times by layer and
    the exact counts the cells read at the same boundaries."""
    spans = rec.by_name()
    loads = spans.get("scenarios.load", {})

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def span_bytes(name: str) -> float:
        return sum(s["args"].get("bytes", 0) for s in rec.spans if s["name"] == name)

    def total(key: str) -> float:
        return sum(r.tally[key] for r in results)

    def of(scheme: str) -> List[CellResult]:
        return [r for r in results if r.scheme == scheme]

    out = {
        "workloads.synth_s": self_s("workloads.synth"),
        "workloads.synth_mb_per_s": _ratio(
            span_bytes("workloads.synth") / MB, self_s("workloads.synth")
        ),
        "kernels.reference_s": self_s("kernels.reference"),
        "hw.build_s": self_s("hw.build"),
        "hw.disk_read_mb": total("disk_read") / MB,
        "hw.disk_write_mb": total("disk_write") / MB,
        "hw.cpu_busy_sim_s": total("cpu_busy"),
        "pfs.ingest_s": self_s("pfs.ingest"),
        "pfs.ingest_mb_per_s": _ratio(
            span_bytes("pfs.ingest") / MB, self_s("pfs.ingest")
        ),
        "pfs.collect_s": self_s("pfs.collect"),
        "pfs.redistribute_mb": total("redistribute") / MB,
        "pfs.rpc_header_mb": total("rpc_header") / MB,
        "pfs.stored_per_user_byte": _ratio(total("stored"), total("user")),
        "net.client_mb": total("client") / MB,
        "net.server_mb": total("server") / MB,
        "sim.events": float(sum(r.events for r in results)),
        "sim.run_s": self_s("sim.run"),
        "core.plan_s": self_s("core.plan"),
        "core.decision_cache_hit_rate": _ratio(
            _sum(results, "cache_hits"),
            _sum(results, "cache_hits") + _sum(results, "cache_misses"),
        ),
        "core.halo_remote_mb": total("halo_remote") / MB,
        "core.halo_local_mb": total("halo_local") / MB,
        "core.predicted_over_measured_halo": _ratio(
            _sum(results, "predicted_halo"),
            sum(r.tally["halo_remote"] for r in results if "predicted_halo" in r.extra),
        ),
        "serve.settled": _sum(results, "settled"),
        "serve.rejected": _sum(results, "rejected"),
        "serve.late": _sum(results, "late"),
        "serve.batch_hit_rate": _ratio(
            _sum(results, "batch_merged"), _sum(results, "batch_requests")
        ),
        "faults.failover_reads": total("failover_reads"),
        "faults.retries": total("retries"),
        "fleet.run_s": rec.total("sim.run", fleet=True),
        "fleet.routed": _sum(results, "fleet_routed"),
        "fleet.spillovers": _sum(results, "fleet_spillovers"),
        "scenarios.load_us": _ratio(loads.get("total_s", 0.0) * 1e6, loads.get("calls", 0)),
        "scenarios.build_s": self_s("scenarios.build"),
        "scenarios.checks_passed": _sum(results, "checks_passed"),
        "scenarios.checks_declared": _sum(results, "checks_declared"),
        "verify_s": self_s("verify"),
    }
    out["sim.events_per_s"] = _ratio(out["sim.events"], out["sim.run_s"])
    serving = [r for r in results if "settled" in r.extra]
    out["serve.req_per_host_s"] = _ratio(
        _sum(serving, "settled"),
        sum(rec.total("sim.run", cell=r.cell) for r in serving),
    )
    for scheme in P.GRID_SCHEMES:
        out[f"schemes.{scheme}.run_s"] = rec.total("sim.run", scheme=scheme)
        out[f"schemes.{scheme}.events"] = float(sum(r.events for r in of(scheme)))
        out[f"serve.{scheme}.events_per_request"] = _ratio(
            sum(r.events for r in of(scheme) if "settled" in r.extra),
            _sum(of(scheme), "settled"),
        )
    ts_sim = sum(r.sim_time for r in of("TS"))
    out["schemes.das_over_ts_sim"] = _ratio(sum(r.sim_time for r in of("DAS")), ts_sim)
    out["schemes.nas_over_ts_sim"] = _ratio(sum(r.sim_time for r in of("NAS")), ts_sim)
    p99 = {r.name: r.extra["p99"] for r in serving if "p99" in r.extra}
    out["serve.DAS_x4.sim_p99_s"] = p99.get("DAS_x4", 0.0)
    out["serve.NAS_x1.sim_p99_s"] = p99.get("NAS_x1", 0.0)
    for name in P.SCENARIOS:
        out[f"scenarios.{name}.run_s"] = rec.total("sim.run", scenario=name)
    cover = rec.coverage()
    out["host.other_s"] = cover["other_s"]
    out["host.span_coverage"] = cover["covered"]
    return out


def from_micro(
    engine: Dict[str, float],
    sends_per_s: float,
    planning: Dict[str, float],
    kernels: Dict[str, float],
    observed: Dict[str, float],
) -> Dict[str, float]:
    """Names for the micro-timings (bench/micro.py)."""
    out = {f"sim.{shape}_kev_per_s": rate for shape, rate in engine.items()}
    out["net.sends_per_s"] = sends_per_s
    out["pfs.map_extent_us"] = planning["map_extent_us"]
    for call in ("predict", "plan", "decide"):
        out[f"core.{call}_us"] = planning[f"{call}_us"]
    for kernel in P.GRID_KERNELS:
        out[f"kernels.{kernel}.melem_per_s"] = kernels[kernel]
    out["kernels.window_melem_per_s"] = kernels["window"]
    out["obs.trace_overhead"] = observed["trace_overhead"]
    out["obs.spans_per_request"] = observed["spans_per_request"]
    out["telemetry.sample_overhead"] = observed["sample_overhead"]
    out["telemetry.samples"] = observed["samples"]
    for stage in ("queue", "compute", "rpc", "read", "offload"):
        out[f"serve.stage.{stage}_share"] = observed[f"{stage}_share"]
    return out
