"""The cell lifecycles the workloads are made of, re-stated from outside.

Every cell is the same sequence — build -> synth -> (plan) -> ingest ->
run -> collect -> verify — written here against the layers' public
functions only, each call wrapped in a span of the caller's recorder
(bench/trace.py).  Nothing is imported from the harness package: this is
the benchmark's own statement of what a cell is, so it keeps measuring
the same thing while the harness is folded away.

A cell returns a :class:`CellResult`: the simulated clock at
completion, exact byte/second tallies read off the monitors at the
same boundary, functional CRCs of what it produced, and the list of
assertions that failed (an op is one cell plus its assertions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.config import PlatformSpec, SimConfig
from repro.core import (
    ActiveStorageClient,
    KernelFeatures,
    LayoutOptimizer,
    Pipeline,
)
from repro.faults import FaultPlan
from repro.fleet import Cell, FleetSystem, LongtailStream
from repro.hw.cluster import Cluster
from repro.kernels import default_registry
from repro.metrics import TrafficMeter
from repro.pfs.filesystem import ParallelFileSystem
from repro.scenarios import (
    build_scenario,
    evaluate_checks,
    load_scenario,
    reference_spec,
)
from repro.schemes import SCHEMES, TraditionalScheme
from repro.serve import ServeConfig, ServeSystem
from repro.serve.batch import digest_bytes
from repro.sim import Environment
from repro.workloads import DatasetSpec, fractal_dem

from . import platform as P

SCENARIO_DIR = Path(__file__).parent / "scenarios"

#: Counter tallies every cell reports (bytes, or simulated seconds for
#: ``cpu_busy``); missing ones are zero.
TALLY_KEYS = (
    "wire",
    "client",
    "server",
    "disk_read",
    "disk_write",
    "cpu_busy",
    "redistribute",
    "rpc_header",
    "halo_local",
    "halo_remote",
    "stored",
    "user",
    "failover_reads",
    "retries",
)


@dataclass
class CellResult:
    name: str
    #: Simulated seconds on the cell's clock when it completed.
    sim_time: float
    tally: Dict[str, float]
    #: Functional CRCs (output rasters, result-digest roll-ups).
    crcs: Dict[str, int] = field(default_factory=dict)
    #: Assertions that did not hold; empty means the op passed.
    failures: List[str] = field(default_factory=list)
    #: Layer-specific exact counts for the per-layer metrics.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Serving cells keep the product's own summary, so an observed
    #: replay can be compared with the unobserved run bit for bit.
    summary: Optional[dict] = None
    #: TS / NAS / DAS where the cell runs one scheme.
    scheme: str = ""
    #: Filled in by the pass runner: 1-based position in the pass (the
    #: recorder's cell id) and engine events dispatched by the cell.
    cell: int = 0
    events: int = 0


def crc(array: np.ndarray) -> int:
    """The serving layer's own result digest, so a reference CRC and a
    served request's CRC are computed the same way."""
    return digest_bytes(np.ascontiguousarray(array))


# -- shared steps -------------------------------------------------------------
def build(rec, n_nodes: int, spec: PlatformSpec, strip: int, env=None):
    """Half storage, half compute, as on the paper's testbed."""
    with rec.span("hw.build", nodes=n_nodes):
        n_storage = n_nodes // 2
        cluster = Cluster.build(
            n_compute=n_nodes - n_storage,
            n_storage=n_storage,
            spec=spec,
            sim_config=SimConfig(seed=P.ARRIVAL_SEED, strip_size=strip),
            env=env,
        )
        pfs = ParallelFileSystem(cluster, strip_size=strip)
    return cluster, pfs


def ingest(rec, pfs, policy: str, name: str, data: np.ndarray, operator=None):
    """Place ``data`` instantly under one placement policy.

    ``round-robin`` is the PFS default TS and NAS read from; ``planned``
    is the DAS-aware ingest (the optimizer's improved distribution for
    ``operator``, planned up front); ``replicated`` keeps every strip on
    its primary and both neighbours, so any single crash is survivable.
    """
    client = pfs.client(pfs.cluster.compute_names[0])
    layout = pfs.round_robin()
    if policy == "planned":
        with rec.span("core.plan", operator=operator):
            scratch = f"__plan__{name}"
            meta = pfs.metadata.create(
                scratch, data.nbytes, layout, dtype=data.dtype, shape=data.shape
            )
            plan = LayoutOptimizer().plan(
                meta, KernelFeatures.from_registry().get(operator)
            )
            pfs.metadata.unlink(scratch)
        if plan.layout is not None:
            layout = plan.layout
    elif policy == "replicated":
        n_strips = max(1, math.ceil(data.nbytes / pfs.strip_size))
        group = max(1, math.ceil(n_strips / len(pfs.server_names)))
        layout = pfs.replicated_grouped(group, halo_strips=group)
    with rec.span("pfs.ingest", bytes=data.nbytes, policy=policy):
        client.ingest(name, data, layout)


def reference(rec, operator: str, data: np.ndarray) -> np.ndarray:
    with rec.span("kernels.reference", operator=operator, elements=data.size):
        return default_registry.get(operator).reference(data)


def tally(clusters, pfss, meters) -> Dict[str, float]:
    """Exact counts off the monitors, summed over a cell's clusters."""
    out = dict.fromkeys(TALLY_KEYS, 0.0)
    for cluster, pfs, meter in zip(clusters, pfss, meters):
        counters = cluster.monitors.snapshot()
        traffic = meter.delta()
        out["wire"] += counters.get("net.bytes_total", 0.0)
        out["client"] += traffic.client_bytes
        out["server"] += traffic.server_bytes
        out["disk_read"] += counters.get("disk.read_total", 0.0)
        out["disk_write"] += counters.get("disk.write_total", 0.0)
        out["cpu_busy"] += sum(
            v for k, v in counters.items() if k.startswith("cpu.busy.")
        )
        out["redistribute"] += counters.get("pfs.redistribute_bytes", 0.0)
        out["rpc_header"] += counters.get(
            "pfs.rpc.header_bytes", 0.0
        ) + counters.get("as.rpc.header_bytes", 0.0)
        out["halo_local"] += counters.get("as.halo_bytes_local", 0.0)
        out["halo_remote"] += counters.get("as.halo_bytes_remote", 0.0)
        out["failover_reads"] += counters.get("faults.failover_reads", 0.0)
        out["retries"] += counters.get("faults.retries", 0.0)
        out["stored"] += pfs.stored_bytes()
        out["user"] += sum(
            pfs.metadata.lookup(name).size for name in pfs.metadata.listing()
        )
    return out


# -- paper_grid ---------------------------------------------------------------
def paper_cell(rec, scheme: str, operator: str, dataset: DatasetSpec) -> CellResult:
    """One Fig. 11 cell: ``operator`` over the dataset under ``scheme``."""
    name = f"{operator}/{scheme}"
    failures: List[str] = []
    cluster, pfs = build(rec, P.GRID_NODES, PlatformSpec(), P.GRID_STRIP)
    meter = TrafficMeter(cluster)
    with rec.span("workloads.synth", bytes=dataset.n_bytes):
        data = dataset.generate()
    if operator == "flow-accumulation":
        # Consumes the direction raster flow-routing produces.
        data = reference(rec, "flow-routing", data)
    ingest(
        rec, pfs, "planned" if scheme == "DAS" else "round-robin",
        "input", data, operator,
    )

    runner = SCHEMES[scheme](pfs)
    done = runner.run_operation(operator, "input", "output")
    with rec.span("sim.run", scheme=scheme):
        result = cluster.run(until=done)

    expected = reference(rec, operator, data)
    if result.offloaded:
        with rec.span("pfs.collect"):
            produced = pfs.client(cluster.compute_names[0]).collect("output")
    else:
        # Client-side results never reach the PFS; a DAS run that fell
        # back to normal I/O keeps them on its inner TS scheme.
        holder = runner if scheme == "TS" else runner._fallback
        produced = holder.client_output(data.shape)
    with rec.span("verify"):
        if not np.array_equal(produced, expected):
            failures.append(f"{name}: output differs from the sequential reference")
        crcs = {name: crc(produced)}

    extra = {}
    if scheme == "NAS":
        extra["predicted_halo"] = float(
            result.decision.prediction_current.offload_halo_bytes
        )
    return CellResult(
        name,
        result.elapsed,
        tally([cluster], [pfs], [meter]),
        crcs,
        failures,
        extra,
        scheme=scheme,
    )


# -- serve_sweep --------------------------------------------------------------
def serve_platform(rec, seed: int, policy: str, env=None):
    """One serving platform with both bench rasters ingested under
    ``policy`` (see :func:`ingest`).

    Rasters come from one generator seeded by ``seed``, drawn in file
    order; returns ``(cluster, pfs, {file: raster})``.
    """
    cluster, pfs = build(rec, P.SERVE_NODES, P.SERVE_SPEC, P.SERVE_STRIP, env=env)
    rng = np.random.default_rng(seed)
    rasters = {}
    for name in P.SERVE_FILES:
        with rec.span("workloads.synth", bytes=8 * math.prod(P.SERVE_RASTER)):
            rasters[name] = fractal_dem(*P.SERVE_RASTER, rng=rng)
        ingest(rec, pfs, policy, name, rasters[name], "gaussian")
    return cluster, pfs, rasters


def reference_crcs(rec, rasters, tenants) -> set:
    """CRC of every (kernel, file) result the tenant mix can ask for."""
    pairs = sorted({(k, f) for t in tenants for k in t.kernels for f in t.files})
    # Tenants run every kernel over the ingested raster itself
    # (flow-accumulation included; no direction raster is derived).
    return {crc(reference(rec, kernel, rasters[file])) for kernel, file in pairs}


def serve_cell(
    rec,
    scheme: str,
    load: float,
    batch_max: int,
    seed: int,
    tracer=None,
    telemetry=None,
) -> CellResult:
    """One serving run: fresh throttled platform, warm ingest, run to
    quiescence, every request's result checked against the references."""
    name = f"{scheme}_x{load:g}" + (f"_b{batch_max}" if batch_max > 1 else "")
    failures: List[str] = []
    cluster, pfs, rasters = serve_platform(
        rec, seed, "planned" if scheme == "DAS" else "round-robin"
    )
    meter = TrafficMeter(cluster)
    tenants = P.serve_tenants()
    config = ServeConfig(
        tenants=tenants,
        scheme=scheme,
        duration=P.SERVE_DURATION,
        deadline=P.SERVE_DEADLINE,
        load=load,
        concurrency=8,
        queue_capacity=12,
        batch_max=batch_max,
        tracer=tracer,
        telemetry=telemetry,
    )
    system = ServeSystem(pfs, config)
    with rec.span("sim.run", scheme=scheme):
        summary = system.run()

    with rec.span("verify"):
        if summary["admitted"] != summary["settled"]:
            failures.append(f"{name}: admitted != settled")
        valid = reference_crcs(rec, rasters, tenants)
        wrong = sum(1 for d in system.executor.digests.values() if d not in valid)
        if wrong:
            failures.append(f"{name}: {wrong} request results match no reference")
    everyone = summary["tenants"]["_all"]
    extra = {
        "generated": summary["generated"],
        "settled": summary["settled"],
        "rejected": everyone["rejected"],
        "late": everyone["late"],
        "p99": everyone["lat_p99"] or 0.0,
        "batch_requests": summary["batch"]["requests"],
        "batch_merged": summary["batch"]["merged"],
    }
    cache = summary.get("decision_cache")
    if cache:
        extra["cache_hits"] = cache["hits"]
        extra["cache_misses"] = cache["misses"]
    return CellResult(
        name,
        summary["elapsed"],
        tally([cluster], [pfs], [meter]),
        {name: summary["result_digest"]["crc"]},
        failures,
        extra,
        summary,
        scheme,
    )


# -- cold_pipeline ------------------------------------------------------------
def cold_cell(rec, strip: int, n_nodes: int, seed: int) -> CellResult:
    """The write side of the PFS: a round-robin DEM adopted by DAS at
    first use (redistribution, replicated stage outputs), then a TS
    pass that writes its result back through the PFS client."""
    name = f"strip{strip // 1024}k/{n_nodes}n"
    failures: List[str] = []
    cluster, pfs = build(rec, n_nodes, PlatformSpec(), strip)
    meter = TrafficMeter(cluster)
    rows, cols = P.COLD_RASTER
    with rec.span("workloads.synth", bytes=8 * rows * cols):
        dem = fractal_dem(rows, cols, rng=np.random.default_rng(seed))
    ingest(rec, pfs, "round-robin", "dem", dem)

    home = cluster.compute_names[0]
    pipeline = Pipeline(P.COLD_STAGES)
    done = pipeline.submit(ActiveStorageClient(pfs, home=home), "dem")
    with rec.span("sim.run", scheme="DAS"):
        stages = cluster.run(until=done)
    done = TraditionalScheme(pfs, write_back=True).run_operation(
        "gaussian", "dem", "dem.ts"
    )
    with rec.span("sim.run", scheme="TS"):
        cluster.run(until=done)

    outputs = [r.output for r in pipeline.requests("dem")] + ["dem.ts"]
    expected = []
    current = dem
    for operator in P.COLD_STAGES:
        current = reference(rec, operator, current)
        expected.append(current)
    expected.append(reference(rec, "gaussian", dem))
    client = pfs.client(home)
    crcs = {}
    for output, want in zip(outputs, expected):
        with rec.span("pfs.collect", file=output):
            produced = client.collect(output)
        with rec.span("verify", file=output):
            if not np.array_equal(produced, want):
                failures.append(f"{name}: {output} differs from the reference")
            if not client.verify_replicas(output):
                failures.append(f"{name}: {output} has a stale replica")
            crcs[f"{name}:{output}"] = crc(produced)
    if not all(stage.offloaded for stage in stages):
        failures.append(f"{name}: a pipeline stage was not offloaded")
    return CellResult(
        name, cluster.env.now, tally([cluster], [pfs], [meter]), crcs, failures
    )


# -- scenario_mix -------------------------------------------------------------
def _scenario_run(rec, spec, label: str):
    """Materialize and run one spec; ``(summary, digests, tally)``."""
    with rec.span("scenarios.build", scenario=label):
        pfs, config = build_scenario(spec)
    meter = TrafficMeter(pfs.cluster)
    system = ServeSystem(pfs, config)
    with rec.span("sim.run", scenario=label):
        summary = system.run()
    return summary, dict(system.executor.digests), tally(
        [pfs.cluster], [pfs], [meter]
    )


def scenario_cell(rec, scenario: str) -> CellResult:
    """One frozen scenario document against its own declared gates,
    with the fault-free twin wherever it declares ``crc_identity``."""
    with rec.span("scenarios.load", scenario=scenario):
        spec = load_scenario(SCENARIO_DIR / f"{scenario}.json")
    summary, digests, counts = _scenario_run(rec, spec, scenario)
    sim_time = summary["elapsed"]
    twin = None
    if any(c.check == "crc_identity" for c in spec.checks):
        twin_summary, twin_digests, twin_counts = _scenario_run(
            rec, reference_spec(spec), f"{scenario}:twin"
        )
        twin = (twin_summary, twin_digests)
        sim_time += twin_summary["elapsed"]
        counts = {k: counts[k] + twin_counts[k] for k in counts}
    with rec.span("verify", scenario=scenario):
        verdicts = evaluate_checks(
            spec.checks, summary, digests=digests, reference=twin
        )
    failures = [f"{scenario}: {label}" for label, ok in verdicts if not ok]
    extra = {
        "checks_declared": len(verdicts),
        "checks_passed": sum(1 for _, ok in verdicts if ok),
    }
    return CellResult(
        f"scenario:{scenario}",
        sim_time,
        counts,
        {scenario: summary["result_digest"]["crc"]},
        failures,
        extra,
    )


def fleet_cell(rec, seed: int) -> CellResult:
    """Two federated cells on one clock: sticky routing, a crash in
    cell-0, long-tail background streams on both."""
    failures: List[str] = []
    env = Environment()
    tenants = P.fleet_tenants()
    clusters, pfss, meters, cells = [], [], [], []
    for i in range(P.FLEET_CELLS):
        cluster, pfs, rasters = serve_platform(rec, seed, "replicated", env=env)
        chaos = i == 0
        config = ServeConfig(
            tenants=tenants,
            scheme="DAS",
            duration=P.FLEET_DURATION,
            deadline=P.FLEET_DEADLINE,
            concurrency=8,
            queue_capacity=12,
            faults=FaultPlan.parse(P.fleet_chaos(cluster.storage_names))
            if chaos
            else None,
            recovery=P.FLEET_RECOVERY if chaos else None,
            decision_ttl=1.0 if chaos else None,
        )
        clusters.append(cluster)
        pfss.append(pfs)
        meters.append(TrafficMeter(cluster))
        cells.append(Cell(f"cell-{i}", pfs, config))
    fleet = FleetSystem(
        env,
        cells,
        tenants,
        duration=P.FLEET_DURATION,
        deadline=P.FLEET_DEADLINE,
        policy="sticky",
        assignments=P.FLEET_ASSIGNMENTS,
        longtail=tuple(
            LongtailStream(
                f"bg-{i}", f"cell-{i}", P.FLEET_LONGTAIL_BYTES,
                P.fleet_longtail_phases(i),
            )
            for i in range(P.FLEET_CELLS)
        ),
        longtail_capacity=P.FLEET_LONGTAIL_CAPACITY,
        seed=P.ARRIVAL_SEED,
    )
    with rec.span("sim.run", fleet=True):
        summary = fleet.run()

    with rec.span("verify"):
        if summary["routed"] != summary["generated"]:
            failures.append("fleet: routed != generated")
        if summary["admitted"] + summary["rejected"] != summary["generated"]:
            failures.append("fleet: admitted + rejected != generated")
        if not summary["digest_consistency"]["consistent"]:
            failures.append("fleet: a spilled request returned different bytes")
        valid = reference_crcs(rec, rasters, tenants)
        wrong = sum(
            1
            for cell in cells
            for d in cell.executor.digests.values()
            if d not in valid
        )
        if wrong:
            failures.append(f"fleet: {wrong} request results match no reference")
    extra = {
        "fleet_routed": summary["routed"],
        "fleet_spillovers": summary["spillovers"],
    }
    return CellResult(
        "fleet",
        summary["elapsed"],
        tally(clusters, pfss, meters),
        {"fleet": summary["result_digest"]["crc"]},
        failures,
        extra,
    )
