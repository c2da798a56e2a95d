"""Micro-timings of single layer primitives, and the calibration loop.

These do not depend on the workload: a traced run of any workload
repeats them, so every per-layer metric is defined everywhere and a
later change can be read against the primitive it touched.  Each
returns plain numbers; bench/layers.py names them.

The engine shapes are the four of ``engine-bench`` re-stated against
``Environment`` / ``Resource`` / ``Store`` with zero NumPy, so they stay
flat under any kernel change.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict

import numpy as np

from repro.config import PlatformSpec
from repro.core import (
    ActiveRequest,
    ActiveStorageClient,
    BandwidthPredictor,
    KernelFeatures,
    LayoutOptimizer,
)
from repro.kernels import default_registry
from repro.metrics import critical_path
from repro.net import NIC, Fabric, Transport
from repro.obs import Tracer
from repro.sim import Environment, MonitorHub, Resource, Store
from repro.telemetry import TelemetryConfig
from repro.units import MiB, us
from repro.workloads import dataset_for_label

from . import cells
from . import platform as P
from .trace import NullRecorder


def timed(fn: Callable[[], object]):
    """``(seconds, value)`` of one call with the cyclic GC quiesced."""
    gc.collect()
    gc.disable()
    try:
        begin = time.perf_counter()
        value = fn()
        return time.perf_counter() - begin, value
    finally:
        gc.enable()


# -- noise guard --------------------------------------------------------------
def calibration() -> float:
    """Host seconds of a fixed pure-Python + NumPy loop (best of five).

    Run before and after a workload's timed passes: the ratio says
    whether the host itself sped up or slowed down underneath them.
    """

    grid = np.arange(65_536, dtype=np.float64).reshape(256, 256)
    work = np.empty_like(grid)

    def loop():
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        # In place: an allocating loop would time the allocator's state,
        # which the passes in between change.
        for _ in range(160):
            np.multiply(grid, grid, out=work)
            np.add(work, 1.0, out=work)
            np.sqrt(work, out=grid)
        return acc + float(grid[0, 0])

    return min(timed(loop)[0] for _ in range(5))


# -- sim: the engine shapes ---------------------------------------------------
def timeout_storm(procs: int, rounds: int) -> int:
    """Heap churn: processes sleeping staggered prime-ish delays."""
    env = Environment()

    def sleeper(i):
        delay = ((i * 31) % 97 + 1) * 1e-3
        for k in range(rounds):
            yield env.timeout(delay)
            delay = ((i * 31 + k * 7) % 97 + 1) * 1e-3

    for i in range(procs):
        env.process(sleeper(i))
    env.run()
    return env.dispatched


def store_pingpong(pairs: int, rounds: int) -> int:
    """Process handoff through ``Store`` put/get pairs."""
    env = Environment()

    def ping(a, b):
        for k in range(rounds):
            yield a.put(k)
            yield b.get()

    def pong(a, b):
        for _ in range(rounds):
            yield a.get()
            yield b.put(True)

    for _ in range(pairs):
        a, b = Store(env), Store(env)
        env.process(ping(a, b))
        env.process(pong(a, b))
    env.run()
    return env.dispatched


def resource_contention(procs: int, rounds: int, capacity: int) -> int:
    """Processes fighting over a ``capacity``-slot resource."""
    env = Environment()
    res = Resource(env, capacity=capacity)

    def worker(i):
        hold = ((i % 13) + 1) * 1e-4
        for _ in range(rounds):
            req = res.request()
            yield req
            yield env.timeout(hold)
            res.release(req)

    for i in range(procs):
        env.process(worker(i))
    env.run()
    return env.dispatched


def condition_races(racers: int, rounds: int) -> int:
    """``any_of`` races between a signal and a deadline timer; half are
    won by each side, so both teardown paths stay hot."""
    env = Environment()

    def poker(signals):
        for k, ev in enumerate(signals):
            yield env.timeout(1e-4)
            if k % 2 == 0:
                ev.succeed(k)

    def racer(i, signals):
        for k in range(rounds):
            ev = signals[(i * rounds + k) % len(signals)]
            deadline = env.timeout(((i + k) % 7 + 1) * 1e-3)
            yield env.any_of((ev, deadline))

    signals = [env.event() for _ in range(racers * 2)]
    env.process(poker(signals))
    for i in range(racers):
        env.process(racer(i, signals))
    env.run()
    return env.dispatched


def engine_shapes() -> Dict[str, float]:
    """Thousand events per host second of each shape."""
    shapes = (
        ("timeout_storm", timeout_storm, P.STORM_SHAPE),
        ("store_pingpong", store_pingpong, P.PINGPONG_SHAPE),
        ("resource_contention", resource_contention, P.CONTENTION_SHAPE),
        ("condition_races", condition_races, P.RACE_SHAPE),
    )
    out = {}
    for name, fn, shape in shapes:
        seconds, events = timed(lambda: fn(*shape))
        out[name] = events / seconds / 1e3
    return out


# -- net ----------------------------------------------------------------------
def transport_sends() -> float:
    """Sends per host second among nodes of a bare fabric."""
    env = Environment()
    monitors = MonitorHub(env)
    fabric = Fabric(env)
    names = [f"n{i}" for i in range(P.TRANSPORT_NODES)]
    for name in names:
        fabric.attach(NIC(env, name, 256 * MiB, 10 * us, monitors))
    transport = Transport(env, fabric, monitors, rpc_overhead=5 * us)

    def run():
        n = len(names)
        for i in range(P.TRANSPORT_SENDS):
            transport.send(names[i % n], names[(i * 3 + 1) % n], P.TRANSPORT_BYTES)
        env.run()

    seconds, _ = timed(run)
    return P.TRANSPORT_SENDS / seconds


# -- pfs / core: planning-path primitives on the grid file ---------------------
def planning_primitives() -> Dict[str, float]:
    """Microseconds per call of the extent mapper, the predictor, the
    layout optimizer and the client's decision, on the paper_grid file
    over twelve servers."""
    rec = NullRecorder()
    dataset = dataset_for_label(P.GRID_LABEL_GB, scale=P.GRID_SCALE)
    cluster, pfs = cells.build(rec, P.GRID_NODES, PlatformSpec(), P.GRID_STRIP)
    size = dataset.n_bytes
    meta = pfs.metadata.create(
        "grid", size, pfs.round_robin(), dtype=np.float64, shape=dataset.shape
    )
    pattern = KernelFeatures.from_registry().get("flow-routing")
    layouts = (pfs.round_robin(), pfs.grouped(4), pfs.replicated_grouped(8, 1))
    predictor, optimizer = BandwidthPredictor(), LayoutOptimizer()
    client = ActiveStorageClient(pfs, home=cluster.compute_names[0])
    request = ActiveRequest("flow-routing", "grid", "grid.out")

    def per_call(fn, reps):
        seconds, _ = timed(lambda: [fn() for _ in range(reps)])
        return seconds / reps * 1e6

    return {
        "map_extent_us": sum(
            per_call(lambda: layout.map_extent(0, size), 40) for layout in layouts
        )
        / len(layouts),
        "predict_us": per_call(lambda: predictor.predict(meta, pattern), 20),
        "plan_us": per_call(lambda: optimizer.plan(meta, pattern), 20),
        "decide_us": per_call(lambda: client.decide(request), 10),
    }


# -- kernels ------------------------------------------------------------------
def kernel_rates(seed: int) -> Dict[str, float]:
    """Million elements per host second: each grid kernel's whole-raster
    ``reference``, and ``apply_range`` over strip-sized windows — the
    path the servers call."""
    data = dataset_for_label(P.GRID_LABEL_GB, scale=P.GRID_SCALE, seed=seed).generate()
    out = {}
    for name in P.GRID_KERNELS:
        kernel = default_registry.get(name)
        # Once untimed: in a process whose passes never touched arrays
        # this large, the first call pays first-touch page faults (3x).
        kernel.reference(data)
        seconds, _ = timed(lambda: kernel.reference(data))
        out[name] = data.size / seconds / 1e6
    kernel = default_registry.get("gaussian")
    per_window = P.GRID_STRIP // data.itemsize

    def windows():
        for first in range(0, data.size, per_window):
            kernel.apply_range(data, first, min(per_window, data.size - first))

    seconds, _ = timed(windows)
    out["window"] = data.size / seconds / 1e6
    return out


# -- obs / telemetry: do observers stay free? ---------------------------------
def observers(seed: int) -> Dict[str, float]:
    """Replay one serving cell plain, traced and sampled.

    Overheads are host-time ratios minus one; the simulated summary
    must come out equal all three times (``identical`` is 1.0 then).
    The stage shares are the product's own critical-path decomposition
    of the traced replay.
    """
    rec = NullRecorder()
    scheme, load, batch = P.OBSERVED_CELL
    plain_s, plain = timed(lambda: cells.serve_cell(rec, scheme, load, batch, seed))
    tracer = Tracer()
    traced_s, traced = timed(
        lambda: cells.serve_cell(rec, scheme, load, batch, seed, tracer=tracer)
    )
    sampled_s, sampled = timed(
        lambda: cells.serve_cell(
            rec, scheme, load, batch, seed, telemetry=TelemetryConfig()
        )
    )
    block = sampled.summary.pop("telemetry")
    report = critical_path(tracer)
    stages = report.stage_seconds()
    latency = sum(stages.values()) or 1.0
    settled = max(1, plain.summary["settled"])
    out = {
        "trace_overhead": traced_s / plain_s - 1.0,
        "sample_overhead": sampled_s / plain_s - 1.0,
        "spans_per_request": len(tracer.spans) / settled,
        "samples": float(block["samples"]),
        "identical": float(
            traced.summary == plain.summary and sampled.summary == plain.summary
        ),
        "min_coverage": report.min_coverage(),
    }
    for stage in ("queue", "compute", "rpc", "read", "offload"):
        out[f"{stage}_share"] = stages.get(stage, 0.0) / latency
    return out
