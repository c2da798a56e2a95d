"""engine-bench: microbenchmark of the discrete-event simulation core.

The serving and paper benches measure the whole stack — kernels, PFS,
fluid network, scheduler — so an engine regression hides inside
application noise.  This bench isolates the engine: four synthetic
workloads exercise the scheduling hot paths (heap churn, process
resume, store handoff, resource queues, condition races and timer
cancellation) with zero NumPy work, plus one small end-to-end serving
cell for a requests-per-wall-second figure on the real stack.

Every workload is deterministic — no RNG, fixed arithmetic delay
patterns — so its ``events`` column is exactly reproducible and doubles
as a scheduling-contract check: with ``verify=True`` the timeout storm
is run twice and must dispatch the identical event count.  The wall
columns (``wall_seconds``, ``events_per_wall_second``,
``requests_per_wall_second``) are host-dependent and volatile;
``python -m repro.verify regression`` strips them before comparing payloads
and applies a tolerance to the walls instead.

Results land in ``benchmarks/BENCH_engine.json`` via the shared
trajectory writer (``--bench-dir``); the payload shape is documented in
docs/BENCHMARKS.md and the profiling workflow in the same file.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..scenarios import run_scenario
from ..sim.core import Environment
from ..sim.resources import Resource, Store
from .common import bench_timer, scaled_duration
from .experiment_report import ExperimentReport
from .serve_bench import serve_spec

#: (processes, rounds) of the timeout storm at scale 1024 KiB.
STORM_SHAPE = (200, 500)

#: (pairs, rounds) of the store ping-pong at scale 1024 KiB.
PINGPONG_SHAPE = (50, 400)

#: (processes, rounds, capacity) of the resource contention workload.
CONTENTION_SHAPE = (100, 150, 8)

#: (racers, rounds) of the condition-race / timer-cancellation workload.
RACE_SHAPE = (100, 50)

#: Serving-cell parameters: scheme, load multiplier, batch window.
SERVE_CELL = ("DAS", 2.0, 8)

#: Serving-cell duration (simulated seconds) at the default scale.
SERVE_CELL_DURATION = 3.0


def _size(base: int, scale: Optional[float], floor: int = 4) -> int:
    """Scale an iteration count by the harness byte-scale convention."""
    if scale is None:
        return base
    return max(floor, int(base * float(scale) / (1024 * 1024)))


# -- synthetic engine workloads ---------------------------------------------
def timeout_storm(procs: int, rounds: int) -> int:
    """Heap churn: ``procs`` processes sleeping staggered prime-ish delays.

    The delay pattern keeps the heap well mixed (no two processes march
    in lockstep), which is the worst realistic case for the scheduler's
    sift costs.  Returns the environment's dispatched-event count.
    """
    env = Environment()

    def sleeper(env, i):
        delay = ((i * 31) % 97 + 1) * 1e-3
        for k in range(rounds):
            yield env.timeout(delay)
            delay = ((i * 31 + k * 7) % 97 + 1) * 1e-3

    for i in range(procs):
        env.process(sleeper(env, i))
    env.run()
    return env.dispatched


def store_pingpong(pairs: int, rounds: int) -> int:
    """Process handoff through :class:`Store` put/get pairs."""
    env = Environment()

    def ping(env, a, b):
        for k in range(rounds):
            yield a.put(k)
            yield b.get()

    def pong(env, a, b):
        for _ in range(rounds):
            yield a.get()
            yield b.put(True)

    for _ in range(pairs):
        a, b = Store(env), Store(env)
        env.process(ping(env, a, b))
        env.process(pong(env, a, b))
    env.run()
    return env.dispatched


def resource_contention(procs: int, rounds: int, capacity: int) -> int:
    """``procs`` processes fighting over a ``capacity``-slot resource."""
    env = Environment()
    res = Resource(env, capacity=capacity)

    def worker(env, i):
        hold = ((i % 13) + 1) * 1e-4
        for _ in range(rounds):
            req = res.request()
            yield req
            yield env.timeout(hold)
            res.release(req)

    for i in range(procs):
        env.process(worker(env, i))
    env.run()
    return env.dispatched


def condition_races(racers: int, rounds: int) -> int:
    """`any_of` races between a signal and a deadline timer.

    Half the races are won by the signal (the loser timeout is left to
    the engine's lazy cancellation), half by the deadline — both sides
    of the condition teardown path stay hot.
    """
    env = Environment()

    def poker(env, signals):
        for k, ev in enumerate(signals):
            yield env.timeout(1e-4)
            if k % 2 == 0:
                ev.succeed(k)

    def racer(env, i, signals):
        for k in range(rounds):
            ev = signals[(i * rounds + k) % len(signals)]
            deadline = env.timeout(((i + k) % 7 + 1) * 1e-3)
            yield env.any_of((ev, deadline))

    signals = [env.event() for _ in range(racers * 2)]
    env.process(poker(env, signals))
    for i in range(racers):
        env.process(racer(env, i, signals))
    env.run()
    return env.dispatched


ENGINE_WORKLOADS = (
    ("timeout-storm", timeout_storm, STORM_SHAPE),
    ("store-pingpong", store_pingpong, PINGPONG_SHAPE),
    ("resource-contention", resource_contention, CONTENTION_SHAPE),
    ("condition-races", condition_races, RACE_SHAPE),
)


# -- the bench --------------------------------------------------------------
def engine_bench(scale: Optional[float] = None, verify: bool = True) -> ExperimentReport:
    """Run the engine microbenchmarks plus one small serving cell."""
    rows: List[Dict[str, object]] = []
    checks = []

    for name, fn, shape in ENGINE_WORKLOADS:
        args = tuple(_size(n, scale) if i < 2 else n for i, n in enumerate(shape))
        with bench_timer() as timing:
            dispatched = fn(*args)
        rows.append(
            {
                "bench": name,
                "shape": "x".join(str(a) for a in args),
                "events": dispatched,
                "wall_seconds": round(timing.wall_seconds, 4),
                "events_per_wall_second": round(timing.events_per_wall_second),
            }
        )
        checks.append((f"{name}: engine made progress", dispatched > 0))
        if verify:
            repeat = fn(*args)
            checks.append(
                (f"{name}: identical event count on re-run (deterministic)",
                 repeat == dispatched)
            )

    # One end-to-end serving cell: the requests-per-wall-second figure
    # on the real stack (kernels, PFS, fluid network, scheduler).
    scheme, load, batch_max = SERVE_CELL
    duration = scaled_duration(scale, SERVE_CELL_DURATION, 0.25)
    with bench_timer() as timing:
        summary, _ = run_scenario(
            serve_spec(scheme, load, duration, batch_max=batch_max)
        )
    settled = int(summary["settled"])  # type: ignore[arg-type]
    wall = timing.wall_seconds
    rows.append(
        {
            "bench": "serve-cell",
            "shape": f"{scheme}_x{load}_b{batch_max}_d{duration:g}",
            "events": timing.events_dispatched,
            "settled": settled,
            "wall_seconds": round(wall, 4),
            "events_per_wall_second": round(timing.events_per_wall_second),
            "requests_per_wall_second": round(settled / wall, 1) if wall > 0 else 0.0,
        }
    )
    checks.append(("serve-cell: requests settled", settled > 0))
    checks.append(
        ("serve-cell: output digest present",
         bool(summary.get("result_digest", {}).get("count")))  # type: ignore[union-attr]
    )

    return ExperimentReport(
        experiment="engine-bench",
        title="Simulation-engine throughput microbenchmarks",
        rows=rows,
        checks=checks,
        notes=(
            "events columns are exactly reproducible; wall_seconds,"
            " events_per_wall_second and requests_per_wall_second are"
            " host-dependent (volatile in regression checks)."
        ),
    )
