"""Frozen benchmark inputs: platform specs, tenant mixes, shapes, cell lists.

Everything the four workloads are built from lives here (or under
``bench/scenarios/``), so later edits to the harness package's presets or
the scenario library cannot move the benchmark's load.  The program
under test receives only inputs generated from these constants and
``--seed``.

Sizes are set by the driver's time cap (a run — three fresh processes,
each a warm-up pass plus its timed passes — has to end in well under
half a minute on two cores), so every workload's pass is held to about
two seconds; bench/README.md records what was cut from the issue's
full-size shapes and the order to restore it in.
"""

from __future__ import annotations

from repro.config import PlatformSpec
from repro.faults import RecoveryPolicy
from repro.serve import TenantSpec
from repro.units import KiB, MiB, us

#: ``--seed`` default (the paper's conference date, as everywhere else).
DEFAULT_SEED = 20120910

#: Seed of every simulated clock's random streams (Poisson arrivals,
#: tenant file/kernel picks).  Frozen with the tenant mix rather than
#: taken from ``--seed``: a 3-6 s Poisson run's request count moves
#: +-15 % from seed to seed (330 k .. 449 k events measured over ten
#: seeds on serve_sweep), which is work, not noise, and would swamp
#: every bound on ``wall_s``.  ``--seed`` feeds the dataset generators.
ARRIVAL_SEED = 20120910

# -- paper_grid ---------------------------------------------------------------
#: Fig. 11 grid, reporting order.
GRID_KERNELS = ("flow-routing", "flow-accumulation", "gaussian")
GRID_SCHEMES = ("TS", "NAS", "DAS")
#: Paper label and node count of the grid's single column.
GRID_LABEL_GB = 24
GRID_NODES = 24
#: Simulated bytes per paper GB (the harness default is 1 MiB; 320 KiB
#: keeps the 3x3 grid and gives a 991x991 float64 raster).
GRID_SCALE = 320 * KiB
GRID_STRIP = 64 * KiB

# -- serve_sweep --------------------------------------------------------------
#: Throttled serving platform (frozen from serve-bench): a few requests
#: per second saturate four storage nodes.
SERVE_SPEC = PlatformSpec(
    nic_bandwidth=4 * MiB,
    nic_latency=500 * us,
    rpc_overhead=200 * us,
    disk_bandwidth=16 * MiB,
    kernel_cost={
        "default": 16e-6,
        "flow-routing": 24e-6,
        "flow-accumulation": 32e-6,
        "gaussian": 40e-6,
    },
)
SERVE_NODES = 8
SERVE_STRIP = 4 * KiB
SERVE_RASTER = (128, 192)
SERVE_FILES = ("dem_a", "dem_b")
#: Aggregate arrivals per simulated second at load 1.0.
SERVE_BASE_RATE = 10.0
SERVE_DEADLINE = 0.5
#: Simulated seconds of offered load per cell (serve-bench uses 6).
SERVE_DURATION = 4.0
#: (scheme, load multiplier, batch_max) per cell, in running order.
SERVE_CELLS = (
    ("TS", 1.0, 1),
    ("TS", 4.0, 1),
    ("NAS", 1.0, 1),
    ("DAS", 1.0, 1),
    ("DAS", 4.0, 1),
    ("DAS", 8.0, 8),
)
#: The cell the observer-overhead and stage-share measurements replay.
OBSERVED_CELL = ("DAS", 4.0, 1)


def serve_tenants(rate: float = SERVE_BASE_RATE):
    """The three-tenant mix (weights 3:2:1) of the serving cells."""
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


# -- cold_pipeline ------------------------------------------------------------
COLD_RASTER = (768, 1024)
COLD_STAGES = ("flow-routing", "flow-accumulation", "gaussian")
#: (strip bytes, total nodes) per cell.
COLD_CELLS = (
    (64 * KiB, 24),
    (16 * KiB, 24),
    (4 * KiB, 24),
    (64 * KiB, 8),
    (16 * KiB, 8),
    (4 * KiB, 8),
)

# -- scenario_mix -------------------------------------------------------------
#: Frozen copies under bench/scenarios/, in running order.  The
#: library's sixth document, noisy-neighbor, is left out: its 2.1 s are
#: NumPy median filtering, more than the other five and their twins
#: together, and this workload exists for the pure-Python layers.  Its
#: closed-loop client model is carried by the fleet run's "delta"
#: tenant instead.
SCENARIOS = (
    "black-friday",
    "cache-stampede",
    "chaos-storm",
    "region-loss",
    "rolling-upgrade",
)

FLEET_CELLS = 2
FLEET_DURATION = 6.0
FLEET_DEADLINE = 2.5
#: Sticky pins: both hot tenants on the cell that takes the crash.
FLEET_ASSIGNMENTS = {
    "alpha": "cell-0",
    "beta": "cell-0",
    "gamma": "cell-1",
    "delta": "cell-1",
}
FLEET_RECOVERY = RecoveryPolicy(
    rpc_timeout=0.25, max_attempts=2, backoff=0.02, hedge_delay=0.1
)
FLEET_LONGTAIL_BYTES = 64 * KiB
FLEET_LONGTAIL_CAPACITY = 8 * MiB


def fleet_tenants():
    """fleet-bench's foreground mix plus one closed-loop tenant."""
    return (
        TenantSpec(
            "alpha",
            rate=6.0,
            weight=3.0,
            kernels=("gaussian", "flow-routing"),
            files=("dem_a",),
        ),
        TenantSpec(
            "beta", rate=3.0, weight=2.0, kernels=("gaussian",), files=("dem_b",)
        ),
        TenantSpec(
            "gamma",
            rate=2.0,
            weight=1.0,
            kernels=("flow-accumulation",),
            files=("dem_a", "dem_b"),
        ),
        TenantSpec(
            "delta",
            mode="closed",
            population=2,
            think_time=0.2,
            affinity=0.5,
            kernels=("gaussian",),
            files=("dem_a", "dem_b"),
        ),
    )


def fleet_chaos(storage, duration: float = FLEET_DURATION) -> str:
    """cell-0's schedule: a disk slowdown bracketing a crash/recover."""
    return ";".join(
        (
            f"slow:{storage[2]}@{0.15 * duration:g}x0.05",
            f"crash:{storage[1]}@{0.3 * duration:g}",
            f"recover:{storage[1]}@{0.6 * duration:g}",
            f"restore:{storage[2]}@{0.8 * duration:g}",
        )
    )


def fleet_longtail_phases(cell: int, duration: float = FLEET_DURATION):
    """Background population of one cell: steady, a step, then quiet."""
    return (
        (0.0, 40.0 + 10.0 * cell),
        (duration / 2, 80.0),
        (0.75 * duration, 0.0),
    )


# -- micro-timings ------------------------------------------------------------
#: The four engine-bench shapes (zero NumPy), re-stated in bench/micro.py.
STORM_SHAPE = (200, 500)
PINGPONG_SHAPE = (50, 400)
CONTENTION_SHAPE = (100, 150, 8)
RACE_SHAPE = (100, 50)
#: Bare-fabric transport timing: sends, payload bytes, nodes.
TRANSPORT_SENDS = 10000
TRANSPORT_BYTES = 64 * KiB
TRANSPORT_NODES = 8
