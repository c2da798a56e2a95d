"""The ``counters`` gate: every runtime metric is declared and documented.

The check drives three short but *maximally messy* serving runs — the
``chaos-storm`` library scenario (crash + slow disk + link cut,
recovery armed, batching on, the telemetry sampler + alert engine
riding along via the scenario's alert gates), an autoscale cell
(resize up and down), and a 2-cell federated fleet (router probes,
spillover, long-tail fluid load, fleet-wide telemetry) — so that every
subsystem books its counters and gauges: admission, DWRR, batching,
the decision cache, wire accounting, device busy-time, the strip
caches, the fault plane, the autoscale controller, the fleet tier, and
the ``telemetry.*`` / ``alert.*`` meta-metrics.  Then it asserts:

1. **Declared** — :func:`~repro.metrics.registry.undeclared` is empty:
   every name booked in the MonitorHub is covered by an exact
   :class:`MetricSpec` or a declared family prefix in
   :data:`repro.metrics.registry.CATALOG` (a histogram's first booking
   already raised unless it was declared one).
2. **Well-typed** — :func:`~repro.metrics.registry.mistyped` is empty:
   nothing is booked as a counter but declared a gauge (or vice versa).
3. **Documented** — every catalog name (family prefixes included)
   appears verbatim in ``docs/OPERATIONS.md``, so the operator-facing
   metric reference cannot silently drift from the code.

A new counter therefore ships in three places at once — the booking
site, the catalog, and the docs — or this check fails the build.
"""

from __future__ import annotations

from typing import List

from ..harness.autoscale_bench import MAX_SERVERS, MIN_SERVERS, autoscale_spec
from ..harness.fleet_bench import fleet_run, fleet_tenants
from ..metrics.registry import CATALOG, mistyped, undeclared
from ..scenarios import load_scenario, run_scenario
from ..telemetry import TelemetryConfig
from .docs import REPO

#: Short enough for CI, long enough that at least one autoscale resize
#: lands (the storm's schedule is pinned by its scenario document) and
#: the fleet cell sees its chaos round trip.
AUTOSCALE_DURATION = 6.0
FLEET_DURATION = 3.0

OPERATIONS_DOC = REPO / "docs" / "OPERATIONS.md"


def storm_system():
    """The chaos-storm library scenario, materialized; returns the live
    system.  The scenario document (``repro/scenarios/library/``) is the
    single source of the storm's shape — crash + slow disk + link cut,
    recovery armed, batching on — so this check exercises the same cell
    the scenario bench gates."""
    _, system = run_scenario(load_scenario("chaos-storm"))
    if system.telemetry is None:
        raise RuntimeError(
            "chaos-storm no longer declares alert gates, so the telemetry"
            " meta-metrics went unexercised — re-add an alert_* check or"
            " enable telemetry here explicitly"
        )
    return system


def autoscale_system():
    """An autoscale cell (resizes both ways); returns the live system."""
    _, system = run_scenario(
        autoscale_spec(MIN_SERVERS, MAX_SERVERS, MIN_SERVERS, AUTOSCALE_DURATION)
    )
    return system


def fleet_system():
    """A 2-cell federated run — chaos in one cell, long-tail fluid load,
    router probes and spillover — so the fleet tier books its ``fleet.*``
    counters and gauges; returns the live FleetSystem."""
    _, system = fleet_run(
        2,
        fleet_tenants(),
        FLEET_DURATION,
        policy="least-loaded",
        chaos_cell=0,
        longtail=True,
        telemetry=TelemetryConfig(),
    )
    return system


def check_run(
    label: str, monitors, telemetry: bool = False, histograms: bool = True
) -> List[str]:
    problems = []
    booked = len(monitors.counters) + len(monitors.gauges)
    for name in undeclared(monitors):
        problems.append(f"{label}: booked metric {name!r} is not in the catalog")
    for issue in mistyped(monitors):
        problems.append(f"{label}: {issue}")
    if histograms and not monitors.histograms:
        problems.append(f"{label}: no histograms were observed")
    if telemetry:
        # The sampler's own meta-metrics must land in the hub (and, via
        # the undeclared() sweep above, in the catalog).
        if "telemetry.samples" not in monitors.counters:
            problems.append(f"{label}: sampler booked no telemetry.samples")
        if "alert.active" not in monitors.gauges:
            problems.append(f"{label}: alert engine booked no alert.active")
    if not problems:
        print(
            f"  {label}: {booked} booked counters/gauges all declared,"
            f" {len(monitors.histograms)} histogram(s)"
        )
    return problems


def check_fleet(system) -> List[str]:
    """The fleet hub (router/controller/long-tail metrics; it observes no
    histograms of its own) plus every cell's own hub."""
    problems = check_run("fleet", system.monitors, histograms=False)
    for cell in system.cells:
        problems += check_run(f"fleet/{cell.name}", cell.cluster.monitors)
    return problems


def check_documented() -> List[str]:
    if not OPERATIONS_DOC.exists():
        return [f"{OPERATIONS_DOC.name}: missing"]
    text = OPERATIONS_DOC.read_text()
    problems = [
        f"docs/OPERATIONS.md: catalog metric {spec.name!r}"
        f" ({spec.kind}, {spec.unit}) is not documented"
        for spec in CATALOG
        if spec.name not in text
    ]
    if not problems:
        print(f"  docs/OPERATIONS.md documents all {len(CATALOG)} catalog entries")
    return problems


def check_counters() -> List[str]:
    """Drive the three runs and the docs sweep; every problem found."""
    problems: List[str] = []
    print("  running chaos-storm cell (faults + batching + recovery + telemetry):")
    problems += check_run("storm", storm_system().cluster.monitors, telemetry=True)
    print("  running autoscale cell (resize up/down):")
    problems += check_run("autoscale", autoscale_system().cluster.monitors)
    print("  running federated fleet (2 cells, chaos + long-tail):")
    problems += check_fleet(fleet_system())
    print("  checking the catalog against docs/OPERATIONS.md:")
    problems += check_documented()
    return problems
