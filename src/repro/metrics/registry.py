"""A declared catalog over the MonitorHub's counters, gauges and histograms.

`MonitorHub` is create-on-first-use: any subsystem can book any name,
which is how four PRs of counters (``faults.*``, ``autoscale.*``,
``serve.*``, wire accounting...) accreted without a single place that
says what exists, what unit it carries, or what it means.  The
:data:`CATALOG` is that place: every metric the runtime books is either
declared exactly (:class:`MetricSpec`) or covered by a declared
*family* — a name prefix for per-node / per-flow / per-file fan-outs
(``net.flow.c0->s1`` is an instance of the ``net.flow.`` family).

The hub checks a :class:`Histogram`'s first booking against the
catalog (:func:`require`); counters and gauges are linted after the
run instead: ``python -m repro.verify counters`` (CI: the ``record``
job) fails the build when :func:`undeclared` or :func:`mistyped` finds
a booked name the catalog does not declare with that kind, and
docs/OPERATIONS.md documents the catalog itself.

Histograms summarise through the same nearest-rank
:func:`~repro.metrics.stats.latency_summary` the SLO board uses — one
quantile implementation in the tree, not two.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..errors import ServeError
from .stats import LatencySummary, latency_summary

__all__ = [
    "MetricSpec",
    "Histogram",
    "CATALOG",
    "catalog_lookup",
    "describe",
    "mistyped",
    "require",
    "snapshot",
    "undeclared",
]

#: Metric kinds.
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric (or metric family)."""

    name: str
    kind: str  # counter | gauge | histogram
    unit: str  # bytes | requests | events | seconds | servers | ...
    help: str
    #: True when ``name`` is a prefix covering a fan-out of instances
    #: (per node, per flow, per file); exact match otherwise.
    family: bool = False

    def covers(self, name: str) -> bool:
        return name.startswith(self.name) if self.family else name == self.name


def _spec(name, kind, unit, help, family=False) -> MetricSpec:
    return MetricSpec(name, kind, unit, help, family)


#: Every metric the runtime books, declared.  Kept in lockstep with
#: docs/OPERATIONS.md by ``python -m repro.verify counters``.
CATALOG: Tuple[MetricSpec, ...] = (
    # -- alerting engine (telemetry scopes) -----------------------------------
    _spec("alert.fired", COUNTER, "events",
          "Alert-rule fire transitions booked by the alert engine"),
    _spec("alert.resolved", COUNTER, "events",
          "Alert-rule resolve transitions booked by the alert engine"),
    _spec("alert.active", GAUGE, "alerts",
          "Alert rules currently firing in this scope"),
    # -- active-storage offload path ------------------------------------------
    _spec("as.exec.amortised_requests", COUNTER, "requests",
          "Batch riders served without their own exec fan-out"),
    _spec("as.halo_bytes_local", COUNTER, "bytes",
          "Halo bytes satisfied from the server's own strips"),
    _spec("as.halo_bytes_remote", COUNTER, "bytes",
          "Halo bytes pulled from peer storage servers"),
    _spec("as.rpc.header_bytes", COUNTER, "bytes",
          "Fixed per-message exec RPC header bytes"),
    _spec("as.rpc.item_bytes", COUNTER, "bytes",
          "Per-extra-batch-member exec RPC descriptor bytes"),
    # -- autoscale controller -------------------------------------------------
    _spec("autoscale.ticks", COUNTER, "events", "Control-loop observations"),
    _spec("autoscale.breaches", COUNTER, "events",
          "Ticks whose SLO signal breached (p99 or queue depth)"),
    _spec("autoscale.cooldown_holds", COUNTER, "events",
          "Ticks where an action was withheld by the cooldown"),
    _spec("autoscale.scale_ups", COUNTER, "events", "Committed partition growths"),
    _spec("autoscale.scale_downs", COUNTER, "events", "Committed partition shrinks"),
    _spec("autoscale.moved_bytes", COUNTER, "bytes",
          "Bytes redistributed by resize actions"),
    _spec("autoscale.active", GAUGE, "servers",
          "Current active storage partition size"),
    # -- devices (per-node fan-outs) ------------------------------------------
    _spec("cpu.busy.", COUNTER, "seconds", "Busy seconds per node CPU",
          family=True),
    _spec("disk.read.", COUNTER, "bytes", "Bytes read per node disk",
          family=True),
    _spec("disk.write.", COUNTER, "bytes", "Bytes written per node disk",
          family=True),
    _spec("disk.read_total", COUNTER, "bytes", "Bytes read across all disks"),
    _spec("disk.write_total", COUNTER, "bytes", "Bytes written across all disks"),
    # -- fault subsystem ------------------------------------------------------
    _spec("faults.crashes", COUNTER, "events", "Node crash events applied"),
    _spec("faults.recoveries", COUNTER, "events", "Node recover events applied"),
    _spec("faults.disk_degraded", COUNTER, "events", "Disk slow events applied"),
    _spec("faults.disk_restored", COUNTER, "events", "Disk restore events applied"),
    _spec("faults.link_cuts", COUNTER, "events", "Link cut events applied"),
    _spec("faults.link_heals", COUNTER, "events", "Link heal events applied"),
    _spec("faults.dropped_requests", COUNTER, "events",
          "RPCs dropped en route to a dead/unreachable server"),
    _spec("faults.dropped_replies", COUNTER, "events",
          "RPC replies lost to a failure after service"),
    _spec("faults.error_replies", COUNTER, "events",
          "Fault notices returned in place of results"),
    _spec("faults.failover_reads", COUNTER, "events",
          "Extents re-homed onto a live replica"),
    _spec("faults.hedged_reads", COUNTER, "events", "Hedge reads launched"),
    _spec("faults.hedge_wins", COUNTER, "events",
          "Hedges that beat the primary attempt"),
    _spec("faults.rpc_timeouts", COUNTER, "events",
          "Attempts abandoned at the detection timeout"),
    _spec("faults.retries", COUNTER, "events", "RPC attempts retried"),
    _spec("faults.degraded_decisions", COUNTER, "requests",
          "Offloads refused because a strip holder was down"),
    _spec("faults.downtime_seconds", COUNTER, "seconds",
          "Summed outage durations of completed repairs"),
    # -- fleet federation tier ------------------------------------------------
    _spec("fleet.routed", COUNTER, "requests",
          "Requests placed by the fleet router"),
    _spec("fleet.routed.", COUNTER, "requests",
          "Requests admitted per cell", family=True),
    _spec("fleet.spillovers", COUNTER, "requests",
          "Requests admitted off their primary cell"),
    _spec("fleet.rejected", COUNTER, "requests",
          "Requests shed fleet-wide (no cell had queue room)"),
    _spec("fleet.probes", COUNTER, "events",
          "Health-probe sweeps across the fleet"),
    _spec("fleet.transitions", COUNTER, "events",
          "Cell health flips observed by the prober"),
    _spec("fleet.cells_healthy", GAUGE, "cells",
          "Cells currently probed healthy"),
    _spec("fleet.active_servers", GAUGE, "servers",
          "Fleet-wide active storage-partition total"),
    _spec("fleet.scale_grants", COUNTER, "events",
          "Cell resizes granted by the budget arbiter"),
    _spec("fleet.scale_denied", COUNTER, "events",
          "Cell scale-ups denied by the server budget"),
    _spec("fleet.longtail.requests", COUNTER, "requests",
          "Aggregated long-tail requests drained"),
    _spec("fleet.longtail.bytes", COUNTER, "bytes",
          "Aggregated long-tail bytes drained"),
    _spec("fleet.longtail.util.", GAUGE, "fraction",
          "Long-tail link utilization per cell", family=True),
    # -- network fabric -------------------------------------------------------
    _spec("net.bytes_total", COUNTER, "bytes", "All bytes crossing the fabric"),
    _spec("net.loopback_bytes", COUNTER, "bytes",
          "Bytes 'sent' node-local (no fabric crossing)"),
    _spec("net.flow.", COUNTER, "bytes", "Bytes per directed src->dst flow",
          family=True),
    _spec("net.rx.", COUNTER, "bytes", "Bytes received per node", family=True),
    _spec("net.tx.", COUNTER, "bytes", "Bytes transmitted per node", family=True),
    _spec("net.tag.", COUNTER, "bytes", "Bytes per traffic class tag",
          family=True),
    # -- PFS ------------------------------------------------------------------
    _spec("pfs.cache.hits.", COUNTER, "events", "Strip-cache hits per server",
          family=True),
    _spec("pfs.cache.misses.", COUNTER, "events",
          "Strip-cache misses per server", family=True),
    _spec("pfs.cache.evictions.", COUNTER, "events",
          "Strip-cache evictions per server", family=True),
    _spec("pfs.cache_hit_bytes.", COUNTER, "bytes",
          "Bytes served from strip caches per file", family=True),
    _spec("pfs.redistribute_bytes", COUNTER, "bytes",
          "Bytes moved by layout redistributions"),
    _spec("pfs.rpc.extent_desc_bytes", COUNTER, "bytes",
          "Per-extent descriptor bytes on PFS RPCs"),
    _spec("pfs.rpc.header_bytes", COUNTER, "bytes",
          "Fixed per-message PFS RPC header bytes"),
    # -- serving layer --------------------------------------------------------
    _spec("serve.admitted", COUNTER, "requests", "Requests admitted"),
    _spec("serve.rejected", COUNTER, "requests", "Requests shed at admission"),
    _spec("serve.retries", COUNTER, "requests", "Request retry attempts"),
    _spec("serve.completed", COUNTER, "requests",
          "Requests finished within deadline"),
    _spec("serve.late", COUNTER, "requests", "Requests finished past deadline"),
    _spec("serve.expired", COUNTER, "requests",
          "Requests dropped at dequeue (deadline passed while queued)"),
    _spec("serve.failed", COUNTER, "requests",
          "Requests failed after all retry attempts"),
    _spec("serve.diverted", COUNTER, "requests",
          "Accepted offloads diverted to the normal path by load"),
    _spec("serve.path.normal", COUNTER, "requests",
          "Requests served by client-side compute"),
    _spec("serve.path.offload", COUNTER, "requests",
          "Requests served by server-side offload"),
    _spec("serve.redistributions", COUNTER, "events",
          "Load-driven layout redistributions"),
    _spec("serve.queue.depth", GAUGE, "requests", "Total admission-queue depth"),
    _spec("serve.inflight.offload", GAUGE, "requests",
          "In-flight requests on the storage partition"),
    _spec("serve.inflight.normal", GAUGE, "requests",
          "In-flight requests on the compute partition"),
    _spec("serve.latency", HISTOGRAM, "seconds",
          "Arrival-to-finish latency of finished requests"),
    _spec("serve.latency.", HISTOGRAM, "seconds",
          "Arrival-to-finish latency per tenant", family=True),
    # -- telemetry sampler ----------------------------------------------------
    _spec("telemetry.samples", COUNTER, "events",
          "Boundary scrapes taken of this scope"),
    _spec("telemetry.series", GAUGE, "series",
          "Ring-buffer time-series held for this scope"),
)


def catalog_lookup(name: str, catalog: Iterable[MetricSpec] = CATALOG):
    """The spec covering ``name`` (exact beats family), else ``None``."""
    fallback = None
    for spec in catalog:
        if not spec.family and spec.name == name:
            return spec
        if spec.family and spec.covers(name):
            fallback = fallback or spec
    return fallback


def _default_buckets() -> Tuple[float, ...]:
    """Half-decade log grid from 1 ms to 100 s — wide enough for every
    simulated latency the benches produce, deterministic by construction."""
    bounds = []
    value = 0.001
    while value <= 100.0:
        bounds.append(round(value, 6))
        bounds.append(round(value * 3.162278, 6))
        value *= 10.0
    return tuple(b for b in bounds if b <= 100.0)


DEFAULT_BUCKETS = _default_buckets()


class Histogram:
    """Bucketed distribution with exact count/sum/min/max.

    Raw samples are kept (simulated runs are small) so
    :meth:`summary` can defer to the canonical nearest-rank
    :func:`~repro.metrics.stats.latency_summary` instead of a second,
    approximate quantile implementation.
    """

    def __init__(self, name: str, buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets) or not buckets:
            raise ServeError(f"histogram buckets must be sorted, got {buckets!r}")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        #: counts[i] tallies samples <= buckets[i]; the last slot is +Inf.
        self.counts = [0] * (len(self.buckets) + 1)
        self.samples: List[float] = []
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.samples.append(float(value))
        self.total += float(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    def summary(self) -> LatencySummary:
        return latency_summary(self.samples)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": {
                ("+Inf" if i == len(self.buckets) else f"{self.buckets[i]:g}"): n
                for i, n in enumerate(self.counts)
                if n
            },
        }


def require(name: str, kind: str) -> None:
    """Raise unless the catalog declares ``name`` as a ``kind`` metric
    (what :meth:`MonitorHub.histogram` checks at a first booking)."""
    spec = catalog_lookup(name)
    if spec is None:
        raise ServeError(f"metric {name!r} is not declared in the catalog")
    if spec.kind != kind:
        raise ServeError(
            f"metric {name!r} is declared as a {spec.kind}, used as a {kind}"
        )


def _declared(catalog: Iterable[MetricSpec]) -> Tuple[MetricSpec, ...]:
    catalog = tuple(catalog)
    names = [s.name for s in catalog]
    if len(set(names)) != len(names):
        raise ServeError("metric catalog declares a name twice")
    return catalog


# -- lint over a hub -----------------------------------------------------------
def undeclared(monitors, catalog: Iterable[MetricSpec] = CATALOG) -> List[str]:
    """Counter and gauge names booked in the hub that no entry covers
    (histograms cannot be booked undeclared)."""
    catalog = _declared(catalog)
    booked = list(monitors.counters) + list(monitors.gauges)
    return sorted(n for n in booked if catalog_lookup(n, catalog) is None)


def mistyped(monitors, catalog: Iterable[MetricSpec] = CATALOG) -> List[str]:
    """Booked names whose declared kind disagrees with their use."""
    catalog = _declared(catalog)
    out = []
    for kind, booked in ((COUNTER, monitors.counters), (GAUGE, monitors.gauges)):
        for name in booked:
            spec = catalog_lookup(name, catalog)
            if spec is not None and spec.kind != kind:
                out.append(f"{name}: booked as {kind}, declared {spec.kind}")
    return sorted(out)


# -- reporting -----------------------------------------------------------------
def describe(catalog: Iterable[MetricSpec] = CATALOG) -> List[dict]:
    """The catalog as rows (docs + the counters gate render this)."""
    return [
        {
            "name": s.name + ("*" if s.family else ""),
            "kind": s.kind,
            "unit": s.unit,
            "help": s.help,
        }
        for s in _declared(catalog)
    ]


def snapshot(monitors) -> Dict[str, object]:
    """A hub's counters, gauge levels and histogram summaries in one dict."""
    out: Dict[str, object] = dict(monitors.snapshot())
    for name, gauge in monitors.gauges.items():
        out[name] = gauge.level
    for name, hist in sorted(monitors.histograms.items()):
        out[name] = hist.as_dict()
    return out
