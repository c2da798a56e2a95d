"""Measurement utilities: traffic accounting, statistics, reporting.

The public surface is pinned by ``__all__`` so ``from repro.metrics
import *`` is well-defined: traffic meters, the canonical nearest-rank
latency statistics, fault/autoscale summaries, the span-projected
:class:`Timeline`, the declared metric :data:`CATALOG`, and
the tracing-backed :func:`critical_path` analyzer.
"""

from .accounting import TrafficDelta, TrafficMeter, sustained_bandwidth
from .autoscale import AUTOSCALE_COUNTERS, autoscale_summary
from .critical_path import (
    STAGES,
    CriticalPathReport,
    RequestAttribution,
    critical_path,
    request_attribution,
)
from .faults import FAULT_COUNTERS, fault_summary
from .registry import CATALOG, Histogram, MetricSpec, catalog_lookup
from .report import format_checks, format_table
from .stats import LatencySummary, latency_summary, percentile
from .timeline import Timeline, render_gantt, utilization_table

__all__ = [
    "AUTOSCALE_COUNTERS",
    "CATALOG",
    "CriticalPathReport",
    "FAULT_COUNTERS",
    "Histogram",
    "LatencySummary",
    "MetricSpec",
    "RequestAttribution",
    "STAGES",
    "Timeline",
    "TrafficDelta",
    "TrafficMeter",
    "autoscale_summary",
    "catalog_lookup",
    "critical_path",
    "fault_summary",
    "format_checks",
    "format_table",
    "latency_summary",
    "percentile",
    "render_gantt",
    "request_attribution",
    "sustained_bandwidth",
    "utilization_table",
]
