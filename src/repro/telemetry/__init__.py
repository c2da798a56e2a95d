"""Live telemetry: clock-driven sampling, time-series, SLO alerting.

The layer between per-request tracing (:mod:`repro.obs`) and the
post-hoc report (:mod:`repro.report`): a sampler that scrapes every
MonitorHub into ring-buffer time-series while the simulation runs, and
an alert engine that evaluates declarative SLO rules (multi-window
burn-rate, threshold, absence, rate-of-change) over those series on the
simulated clock.  Sampling is provably non-perturbing — event stream
and per-request CRCs are bit-identical with it on or off — and the
alert ledger is deterministic across replays.
"""

from .alerts import (
    RULE_KINDS,
    AlertEngine,
    AlertRule,
    default_fleet_rules,
    default_serve_rules,
)
from .sampler import (
    CAPACITY,
    INTERVAL,
    SCRAPE_PREFIXES,
    TelemetryConfig,
    TelemetrySampler,
)
from .series import KINDS, Series, SeriesBank

__all__ = [
    "CAPACITY",
    "INTERVAL",
    "KINDS",
    "RULE_KINDS",
    "SCRAPE_PREFIXES",
    "AlertEngine",
    "AlertRule",
    "Series",
    "SeriesBank",
    "TelemetryConfig",
    "TelemetrySampler",
    "default_fleet_rules",
    "default_serve_rules",
]
