"""The clock-driven sampler: MonitorHub scrapes into ring-buffer series.

A :class:`TelemetrySampler` attaches to the environment's dispatch loop
(:meth:`repro.sim.core.Environment.set_telemetry`) and is fired the
first time an event at or past the next sampling boundary is popped,
*before* the clock advances — so the sample at boundary ``b`` observes
the system exactly as it stands at ``b`` (state is constant between
events).  Boundaries are ``tick * interval`` with an integer tick, so
no float accumulation can drift the grid, and a trailing
:meth:`finalize` flushes the boundaries between the last event and the
horizon from the final state.

The non-perturbation contract matches the tracer's: the sampler never
creates events, processes or timeouts — it only reads counter values,
gauge levels and histogram sample lists, and appends to Python-side
ring buffers — so the event stream, per-request CRCs and every summary
field are bit-identical with sampling on or off.  (It *does* book its
own ``telemetry.*`` / ``alert.*`` meta-metrics into the hub it scrapes;
summaries read named metrics, so extra bookings are invisible to them.)

Sampling runs on one fixed grid (:data:`INTERVAL`) into rings of
:data:`CAPACITY` points, and alerting on the scope's stock rule set
(:func:`~repro.telemetry.alerts.default_serve_rules` for a serving
cell, :func:`~repro.telemetry.alerts.default_fleet_rules` for the fleet
hub).  Per scope each scrape emits:

* every hub counter matching the scrape prefixes → a ``counter`` series
  of per-interval increases,
* every matching gauge → a ``gauge`` series of levels,
* every matching hub histogram → ``<name>.win_p50`` /
  ``<name>.win_p99`` / ``<name>.win_count`` quantile series over the
  observations that landed inside the interval,

then runs the scope's :class:`~repro.telemetry.alerts.AlertEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import SimulationError
from ..metrics.stats import latency_summary
from .alerts import AlertEngine
from .series import SeriesBank

__all__ = [
    "CAPACITY",
    "INTERVAL",
    "SCHEMA",
    "SCRAPE_PREFIXES",
    "TelemetryConfig",
    "TelemetrySampler",
]

#: Schema marker every ``<cell>.telemetry.json`` artifact carries.
SCHEMA = "repro.telemetry/1"

#: Metric-name prefixes scraped into series.  Deliberately the
#: health-relevant families, not the per-owner device/network tallies —
#: a per-NIC byte counter per node would swamp the artifact without
#: adding an alertable signal.
SCRAPE_PREFIXES = (
    "serve.",
    "fleet.",
    "faults.",
    "autoscale.",
    "telemetry.",
    "alert.",
)

#: Simulated seconds between sampling boundaries.
INTERVAL = 0.25

#: Points each series ring keeps (older points are dropped and counted).
CAPACITY = 512

_EPS = 1e-9


@dataclass(frozen=True)
class TelemetryConfig:
    """Attach the sampler + alert engine to a run (``ServeConfig`` /
    ``FleetSystem`` ``telemetry=``); its presence is the whole setting."""


class _Scope:
    """One scrape target: a MonitorHub."""

    __slots__ = ("label", "monitors", "bank", "engine",
                 "_prev_counters", "_prev_hist")

    def __init__(self, label, monitors, bank, engine):
        self.label = label
        self.monitors = monitors
        self.bank = bank
        self.engine = engine
        self._prev_counters: Dict[str, float] = {}
        self._prev_hist: Dict[str, int] = {}
        # Create the meta-counter up front so booking it during the
        # scrape never mutates the counter dict mid-iteration.
        monitors.counter("telemetry.samples")

    def sample(self, t: float) -> None:
        monitors = self.monitors
        bank = self.bank
        monitors.counter("telemetry.samples").add()
        for name, counter in monitors.counters.items():
            if not name.startswith(SCRAPE_PREFIXES):
                continue
            value = counter.value
            delta = value - self._prev_counters.get(name, 0.0)
            self._prev_counters[name] = value
            bank.series_for(name, "counter").append(t, delta)
        for name, gauge in monitors.gauges.items():
            if name.startswith(SCRAPE_PREFIXES):
                bank.series_for(name, "gauge").append(t, gauge.level)
        for name, hist in monitors.histograms.items():
            if not name.startswith(SCRAPE_PREFIXES):
                continue
            samples = hist.samples
            start = self._prev_hist.get(name, 0)
            self._prev_hist[name] = len(samples)
            digest = latency_summary(samples[start:])
            bank.series_for(name + ".win_p50", "quantile").append(t, digest.p50)
            bank.series_for(name + ".win_p99", "quantile").append(t, digest.p99)
            bank.series_for(name + ".win_count", "quantile").append(
                t, float(digest.count)
            )
        if self.engine is not None:
            self.engine.evaluate(t)
        monitors.gauge("telemetry.series").set(float(len(bank)))


class TelemetrySampler:
    """Scrapes every registered scope at each ``tick * INTERVAL``."""

    def __init__(self, env):
        self.env = env
        self.scopes: List[_Scope] = []
        self._tick = 0  # samples taken; next boundary is (tick + 1) * INTERVAL
        self._attached = False
        self._finalized_at: Optional[float] = None

    # -- wiring -----------------------------------------------------------------
    def add_scope(self, label, monitors, rules=(), active_until=None) -> _Scope:
        if any(s.label == label for s in self.scopes):
            raise SimulationError(f"duplicate telemetry scope {label!r}")
        bank = SeriesBank(capacity=CAPACITY)
        engine = None
        if rules:
            engine = AlertEngine(
                label, tuple(rules), bank, monitors=monitors,
                active_until=active_until,
            )
        scope = _Scope(label, monitors, bank, engine)
        self.scopes.append(scope)
        return scope

    def attach(self) -> None:
        """Arm the dispatch-loop boundary check."""
        if self._attached:
            raise SimulationError("sampler already attached")
        self.env.set_telemetry(self._fire, (self._tick + 1) * INTERVAL)
        self._attached = True

    # -- the dispatch-loop callback ---------------------------------------------
    def _fire(self, when: float) -> None:
        # Flush every boundary at or before the event about to dispatch;
        # state is constant since the previous event, so each boundary
        # observes exactly the state it would have seen live.
        nxt = (self._tick + 1) * INTERVAL
        while nxt <= when:
            self._sample(nxt)
            nxt = (self._tick + 1) * INTERVAL
        self.env._telemetry_next = nxt

    def _sample(self, t: float) -> None:
        for scope in self.scopes:
            scope.sample(t)
        self._tick += 1

    # -- lifecycle --------------------------------------------------------------
    def finalize(self, horizon: float) -> None:
        """Flush trailing boundaries up to ``horizon`` and detach."""
        if self._finalized_at is not None:
            return
        nxt = (self._tick + 1) * INTERVAL
        while nxt <= horizon + _EPS:
            self._sample(nxt)
            nxt = (self._tick + 1) * INTERVAL
        if self._attached:
            self.env.clear_telemetry()
            self._attached = False
        self._finalized_at = float(horizon)

    # -- reporting --------------------------------------------------------------
    @property
    def samples(self) -> int:
        return self._tick

    def summary_block(self) -> Dict[str, object]:
        """The deterministic ``summary["telemetry"]`` block."""
        scopes: Dict[str, object] = {}
        for scope in self.scopes:
            block: Dict[str, object] = {
                "series": len(scope.bank),
                "dropped": sum(s.dropped for s in scope.bank.series.values()),
            }
            if scope.engine is not None:
                block["alerts"] = {
                    "fired": scope.engine.fired_rules(),
                    "resolved": scope.engine.resolved_rules(),
                    "ledger": [dict(e) for e in scope.engine.ledger],
                }
            scopes[scope.label] = block
        return {
            "interval": INTERVAL,
            "samples": self._tick,
            "scopes": scopes,
        }

    def payload(self, label: str, meta: Optional[dict] = None) -> Dict[str, object]:
        """The ``<cell>.telemetry.json`` artifact document."""
        scopes: Dict[str, object] = {}
        for scope in self.scopes:
            series = {
                name: {
                    "kind": s.kind,
                    "dropped": s.dropped,
                    "points": [[t, v] for t, v in s.points()],
                }
                for name, s in sorted(scope.bank.series.items())
            }
            block: Dict[str, object] = {"series": series}
            if scope.engine is not None:
                block["alerts"] = {
                    "rules": [r.to_dict() for r in scope.engine.rules],
                    "ledger": [dict(e) for e in scope.engine.ledger],
                }
            scopes[scope.label] = block
        doc: Dict[str, object] = {
            "schema": SCHEMA,
            "label": label,
            "interval": INTERVAL,
            "samples": self._tick,
            "horizon": self._finalized_at,
            "scopes": scopes,
        }
        if meta:
            doc["meta"] = dict(meta)
        return doc
