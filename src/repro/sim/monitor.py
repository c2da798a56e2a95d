"""Instrumentation: counters, time-weighted gauges and histograms.

Every byte that crosses a simulated link and every second a device is
busy is tallied here; the benchmark harness reads these monitors to
produce the paper's bandwidth and utilisation numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..obs.span import NULL_TRACER
from .core import Environment

if TYPE_CHECKING:
    from ..metrics.registry import Histogram


class Counter:
    """A monotonically increasing tally (bytes sent, requests served...).

    Deliberately a bare slotted class, not a dataclass: ``add`` runs for
    every byte-accounting touch on the hot path, so the object is two
    plain attribute bumps and nothing else.
    """

    __slots__ = ("name", "value", "events")

    def __init__(self, name: str, value: float = 0.0, events: int = 0):
        self.name = name
        self.value = value
        self.events = events

    def add(self, amount: float = 1.0) -> None:
        self.value += amount
        self.events += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter(name={self.name!r}, value={self.value!r}, events={self.events!r})"


class Gauge:
    """A time-weighted level (queue depth, busy servers).

    ``time_average(now)`` integrates the level over time, which is the
    correct way to report mean utilisation from a DES.
    """

    __slots__ = ("env", "name", "_level", "_area", "_last_change", "_peak")

    def __init__(self, env: Environment, name: str, initial: float = 0.0):
        self.env = env
        self.name = name
        self._level = initial
        self._area = 0.0
        self._last_change = env.now
        self._peak = initial

    @property
    def level(self) -> float:
        return self._level

    @property
    def peak(self) -> float:
        return self._peak

    def set(self, level: float) -> None:
        now = self.env.now
        self._area += self._level * (now - self._last_change)
        self._last_change = now
        self._level = level
        if level > self._peak:
            self._peak = level

    def adjust(self, delta: float) -> None:
        self.set(self._level + delta)

    def time_average(self, now: Optional[float] = None) -> float:
        if now is None:
            now = self.env.now
        total = self._area + self._level * (now - self._last_change)
        return total / now if now > 0 else self._level


class MonitorHub:
    """Central registry of a run's counters, gauges and histograms.

    Counters and gauges are create-on-first-use under any name (the
    ``verify counters`` gate lints them against the declared catalog
    after the fact); a histogram's first booking is checked against
    that catalog up front.  Device time is not recorded here: CPUs and
    disks book their busy intervals as spans on :attr:`tracer`.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, "Histogram"] = {}
        # Request tracer hook: the falsy NULL_TRACER unless a run
        # installs a live repro.obs.Tracer.  Imported at module level
        # from obs, which depends on nothing in repro.sim.
        self.tracer = NULL_TRACER
        #: Prefix of the device tracks this hub's nodes record on; set
        #: when several clusters share one tracer (a fleet cell's name),
        #: so every cell's ``s0`` keeps a lane of its own.
        self.lane = ""

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = Counter(name)
            self.counters[name] = c
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = Gauge(self.env, name)
            self.gauges[name] = g
        return g

    def histogram(self, name: str) -> "Histogram":
        """The histogram ``name``, created at its first booking — which
        raises unless the catalog declares ``name`` a histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            # repro.metrics builds on the simulator, so it is imported
            # here, once per histogram name, not at module level.
            from ..metrics.registry import HISTOGRAM, Histogram, require

            require(name, HISTOGRAM)
            hist = self.histograms[name] = Histogram(name)
        return hist

    def counter_total(self, prefix: str) -> float:
        """Sum of all counters whose name starts with ``prefix``."""
        return sum(c.value for name, c in self.counters.items() if name.startswith(prefix))

    def snapshot(self) -> Dict[str, float]:
        """All counter values, for end-of-run reporting."""
        return {name: c.value for name, c in self.counters.items()}

    def reset(self) -> None:
        """Clear every counter, gauge and histogram, and the tracer hook.

        Gauges restart at level 0 *from the current clock* — the
        accumulated time-weighted area is discarded, so a hub reused
        across back-to-back runs reports each run's own averages.
        """
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.tracer = NULL_TRACER

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MonitorHub counters={len(self.counters)} gauges={len(self.gauges)}"
            f" histograms={len(self.histograms)}>"
        )
