"""Disk model: positioning time + streaming bandwidth, one arm.

Each storage node owns one :class:`Disk`.  An I/O charges one seek
(positioning) plus ``size / bandwidth`` of streaming time, serialised
with other I/Os on the same disk.  Sequential batching is therefore
rewarded — issuing one large read is cheaper than many small ones,
matching the real systems the paper builds on.
"""

from __future__ import annotations

from ..config import PlatformSpec
from ..errors import SimulationError
from ..sim import Environment, Resource
from ..sim.events import Event, Timeout
from ..sim.monitor import MonitorHub
from ..sim.resources import Request


class Disk:
    """One disk (arm + platters) attached to a storage node."""

    def __init__(
        self,
        env: Environment,
        owner: str,
        spec: PlatformSpec,
        monitors: MonitorHub,
    ):
        if spec.disk_bandwidth <= 0:
            raise SimulationError("disk bandwidth must be positive")
        self.env = env
        self.owner = owner
        self.bandwidth = float(spec.disk_bandwidth)
        self.seek = float(spec.disk_seek)
        self.monitors = monitors
        self.arm = Resource(env, capacity=1)
        #: Throughput multiplier in (0, 1]; < 1 models a degraded disk
        #: (failing sectors, RAID rebuild).  Set via :meth:`degrade`.
        self._health = 1.0
        # Lazily-bound (per-disk, per-op-total) counter pairs; created
        # at first use so hub creation order matches uncached lookups.
        self._op_counters: dict = {}

    @property
    def health(self) -> float:
        return self._health

    def degrade(self, factor: float) -> None:
        """Scale streaming throughput by ``factor`` (fault injection)."""
        if not 0.0 < factor <= 1.0:
            raise SimulationError(
                f"disk degradation factor must be in (0, 1], got {factor!r}"
            )
        self._health = float(factor)

    def restore(self) -> None:
        """Return the disk to full throughput."""
        self._health = 1.0

    def io_seconds(self, size: float) -> float:
        return self.seek + size / (self.bandwidth * self._health)

    def read(self, size: float):
        """Event: read ``size`` bytes (seek + stream); value is ``size``."""
        return self._io(size, "read")

    def write(self, size: float):
        """Event: write ``size`` bytes (seek + stream); value is ``size``."""
        return self._io(size, "write")

    def _io(self, size: float, op: str) -> Event:
        # Hand-built event chain (grant -> service timeout -> release)
        # instead of a generator process: one I/O costs three scheduled
        # events, not four plus generator machinery.  Push order within
        # the completion instant — next-waiter grant, booking, then the
        # done event — matches the old `with request(): yield timeout`
        # form exactly, so event streams are unchanged.
        if size < 0:
            raise SimulationError(f"negative I/O size {size!r}")
        env = self.env
        done = Event(env)
        arm = self.arm

        def on_grant(_e: Event) -> None:
            # Duration is priced at grant time: health may have changed
            # (fault injection) while the request sat in the arm queue.
            seconds = self.io_seconds(size)
            start = env.now

            def on_fire(_e: Event) -> None:
                arm.release(req)
                counters = self._op_counters.get(op)
                if counters is None:
                    monitors = self.monitors
                    counters = self._op_counters[op] = (
                        monitors.counter(f"disk.{op}.{self.owner}"),
                        monitors.counter(f"disk.{op}_total"),
                    )
                counters[0].add(size)
                counters[1].add(size)
                monitors = self.monitors
                tracer = monitors.tracer
                if tracer.enabled:
                    tracer.begin(
                        op, cat="disk", track=monitors.lane + self.owner,
                        at=start, size=size,
                    ).finish()
                done.succeed(size)

            timer = Timeout(env, seconds)
            timer.callbacks.append(on_fire)

        req = Request(arm)
        req.callbacks.append(on_grant)
        return done
