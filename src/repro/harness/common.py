"""Shared plumbing for the benches: timing and duration scaling.

How a serving cell is *built* is not here — every bench states its
cells as :class:`~repro.scenarios.ScenarioSpec` values and
:func:`~repro.scenarios.build_scenario` materialises them; how a cell
is *replayed* (verify / traced / sampled) lives in
:mod:`~repro.harness.replays`.  This module keeps what is left: the
wall-clock + engine-event timer every ``BENCH_*.json`` payload is
stamped with and the ``scale`` -> duration convention.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from ..sim.core import events_dispatched_total
from ..units import KiB


@dataclass
class BenchTiming:
    """Wall-clock and engine-event accounting for one timed bench region.

    ``wall_seconds`` is host time and varies run to run;
    ``events_dispatched`` is the number of simulation events the engine
    processed inside the region and is exactly reproducible — together
    they give ``events_per_wall_second``, the engine-throughput figure
    every ``BENCH_*.json`` payload records (see docs/BENCHMARKS.md).
    """

    wall_seconds: float = 0.0
    events_dispatched: int = 0

    @property
    def events_per_wall_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_dispatched / self.wall_seconds


@contextmanager
def bench_timer(quiesce_gc: bool = True) -> Iterator[BenchTiming]:
    """Time a bench region; yields a :class:`BenchTiming` filled on exit.

    With ``quiesce_gc`` (the default) the cyclic garbage collector is
    collected once up front and then disabled for the region, because
    nothing in the region needs it: cells are acyclic at the owner
    level (no suspended loop, timer or hook is the only thing keeping
    its owner alive), so a finished cell's PFS, data servers and strip
    arrays are freed by reference counting the moment the caller drops
    it, and letting the cycle detector walk the event arenas mid-run
    costs ~10% wall for nothing.  That rule is enforced, cell kind by
    cell kind, by ``tests/integration/test_cell_lifetime.py``; while it
    did not hold, this switch kept every finished cell resident until
    exit (3.9 GB in fig12).  Simulated results are bit-identical either
    way.  The collector is re-enabled on exit, even on error.
    """
    timing = BenchTiming()
    restore_gc = quiesce_gc and gc.isenabled()
    if restore_gc:
        gc.collect()
        gc.disable()
    events_before = events_dispatched_total()
    begin = time.perf_counter()
    try:
        yield timing
    finally:
        timing.wall_seconds = time.perf_counter() - begin
        timing.events_dispatched = events_dispatched_total() - events_before
        if restore_gc:
            gc.enable()


def scaled_duration(scale: Optional[float], base: float, floor: float) -> float:
    """Map the harness ``scale`` convention onto a cell duration.

    ``scale`` is "simulated bytes per paper GB"; the default 1 MiB gives
    ``base`` seconds per cell and smaller scales shorten the run
    proportionally, never below ``floor``.
    """
    if scale is None:
        return base
    return max(floor, base * float(scale) / (1024 * KiB))
