"""The four workloads, and what one pass over a workload is.

A pass runs the workload's cells back to back in this process, single
thread, with the cyclic GC collected and then disabled (the simulator
churns short-lived events refcounting already reclaims; a collector
walk mid-pass is wall noise, not work).  One op is one cell plus its
assertions; at the default seed the functional CRCs pinned in
bench/expected.json are asserted too.
"""

from __future__ import annotations

import gc
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.sim.core import events_dispatched_total
from repro.workloads import dataset_for_label

from . import cells
from . import platform as P
from .cells import TALLY_KEYS, CellResult

EXPECTED_PATH = Path(__file__).parent / "expected.json"

#: name -> one line on why the workload exists (also in BENCHMARK.json).
WORKLOADS = {
    "paper_grid": (
        "Fig. 11 grid on a 7.5 MiB raster: host time is dataset synthesis,"
        " NumPy kernels and reference checks; under 100k engine events"
    ),
    "serve_sweep": (
        "six ServeSystem cells on tiny rasters: pure-Python sim/net/pfs/serve"
        " work; kernel and dataset changes must show no change here"
    ),
    "cold_pipeline": (
        "the PFS used the other way: redistribution, replicated stage outputs"
        " and client write-back over 3 strip sizes x 2 cluster sizes"
    ),
    "scenario_mix": (
        "five frozen scenario documents, their fault-free twins and a two-cell"
        " fleet run: the only load on faults, autoscale, fleet, scenarios, alerts"
    ),
}

CellFn = Callable[[object], CellResult]


def cells_of(workload: str, seed: int) -> List[Tuple[str, CellFn]]:
    """The workload's cells in running order, as ``(label, fn(rec))``."""
    if workload == "paper_grid":
        dataset = dataset_for_label(P.GRID_LABEL_GB, scale=P.GRID_SCALE, seed=seed)
        return [
            (
                f"{kernel}/{scheme}",
                lambda rec, s=scheme, k=kernel: cells.paper_cell(rec, s, k, dataset),
            )
            for kernel in P.GRID_KERNELS
            for scheme in P.GRID_SCHEMES
        ]
    if workload == "serve_sweep":
        return [
            (
                f"{scheme}_x{load:g}_b{batch}",
                lambda rec, s=scheme, l=load, b=batch: cells.serve_cell(
                    rec, s, l, b, seed
                ),
            )
            for scheme, load, batch in P.SERVE_CELLS
        ]
    if workload == "cold_pipeline":
        return [
            (
                f"strip{strip // 1024}k/{nodes}n",
                lambda rec, st=strip, n=nodes: cells.cold_cell(rec, st, n, seed),
            )
            for strip, nodes in P.COLD_CELLS
        ]
    if workload == "scenario_mix":
        out: List[Tuple[str, CellFn]] = [
            (f"scenario:{name}", lambda rec, n=name: cells.scenario_cell(rec, n))
            for name in P.SCENARIOS
        ]
        out.append(("fleet", lambda rec: cells.fleet_cell(rec, seed)))
        return out
    raise ValueError(f"unknown workload {workload!r}; pick from {sorted(WORKLOADS)}")


@dataclass
class PassResult:
    wall_s: float
    results: List[CellResult]

    @property
    def sim_time_s(self) -> float:
        return sum(r.sim_time for r in self.results)

    @property
    def sim_wire_mb(self) -> float:
        return sum(r.tally["wire"] for r in self.results) / 1e6

    @property
    def events(self) -> int:
        return sum(r.events for r in self.results)

    @property
    def failures(self) -> List[str]:
        return [f for r in self.results for f in r.failures]

    @property
    def failed_ops(self) -> int:
        return sum(1 for r in self.results if r.failures)

    def exact(self) -> Dict[str, object]:
        """Everything that must repeat bit for bit at one seed."""
        return {
            "sim_time_s": self.sim_time_s,
            "sim_wire_mb": self.sim_wire_mb,
            "events": self.events,
            "crcs": {k: v for r in self.results for k, v in r.crcs.items()},
        }


def load_expected() -> Dict[str, Dict[str, int]]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["crcs"]


def run_pass(workload: str, seed: int, rec) -> PassResult:
    """One pass: every cell once, assertions included."""
    pinned = load_expected().get(workload, {}) if seed == P.DEFAULT_SEED else {}
    results: List[CellResult] = []
    gc.collect()
    gc.disable()
    try:
        begin = time.perf_counter()
        with rec.span("pass", workload=workload):
            for label, fn in cells_of(workload, seed):
                before = events_dispatched_total()
                with rec.span("cell", label=label):
                    try:
                        result = fn(rec)
                    except Exception:
                        # A cell that raises is a failed op, not a dead run:
                        # the other cells still report.
                        result = CellResult(
                            label,
                            0.0,
                            dict.fromkeys(TALLY_KEYS, 0.0),
                            failures=[f"{label}: raised\n{traceback.format_exc()}"],
                        )
                    for key, value in result.crcs.items():
                        if pinned and pinned.get(key) != value:
                            result.failures.append(
                                f"{key}: CRC {value} != pinned {pinned.get(key)}"
                            )
                result.cell = len(results) + 1
                result.events = events_dispatched_total() - before
                results.append(result)
        wall = time.perf_counter() - begin
    finally:
        gc.enable()
    return PassResult(wall, results)
