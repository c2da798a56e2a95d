"""The lifetime property: a finished cell frees itself.

Every way this repository builds a cell — a paper cell, a cold
pipeline with write-back, a serving cell per scheme, each library
scenario (chaos, recovery / hedging, autoscale, the TTL decision
cache) and a two-cell fleet with a crash and long-tail streams — must
be acyclic at the owner level: once the caller drops its handles,
plain reference counting frees the ``ParallelFileSystem``, its
``DataServer``s, their strip arrays and the ``ServeSystem`` /
``FleetSystem`` **with the cyclic collector switched off**.  That is
what makes the ``gc.disable()`` regions of ``bench_timer`` and
``bench/workloads.run_pass`` safe: peak RSS follows the largest single
cell instead of the sum of every cell that ran before it (see
docs/ARCHITECTURE.md, "Ownership and lifetime").

What the collector may still find afterwards is a small, bounded
residue, and none of it may reach an ``ndarray``.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.core import ActiveStorageClient, Pipeline
from repro.faults import RecoveryPolicy
from repro.fleet import Cell, FleetSystem, LongtailStream
from repro.harness.runs import run_cell
from repro.harness.serve_bench import serve_spec
from repro.hw import Cluster
from repro.pfs import ParallelFileSystem
from repro.pfs.dataserver import DataServer
from repro.scenarios import build_scenario, library_names, load_scenario, run_scenario
from repro.scenarios.loader import library_path
from repro.schemes import TraditionalScheme
from repro.serve import ServeSystem
from repro.sim import Environment
from repro.units import KiB
from repro.workloads import DatasetSpec, fractal_dem

#: Most cyclic garbage one finished cell may leave behind (objects).
#: Today every cell leaves none of its own; the one thing the collector
#: finds is ~300 stdlib closures (``inspect.signature`` /
#: ``ast.literal_eval``) the first time a scenario document is loaded.
#: The smallest leaked cell is several thousand objects.
RESIDUE_BOUND = 500

RASTER = (128, 192)


# -- the cells ----------------------------------------------------------------
def paper_cell(scheme):
    dataset = DatasetSpec(label_gb=24, rows=RASTER[0], cols=RASTER[1], seed=3)
    return run_cell(scheme, "gaussian", dataset, n_nodes=8)


def cold_cell():
    cluster = Cluster.build(n_compute=4, n_storage=4)
    pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
    dem = fractal_dem(*RASTER, rng=np.random.default_rng(5))
    pfs.client("c0").ingest("dem", dem, pfs.round_robin())
    pipeline = Pipeline(("flow-routing", "gaussian"))
    stages = cluster.run(
        until=pipeline.submit(ActiveStorageClient(pfs, home="c0"), "dem")
    )
    assert all(stage.offloaded for stage in stages)
    cluster.run(
        until=TraditionalScheme(pfs, write_back=True).run_operation(
            "gaussian", "dem", "dem.ts"
        )
    )
    return pfs.client("c0").collect("dem.ts").shape


def serve_cell(scheme):
    spec = dataclasses.replace(serve_spec(scheme, 1.0), duration=1.5)
    summary, _system = run_scenario(spec)
    return summary


def scenario_cell(name):
    spec = load_scenario(library_path(name))
    if name == "noisy-neighbor":
        # 3 s of median filtering at full length; the ownership graph
        # is complete after the first few requests.
        spec = dataclasses.replace(spec, duration=0.5)
    summary, _system = run_scenario(spec)
    return summary


def fleet_cell():
    env = Environment()
    base = serve_spec("DAS", 1.0)
    cells = []
    for i in range(2):
        spec = dataclasses.replace(
            base,
            topology=dataclasses.replace(base.topology, ingest="replicated"),
            duration=1.5,
            chaos="crash:s1@0.4;recover:s1@0.9" if i == 0 else None,
            recovery=RecoveryPolicy(
                rpc_timeout=0.25, max_attempts=2, backoff=0.02, hedge_delay=0.1
            )
            if i == 0
            else None,
            decision_ttl=1.0 if i == 0 else None,
        )
        pfs, config = build_scenario(spec, env=env)
        cells.append(Cell(f"cell-{i}", pfs, config))
    fleet = FleetSystem(
        env,
        cells,
        base.tenants,
        duration=1.5,
        deadline=base.deadline,
        longtail=tuple(
            LongtailStream(f"bg-{i}", f"cell-{i}", 4 * KiB, ((0.0, 20.0), (1.0, 0.0)))
            for i in range(2)
        ),
        longtail_capacity=256 * KiB,
    )
    summary = fleet.run()
    assert summary["routed"] == summary["generated"]
    return summary


CELLS = (
    [pytest.param(paper_cell, s, id=f"paper-{s}") for s in ("TS", "NAS", "DAS")]
    + [pytest.param(cold_cell, None, id="cold-pipeline-write-back")]
    + [pytest.param(serve_cell, s, id=f"serve-{s}") for s in ("TS", "NAS", "DAS")]
    + [pytest.param(scenario_cell, n, id=f"scenario-{n}") for n in library_names()]
    + [pytest.param(fleet_cell, None, id="fleet-crash-longtail")]
)


# -- the instrument -----------------------------------------------------------
@pytest.fixture
def born(monkeypatch):
    """Weak references to every owner a cell constructs: each PFS, one
    of its data servers, every run array placed at ingest, and each
    ServeSystem / FleetSystem."""
    refs = []

    def watch(cls, after=lambda self: None):
        init = cls.__init__

        def watched(self, *args, **kwargs):
            init(self, *args, **kwargs)
            refs.append((cls.__name__, weakref.ref(self)))
            after(self)

        monkeypatch.setattr(cls, "__init__", watched)

    watch(
        ParallelFileSystem,
        lambda pfs: refs.append(
            ("DataServer", weakref.ref(next(iter(pfs.servers.values()))))
        ),
    )
    watch(ServeSystem)
    watch(FleetSystem)

    preload = DataServer.preload

    def watched_preload(self, file, first, data):
        run = preload(self, file, first, data)
        refs.append(("run ndarray", weakref.ref(run)))
        return run

    monkeypatch.setattr(DataServer, "preload", watched_preload)
    return refs


@pytest.mark.parametrize("cell, arg", CELLS)
def test_finished_cell_is_freed_by_refcounting_alone(born, cell, arg):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # The result stays alive, as it does in the benches.
        result = cell() if arg is None else cell(arg)
        kinds = {kind for kind, _ in born}
        assert {"ParallelFileSystem", "DataServer", "run ndarray"} <= kinds
        if cell in (serve_cell, scenario_cell):
            assert "ServeSystem" in kinds
        if cell is fleet_cell:
            assert "FleetSystem" in kinds
        alive = [kind for kind, ref in born if ref() is not None]
        assert not alive, f"still resident with the collector off: {sorted(set(alive))}"

        # What is left for the collector is small and holds no arrays.
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            residue = gc.collect()
            arrays = [
                type(holder).__name__
                for holder in gc.garbage
                for held in gc.get_referents(holder)
                if isinstance(held, np.ndarray)
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert residue <= RESIDUE_BOUND
        assert not arrays, f"cyclic garbage reaches ndarrays through {arrays}"
        assert result is not None
    finally:
        if was_enabled:
            gc.enable()
