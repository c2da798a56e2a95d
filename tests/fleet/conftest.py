"""Shared fleet fixtures: small cells on one shared clock."""

from __future__ import annotations

import pytest

from repro.fleet import Cell
from repro.scenarios import ScenarioSpec, TopologySpec, build_scenario
from repro.serve import ServeRequest, TenantSpec

TENANTS = (
    TenantSpec("alpha", rate=4.0, weight=2.0, kernels=("gaussian",), files=("dem_a",)),
    TenantSpec("beta", rate=2.0, weight=1.0, kernels=("gaussian",), files=("dem_b",)),
)


def make_platform(
    env,
    name,
    tenants=TENANTS,
    queue_capacity=4,
    concurrency=2,
    duration=2.0,
    files=("dem_a", "dem_b"),
):
    """``(pfs, config)`` of one small cell (4 nodes) on ``env``."""
    spec = ScenarioSpec(
        name=name,
        description="fleet test cell",
        topology=TopologySpec(nodes=4, ingest="replicated", files=files),
        tenants=tenants,
        duration=duration,
        deadline=1.0,
        queue_capacity=queue_capacity,
        concurrency=concurrency,
    )
    return build_scenario(spec, env=env)


def make_cell(env, name, **kw):
    """One small serving cell on the shared fleet clock."""
    return Cell(name, *make_platform(env, name, **kw))


def make_request(req_id, tenant="alpha", file="dem_a", deadline=10.0):
    return ServeRequest(
        req_id=req_id,
        tenant=tenant,
        operator="gaussian",
        file=file,
        arrival=0.0,
        deadline=deadline,
        cost=0,
    )


@pytest.fixture
def cell_pair(env):
    return [make_cell(env, "cell-0"), make_cell(env, "cell-1")]
