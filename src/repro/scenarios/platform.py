"""How a cell is materialised: cluster construction and ingest placement.

The paper's testbed allocates N nodes and configures half as storage
nodes, half as compute nodes ("the default ratio is 1:1.  With this
configuration, NAS, DAS and TS would have the same computation
capability").  :func:`build_platform` reproduces that split.

Ingest policy: files feeding TS and NAS runs are striped round-robin
(the parallel-file-system default the paper evaluates).  Files feeding
DAS runs are placed in the optimizer's improved distribution at ingest
— data written *through* the DAS layer is arranged for its expected
operations ("the dynamic active storage calculates an appropriate data
distribution method ... and arranges the data"), so the measured
operation does not pay a redistribution it would only pay once per
dataset lifetime.  The cold-start case (round-robin data adopted by
DAS at first use) is measured separately by the ablation benches.

Serving cells run on a deliberately throttled preset
(:data:`SERVE_SPEC`, :data:`SERVE_STRIP`) and place their files under
one of three :data:`INGEST_POLICIES` (:func:`ingest_files`).  This
module is the single home of those decisions — RNG draw order included
— so everything above it (:func:`~repro.scenarios.build_scenario`, the
harness benches) describes cells instead of constructing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import PlatformSpec, SimConfig
from ..core import KernelFeatures, LayoutOptimizer
from ..errors import HarnessError
from ..hw.cluster import Cluster
from ..pfs.filesystem import ParallelFileSystem
from ..pfs.layout import RoundRobinLayout
from ..units import KiB, MiB, us
from ..workloads import fractal_dem

#: PFS strip size of the serving cells.
SERVE_STRIP = 4 * KiB

#: Throttled platform: a few requests/second saturate 4 storage nodes,
#: so queueing dynamics appear at simulable request counts.  Ratios
#: (NIC below disk, kernels cheap per element vs. moving the element)
#: match the paper's premise.
SERVE_SPEC = PlatformSpec(
    nic_bandwidth=4 * MiB,
    nic_latency=500 * us,
    rpc_overhead=200 * us,
    disk_bandwidth=16 * MiB,
    kernel_cost={
        "default": 16e-6,
        "flow-routing": 24e-6,
        "flow-accumulation": 32e-6,
        "gaussian": 40e-6,
    },
)

#: Ingest placement policies :func:`ingest_files` understands.
INGEST_POLICIES = ("scheme", "replicated", "partition")


@dataclass(frozen=True)
class ExperimentPlatform:
    """Everything fixed across one experiment's runs."""

    spec: PlatformSpec = field(default_factory=PlatformSpec)
    strip_size: int = 64 * KiB
    seed: int = 20120910


def node_split(n_nodes: int) -> Tuple[int, int]:
    """``(n_compute, n_storage)`` of an ``n_nodes`` cluster: the paper's
    1:1 ratio, storage rounded half to even and never below one node.
    Every cluster a cell builds, and every node name or count a scenario
    document is checked against, comes from this split."""
    n_storage = max(1, round(n_nodes * 0.5))
    return n_nodes - n_storage, n_storage


def build_platform(
    n_nodes: int,
    platform: Optional[ExperimentPlatform] = None,
    env=None,
) -> Tuple[Cluster, ParallelFileSystem]:
    """A cluster of ``n_nodes`` with the paper's storage/compute split.

    ``env`` threads a shared :class:`~repro.sim.Environment` through to
    :meth:`Cluster.build` so several platforms (fleet cells) can live on
    one simulation clock; the default builds a fresh environment.
    """
    platform = platform or ExperimentPlatform()
    n_compute, n_storage = node_split(n_nodes)
    if n_compute < 1:
        raise HarnessError(f"{n_nodes} nodes leave no compute partition")
    cluster = Cluster.build(
        n_compute=n_compute,
        n_storage=n_storage,
        spec=platform.spec,
        sim_config=SimConfig(seed=platform.seed, strip_size=platform.strip_size),
        env=env,
    )
    pfs = ParallelFileSystem(cluster, strip_size=platform.strip_size)
    return cluster, pfs


def ingest_for_scheme(
    pfs: ParallelFileSystem,
    scheme: str,
    name: str,
    data: np.ndarray,
    operator: str,
    servers: Optional[Sequence[str]] = None,
) -> None:
    """Place ``data`` the way the scheme's I/O stack would have.

    ``servers`` confines the placement to a subset of the storage
    servers, so a cell can start on the small partition the way a
    cost-conscious deployment would; the default is every server.
    """
    client = pfs.client(pfs.cluster.compute_names[0])
    servers = list(servers or pfs.server_names)
    layout = RoundRobinLayout(servers, pfs.strip_size)
    if scheme == "DAS":
        # DAS-aware ingest: plan the improved distribution up front.
        meta = pfs.metadata.create(
            f"__plan__{name}", data.nbytes, layout, dtype=data.dtype,
            shape=data.shape,
        )
        features = KernelFeatures.from_registry()
        plan = LayoutOptimizer().plan(meta, features.get(operator), servers=servers)
        pfs.metadata.unlink(f"__plan__{name}")
        if plan.layout is not None:
            layout = plan.layout
    client.ingest(name, data, layout)


def replicated_ingest(pfs, name: str, data: np.ndarray) -> None:
    """Ingest ``data`` fully neighbour-replicated: one group per server
    with ``halo_strips == group``, so every strip lives on its primary
    and both neighbouring servers and any single crash is survivable."""
    n_strips = max(1, math.ceil(data.nbytes / pfs.strip_size))
    group = max(1, math.ceil(n_strips / len(pfs.server_names)))
    layout = pfs.replicated_grouped(group, halo_strips=group)
    pfs.client(pfs.cluster.compute_names[0]).ingest(name, data, layout)


def ingest_files(
    pfs,
    scheme: str,
    rng: np.random.Generator,
    policy: str,
    names: Sequence[str],
    raster: Tuple[int, int],
    operator: str,
    servers: Optional[Sequence[str]] = None,
) -> None:
    """Generate and place each file under one placement policy.

    ``"scheme"`` places the way the scheme's I/O stack would have
    (round-robin for TS/NAS, the optimizer's improved distribution for
    DAS); ``"replicated"`` uses :func:`replicated_ingest` (survives any
    single crash); ``"partition"`` plans the DAS distribution over the
    ``servers`` subset.  One raster is drawn from ``rng`` per name, in
    order — the exact draw sequence the committed baselines pin.
    """
    if policy not in INGEST_POLICIES:
        raise HarnessError(
            f"unknown ingest policy {policy!r} (expected one of {INGEST_POLICIES})"
        )
    if policy == "partition" and not servers:
        raise HarnessError("ingest policy 'partition' needs a server subset")
    for name in names:
        data = fractal_dem(*raster, rng=rng)
        if policy == "scheme":
            ingest_for_scheme(pfs, scheme, name, data, operator)
        elif policy == "replicated":
            replicated_ingest(pfs, name, data)
        else:
            ingest_for_scheme(pfs, "DAS", name, data, operator, servers)
