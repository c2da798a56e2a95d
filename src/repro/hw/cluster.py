"""Cluster builder: environment + fabric + nodes in one object.

This is the root object experiments construct first::

    cluster = Cluster.build(n_compute=12, n_storage=12)
    ... attach a PFS, run schemes ...
    cluster.run()

The node partition mirrors the paper's testbed: storage nodes are
deployed separately from compute nodes ("the first model", Section
III-A), connected by a switched fabric.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import PlatformSpec, SimConfig
from ..errors import SimulationError
from ..net import Fabric, Transport
from ..sim import Environment, MonitorHub, RandomStreams
from .node import KIND_COMPUTE, KIND_STORAGE, Node


class Cluster:
    """A simulated cluster: nodes, fabric, transport and monitors."""

    def __init__(
        self,
        env: Environment,
        spec: PlatformSpec,
        sim_config: SimConfig,
        monitors: MonitorHub,
    ):
        self.env = env
        self.spec = spec
        self.sim_config = sim_config
        self.monitors = monitors
        self.rand = RandomStreams(sim_config.seed)
        self.fabric = Fabric(env)
        if spec.bisection_bandwidth > 0:
            self.fabric.set_bisection_bandwidth(spec.bisection_bandwidth)
        self.transport = Transport(env, self.fabric, monitors, spec.rpc_overhead)
        self._nodes: Dict[str, Node] = {}

    # -- construction -----------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_compute: int,
        n_storage: int,
        spec: Optional[PlatformSpec] = None,
        sim_config: Optional[SimConfig] = None,
        env: Optional[Environment] = None,
    ) -> "Cluster":
        """Create a cluster with ``n_compute`` compute nodes (named
        ``c0..``) and ``n_storage`` storage nodes (named ``s0..``).

        ``env`` lets several clusters share one simulation clock (the
        fleet layer builds N cells on a single :class:`Environment`);
        when omitted each cluster gets its own fresh environment.
        """
        if n_compute < 0 or n_storage <= 0:
            raise SimulationError(
                f"need >= 0 compute and >= 1 storage nodes, got {n_compute}/{n_storage}"
            )
        spec = spec or PlatformSpec()
        sim_config = sim_config or SimConfig()
        env = env if env is not None else Environment()
        monitors = MonitorHub(env)
        cluster = cls(env, spec, sim_config, monitors)
        for i in range(n_compute):
            cluster.add_node(f"c{i}", KIND_COMPUTE)
        for i in range(n_storage):
            cluster.add_node(f"s{i}", KIND_STORAGE)
        return cluster

    def add_node(self, name: str, kind: str) -> Node:
        if name in self._nodes:
            raise SimulationError(f"node {name!r} already exists")
        node = Node(self.env, name, kind, self.spec, self.monitors)
        self._nodes[name] = node
        self.fabric.attach(node.nic, partition=kind)
        return node

    # -- lookup ---------------------------------------------------------------------
    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise SimulationError(f"no node named {name!r}") from None

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    @property
    def compute_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.is_compute]

    @property
    def storage_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.is_storage]

    @property
    def storage_names(self) -> List[str]:
        return [n.name for n in self.storage_nodes]

    @property
    def compute_names(self) -> List[str]:
        return [n.name for n in self.compute_nodes]

    @property
    def home_name(self) -> str:
        """Where a cluster-wide client lives: the first compute node,
        else (an all-storage cluster) the first storage node."""
        names = self.compute_names
        return names[0] if names else self.storage_names[0]

    # -- running ----------------------------------------------------------------------
    def run(self, until=None):
        """Run the simulation (delegates to the environment)."""
        return self.env.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cluster compute={len(self.compute_nodes)}"
            f" storage={len(self.storage_nodes)} t={self.env.now:.3f}>"
        )
