"""Switch fabric connecting the cluster's NICs (star topology).

High-end clusters interconnect compute and storage partitions through a
switched fabric whose bisection bandwidth normally exceeds any single
NIC, so the default fabric is non-blocking (it only adds the port
latency).  A bisection bandwidth can be set to model an oversubscribed
switch (the ``ext-oversub`` experiment).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from ..errors import LinkDownError, NetworkError, RoutingError
from ..sim import Environment
from .fluid import FluidScheduler
from .nic import NIC


#: Name of the shared cross-partition link (when oversubscribed).
BISECTION_LINK = "fabric.bisection"


class Fabric:
    """Registry of NICs + the fluid bandwidth scheduler they share.

    Optionally models an oversubscribed switch: when a bisection
    bandwidth is set, every flow between nodes of *different partitions*
    (compute vs storage) additionally traverses one shared
    :data:`BISECTION_LINK`, so cross-partition traffic contends for the
    switch uplinks the way it does on real oversubscribed fabrics.
    Intra-partition traffic (e.g. server-to-server halo exchange through
    leaf switches) is unaffected.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._nics: Dict[str, NIC] = {}
        self._partitions: Dict[str, str] = {}
        self.fluid = FluidScheduler(env)
        self._bisection = False
        #: Cut node pairs (unordered): traffic between them fails until
        #: healed.  Fault injection for partitions and flapping links.
        self._cuts: Set[FrozenSet[str]] = set()

    def attach(self, nic: NIC, partition: str = "") -> None:
        if nic.owner in self._nics:
            raise NetworkError(f"a NIC named {nic.owner!r} is already attached")
        self._nics[nic.owner] = nic
        self._partitions[nic.owner] = partition
        self.fluid.add_link(nic.tx_link, nic.bandwidth)
        self.fluid.add_link(nic.rx_link, nic.bandwidth)

    def set_bisection_bandwidth(self, bandwidth: float) -> None:
        """Enable the oversubscribed-switch model (0 disables it)."""
        if self._bisection:
            raise NetworkError("bisection bandwidth already configured")
        if bandwidth > 0:
            self.fluid.add_link(BISECTION_LINK, bandwidth)
            self._bisection = True

    def crosses_partitions(self, src: str, dst: str) -> bool:
        return (
            self._partitions.get(src, "") != self._partitions.get(dst, "")
        )

    # -- fault injection: pairwise partitions --------------------------------
    def cut(self, a: str, b: str) -> None:
        """Partition the path between ``a`` and ``b`` (both directions)."""
        self.nic_of(a), self.nic_of(b)  # validate endpoints
        self._cuts.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Restore a previously cut path (no-op when not cut)."""
        self._cuts.discard(frozenset((a, b)))

    def link_up(self, a: str, b: str) -> bool:
        """True iff the path between ``a`` and ``b`` is not cut."""
        return not self._cuts or frozenset((a, b)) not in self._cuts

    def transfer(self, src: str, dst: str, size: float):
        """Start a fluid flow src->dst; the returned event succeeds when
        the bytes have drained through every link on the path."""
        if not self.link_up(src, dst):
            raise LinkDownError(f"link {src!r}<->{dst!r} is cut")
        src_nic = self.nic_of(src)
        dst_nic = self.nic_of(dst)
        links = [src_nic.tx_link, dst_nic.rx_link]
        if self._bisection and self.crosses_partitions(src, dst):
            links.append(BISECTION_LINK)
        return self.fluid.start(tuple(links), size)

    def nic_of(self, node: str) -> NIC:
        try:
            return self._nics[node]
        except KeyError:
            raise RoutingError(f"no NIC attached for node {node!r}") from None

    def nodes(self):
        return list(self._nics)

    def __contains__(self, node: str) -> bool:
        return node in self._nics

    def __len__(self) -> int:
        return len(self._nics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Fabric nodes={len(self._nics)} bisection={self._bisection}>"
