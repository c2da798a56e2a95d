"""Collective operations over the simulated transport.

These mirror the mpi4py surface (bcast/scatter/gather/allgather/
reduce) but are implemented as explicit point-to-point message sets so
every byte is accounted on the links it actually crosses.  Linear
algorithms are used: with a star fabric the root's NIC is the
bottleneck either way, so trees would not change the simulated time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..sim import Environment
from .message import TAG_DATA
from .transport import Transport


class Collectives:
    """Collective messaging helpers bound to one transport."""

    def __init__(self, transport: Transport):
        self.transport = transport
        self.env: Environment = transport.env

    def broadcast(
        self,
        root: str,
        nodes: Sequence[str],
        size: float,
        payload: Any = None,
        tag: str = TAG_DATA,
    ):
        """Root sends ``size`` bytes to every other node; completes when
        the last delivery lands.  Returns a Process event."""

        def proc():
            sends = [
                self.transport.send(root, node, size, payload, tag=tag)
                for node in nodes
                if node != root
            ]
            if sends:
                yield self.env.all_of(sends)
            return None

        return self.env.process(proc(), name=f"bcast:{root}")

    def scatter(
        self,
        root: str,
        parts: Dict[str, tuple],
        tag: str = TAG_DATA,
    ):
        """Send a distinct (payload, size) to each destination node.

        ``parts`` maps node name -> (payload, size_bytes).
        """

        def proc():
            sends = []
            for node, (payload, size) in parts.items():
                if node == root:
                    continue
                sends.append(self.transport.send(root, node, size, payload, tag=tag))
            if sends:
                yield self.env.all_of(sends)
            return None

        return self.env.process(proc(), name=f"scatter:{root}")

    def gather(
        self,
        root: str,
        senders: Sequence[str],
        size_of: Callable[[str], float],
        payload_of: Optional[Callable[[str], Any]] = None,
        tag: str = TAG_DATA,
    ):
        """Every sender ships its part to root; the returned Process
        event's value is ``{sender: payload}`` in arrival order."""

        def proc():
            expected = [node for node in senders if node != root]
            for node in expected:
                payload = payload_of(node) if payload_of else None
                self.transport.send(node, root, size_of(node), payload, tag=tag)
            received: Dict[str, Any] = {}
            for _ in expected:
                msg = yield self.transport.recv(root, tag=tag)
                received[msg.src] = msg.payload
            return received

        return self.env.process(proc(), name=f"gather:{root}")

    def allgather(
        self,
        nodes: Sequence[str],
        size_of: Callable[[str], float],
        tag: str = TAG_DATA,
    ):
        """Every node sends its part to every other node (n·(n-1) msgs)."""

        def proc():
            sends = []
            for src in nodes:
                for dst in nodes:
                    if src != dst:
                        sends.append(
                            self.transport.send(src, dst, size_of(src), None, tag=tag)
                        )
            if sends:
                yield self.env.all_of(sends)
            return None

        return self.env.process(proc(), name="allgather")

    def reduce(
        self,
        root: str,
        contributions: Dict[str, tuple],
        combine: Callable[[Any, Any], Any],
        tag: str = TAG_DATA,
    ):
        """Each contributor sends (payload, size); root folds payloads
        with ``combine``.  Returns a Process whose value is the folded
        result (root's own contribution included if present)."""

        def proc():
            acc = None
            have_acc = False
            if root in contributions:
                acc = contributions[root][0]
                have_acc = True
            expected = [n for n in contributions if n != root]
            for node in expected:
                payload, size = contributions[node]
                self.transport.send(node, root, size, payload, tag=tag)
            for _ in expected:
                msg = yield self.transport.recv(root, tag=tag)
                if have_acc:
                    acc = combine(acc, msg.payload)
                else:
                    acc, have_acc = msg.payload, True
                del msg  # a folded part must not stay pinned across the next wait
            return acc

        return self.env.process(proc(), name=f"reduce:{root}")
