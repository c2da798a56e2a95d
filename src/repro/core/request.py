"""Active-storage request/response records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .decision import OffloadDecision

#: Transport tag for active-storage control traffic.
TAG_AS = "as"

#: Wire size of an exec request / completion report (control plane).
EXEC_REQUEST_BYTES = 256
EXEC_REPLY_BYTES = 256

#: Per-member descriptor appended to a *batched* exec request: the
#: header is paid once per message, each extra rider adds only this.
EXEC_ITEM_BYTES = 32


def exec_request_wire_size(batch: int) -> int:
    """On-wire size of an exec request carrying ``batch`` merged requests."""
    return EXEC_REQUEST_BYTES + EXEC_ITEM_BYTES * (max(1, batch) - 1)


@dataclass(frozen=True)
class ActiveRequest:
    """One application-level active-storage operation."""

    #: Operator name (must be registered in the kernel registry and
    #: have a Kernel Features record).
    operator: str
    #: Input PFS file.
    file: str
    #: Output PFS file to create (same size/dtype as the input).
    output: str
    #: Successive operations expected to share the dependence pattern
    #: (drives redistribution amortisation, paper Fig. 3).
    pipeline_length: int = 1
    #: Maintain replicas of the output when the layout keeps replicas,
    #: so the next pipeline stage finds its halo local.
    replicate_output: bool = True


@dataclass
class ServerExecStats:
    """Per-server execution report returned by an AS helper."""

    server: str
    runs: int = 0
    elements: int = 0
    halo_bytes_remote: int = 0
    halo_bytes_local: int = 0


@dataclass
class ActiveResult:
    """Outcome of one request submitted to the Active Storage Client."""

    request: ActiveRequest
    decision: OffloadDecision
    #: True when served as active storage (False = fell back to normal I/O;
    #: the caller is expected to run the client-side path).
    offloaded: bool
    #: Simulated seconds from submission to completion.
    elapsed: float = 0.0
    #: Wire bytes moved by the redistribution step (0 if none).
    redistribution_bytes: int = 0
    per_server: Dict[str, ServerExecStats] = field(default_factory=dict)

    @property
    def total_remote_halo_bytes(self) -> int:
        return sum(s.halo_bytes_remote for s in self.per_server.values())

    @property
    def total_elements(self) -> int:
        return sum(s.elements for s in self.per_server.values())
