"""Dynamic Active Storage (DAS) — the paper's proposal.

The full Fig. 3 workflow: consult the decision engine; on acceptance,
optionally reconfigure the file distribution (improved layout with
boundary replication) and offload; on rejection, fall back to serving
the operation as normal I/O on the compute nodes (the TS path) — "the
request will be served as in normal instead of as an active storage
request".
"""

from __future__ import annotations

from typing import Optional

from ..core.das_client import ActiveStorageClient
from ..core.decision import DecisionEngine
from ..core.request import ActiveRequest
from ..errors import OffloadRejectedError
from .base import Scheme
from .traditional import TraditionalScheme


class DynamicActiveStorageScheme(Scheme):
    """Predict, decide, (re)distribute, offload — or fall back."""

    name = "DAS"

    def __init__(
        self,
        pfs,
        registry=None,
        engine: Optional[DecisionEngine] = None,
        halo_granularity: str = "strip",
    ):
        super().__init__(pfs, registry)
        self.client = ActiveStorageClient(
            pfs,
            home=self.cluster.home_name,
            engine=engine,
            registry=self.registry,
            halo_granularity=halo_granularity,
        )
        self._fallback = TraditionalScheme(pfs, registry=self.registry)

    def _serve(self, operator: str, input_file: str, output_file: str, options):
        request = ActiveRequest(
            operator=operator,
            file=input_file,
            output=output_file,
            pipeline_length=int(options.get("pipeline_length", 1)),
            replicate_output=bool(options.get("replicate_output", True)),
        )
        try:
            result = yield self.client.submit(request)
        except OffloadRejectedError as rejected:
            # Dynamic fallback: serve as normal I/O on the compute nodes.
            ts = yield from self._fallback._serve(operator, input_file, output_file, {})
            ts.scheme = self.name
            ts.decision = rejected.decision
            ts.extra["fallback"] = "normal-io"
            return ts

        return self._result(
            operator,
            input_file,
            output_file,
            offloaded=True,
            decision=result.decision,
            extra={
                "remote_halo_bytes": result.total_remote_halo_bytes,
                "redistribution_bytes": result.redistribution_bytes,
                "per_server": result.per_server,
            },
        )
