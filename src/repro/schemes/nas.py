"""Normal Active Storage (NAS) — paper Section IV-A1.

"The data is distributed with normal round-robin pattern.  The kernels
are employed and executed at the server side, with each node processing
its local data.  When dependent data [is] needed, it has to acquire
them from neighbor server nodes, which is required by current active
storage systems."

No bandwidth analysis, no layout change: the request is offloaded
unconditionally and the servers pull whatever halo strips they are
missing from their peers — incurring both the inter-server traffic and
the request-serving load the paper measures.
"""

from __future__ import annotations

from ..core.das_client import ActiveStorageClient
from ..core.decision import OFFLOAD_IN_PLACE, DecisionEngine, OffloadDecision
from ..core.request import ActiveRequest
from .base import Scheme


class NormalActiveStorageScheme(Scheme):
    """Unconditional offload on the file's current (round-robin) layout."""

    name = "NAS"

    def __init__(self, pfs, registry=None, halo_granularity: str = "strip"):
        super().__init__(pfs, registry)
        self.client = ActiveStorageClient(
            pfs,
            home=self.cluster.home_name,
            registry=self.registry,
            halo_granularity=halo_granularity,
        )

    def _serve(self, operator: str, input_file: str, output_file: str, options):
        meta = self.pfs.metadata.lookup(input_file)
        request = ActiveRequest(
            operator=operator,
            file=input_file,
            output=output_file,
            replicate_output=False,  # round-robin output has no replicas
        )
        # NAS has no decision engine; record what the predictor *would*
        # have said under the current layout, for reporting only.
        engine: DecisionEngine = self.client.engine
        prediction = engine.predictor.predict(
            meta, engine.features.get(operator), output_replicated=False
        )
        decision = OffloadDecision(
            outcome=OFFLOAD_IN_PLACE,
            redistribute_to=None,
            prediction_current=prediction,
            prediction_planned=None,
            redistribution_bytes=0,
            pipeline_length=1,
            reason="NAS offloads unconditionally on the current layout",
        )
        result = yield self.client.execute_offload(
            request, decision, span=options.get("trace_span")
        )
        return self._result(
            operator,
            input_file,
            output_file,
            offloaded=True,
            decision=decision,
            extra={
                "remote_halo_bytes": result.total_remote_halo_bytes,
                "per_server": result.per_server,
            },
        )
