"""The declarative scenario schema.

A :class:`ScenarioSpec` is the validated, immutable form of one
scenario document — a plain JSON-able dict (stdlib only, no YAML)
composing everything one serving experiment needs:

* **topology** — cluster size, scheme, ingest placement, files;
* **workload** — duration/deadline/load, an optional piecewise load
  ramp, and the tenant mix (open-loop Poisson and/or closed-loop
  think-time clients, per tenant);
* **service** — scheduler and executor knobs (queues, concurrency,
  batching, decision-cache TTL, retry);
* **chaos** — a fault schedule in the chaos-spec grammar plus the
  recovery policy to arm;
* **autoscale** — the SLO-driven partition controller's policy;
* **checks** — declared pass/fail assertions evaluated against the
  run's summary (see :mod:`repro.scenarios.checks`).

The schema's vocabulary lives here as ``*_KEYS`` constants; the loader
uses them for unknown-key errors and ``python -m repro.verify docs`` uses
them to hold docs/SCENARIOS.md to account.  :meth:`ScenarioSpec.to_dict`
emits the canonical dict form: loading it back yields an equal spec
(round-trip identity, pinned by tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..faults import RecoveryPolicy
from ..serve import AutoscalePolicy, RetryPolicy, TenantSpec
from ..units import KiB

#: Allowed keys per schema section (the loader rejects anything else).
TOP_KEYS = (
    "name",
    "description",
    "seed",
    "topology",
    "workload",
    "service",
    "chaos",
    "autoscale",
    "checks",
)
TOPOLOGY_KEYS = (
    "nodes",
    "scheme",
    "ingest",
    "partition_servers",
    "files",
    "raster",
    "operator",
)
WORKLOAD_KEYS = ("duration", "deadline", "load", "ramp", "tenants")
TENANT_KEYS = (
    "name",
    "rate",
    "weight",
    "kernels",
    "files",
    "pipeline_length",
    "mode",
    "population",
    "think_time",
    "affinity",
)
SERVICE_KEYS = (
    "queue_capacity",
    "concurrency",
    "quantum",
    "batch_max",
    "load_bias",
    "decision_ttl",
    "retry",
)
RETRY_KEYS = ("max_attempts", "backoff", "backoff_factor")
CHAOS_KEYS = ("spec", "recovery")
RECOVERY_KEYS = (
    "rpc_timeout",
    "max_attempts",
    "backoff",
    "backoff_factor",
    "hedge_delay",
)
AUTOSCALE_KEYS = (
    "min_servers",
    "max_servers",
    "interval",
    "p99_high",
    "p99_low",
    "queue_high",
    "breach_ticks",
    "calm_ticks",
    "cooldown",
    "step",
    "min_samples",
)
CHECK_KEYS = ("check", "value", "tenant", "alert")

#: Section name -> its key vocabulary (what the docs gate introspects).
SCHEMA_SECTIONS = {
    "top": TOP_KEYS,
    "topology": TOPOLOGY_KEYS,
    "workload": WORKLOAD_KEYS,
    "tenant": TENANT_KEYS,
    "service": SERVICE_KEYS,
    "retry": RETRY_KEYS,
    "chaos": CHAOS_KEYS,
    "recovery": RECOVERY_KEYS,
    "autoscale": AUTOSCALE_KEYS,
    "check": CHECK_KEYS,
}


@dataclass(frozen=True)
class TopologySpec:
    """Cluster shape and data placement of one scenario."""

    nodes: int = 8
    scheme: str = "DAS"
    #: Ingest placement policy: "scheme" | "replicated" | "partition".
    ingest: str = "scheme"
    #: Storage-server count of the initial partition ("partition" only).
    partition_servers: Optional[int] = None
    files: Tuple[str, ...] = ("dem_a", "dem_b")
    #: Raster shape generated per file.
    raster: Tuple[int, int] = (128, 192)
    #: Operator the DAS layout optimizer plans placement for.
    operator: str = "gaussian"


@dataclass(frozen=True)
class CheckSpec:
    """One declared pass/fail assertion on the run's summary."""

    check: str
    value: Optional[float] = None
    #: Tenant row the check reads; None means the aggregate "_all" row.
    tenant: Optional[str] = None
    #: Alert-rule name the check gates on (``alert_*`` checks only).
    #: Declaring one auto-enables the telemetry sampler for the run.
    alert: Optional[str] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully validated scenario (construct via the loader)."""

    name: str
    description: str
    topology: TopologySpec
    tenants: Tuple[TenantSpec, ...]
    duration: float
    deadline: float
    load: float = 1.0
    ramp: Optional[Tuple[Tuple[float, float], ...]] = None
    seed: int = 20120910
    queue_capacity: int = 12
    concurrency: int = 8
    quantum: int = 256 * KiB
    batch_max: int = 1
    load_bias: float = 0.75
    decision_ttl: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Fault schedule in chaos-spec grammar ("crash:s1@1.0;...").
    chaos: Optional[str] = None
    recovery: Optional[RecoveryPolicy] = None
    autoscale: Optional[AutoscalePolicy] = None
    checks: Tuple[CheckSpec, ...] = ()

    def to_dict(self) -> dict:
        """The canonical (JSON-able) dict form; loads back to an equal
        spec.  Optional sections appear only when configured."""
        out: dict = {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "topology": {
                "nodes": self.topology.nodes,
                "scheme": self.topology.scheme,
                "ingest": self.topology.ingest,
                "files": list(self.topology.files),
                "raster": list(self.topology.raster),
                "operator": self.topology.operator,
            },
            "workload": {
                "duration": self.duration,
                "deadline": self.deadline,
                "load": self.load,
                "tenants": [self._tenant_dict(t) for t in self.tenants],
            },
            "service": {
                "queue_capacity": self.queue_capacity,
                "concurrency": self.concurrency,
                "quantum": self.quantum,
                "batch_max": self.batch_max,
                "load_bias": self.load_bias,
                "retry": {
                    "max_attempts": self.retry.max_attempts,
                    "backoff": self.retry.backoff,
                    "backoff_factor": self.retry.backoff_factor,
                },
            },
        }
        if self.topology.partition_servers is not None:
            out["topology"]["partition_servers"] = self.topology.partition_servers
        if self.ramp is not None:
            out["workload"]["ramp"] = [list(phase) for phase in self.ramp]
        if self.decision_ttl is not None:
            out["service"]["decision_ttl"] = self.decision_ttl
        if self.chaos is not None or self.recovery is not None:
            chaos: dict = {}
            if self.chaos is not None:
                chaos["spec"] = self.chaos
            if self.recovery is not None:
                chaos["recovery"] = {
                    "rpc_timeout": self.recovery.rpc_timeout,
                    "max_attempts": self.recovery.max_attempts,
                    "backoff": self.recovery.backoff,
                    "backoff_factor": self.recovery.backoff_factor,
                    "hedge_delay": self.recovery.hedge_delay,
                }
            out["chaos"] = chaos
        if self.autoscale is not None:
            out["autoscale"] = {
                key: getattr(self.autoscale, key) for key in AUTOSCALE_KEYS
            }
        if self.checks:
            out["checks"] = []
            for check in self.checks:
                entry: dict = {"check": check.check}
                if check.value is not None:
                    entry["value"] = check.value
                if check.tenant is not None:
                    entry["tenant"] = check.tenant
                if check.alert is not None:
                    entry["alert"] = check.alert
                out["checks"].append(entry)
        return out

    @staticmethod
    def _tenant_dict(tenant: TenantSpec) -> dict:
        entry: dict = {
            "name": tenant.name,
            "weight": tenant.weight,
            "kernels": list(tenant.kernels),
            "files": list(tenant.files),
            "pipeline_length": tenant.pipeline_length,
            "mode": tenant.mode,
        }
        if tenant.mode == "open":
            entry["rate"] = tenant.rate
        else:
            entry["population"] = tenant.population
            entry["think_time"] = tenant.think_time
            entry["affinity"] = tenant.affinity
        return entry
