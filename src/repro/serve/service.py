"""The serving system: workload -> admission -> fair dispatch -> SLOs.

:class:`ServeSystem` wires the pieces together over an existing
cluster + PFS (files already ingested) and runs one serving interval to
quiescence::

    config = ServeConfig(tenants=(TenantSpec("a", rate=4.0, files=("dem",)),))
    summary = ServeSystem(pfs, config).run()

``run()`` drives the simulation until every admitted request has
settled — the open-loop generators stop offering load at
``config.duration``, the scheduler drains its queues, and the event
queue empties.  The returned summary is a plain, deterministic dict:
two runs from the same seed are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import ServeError
from ..faults import FaultInjector, FaultPlan, RecoveryPolicy
from ..kernels.base import KernelRegistry
from ..metrics.autoscale import autoscale_summary
from ..metrics.faults import fault_summary
from ..metrics.registry import MetricRegistry
from ..pfs.filesystem import ParallelFileSystem
from ..units import KiB
from .autoscale import AutoscaleController, AutoscalePolicy
from .dispatch import SCHEMES, LoadAwareExecutor
from .scheduler import FairScheduler, RetryPolicy
from .slo import SLOBoard
from .workload import ClosedLoopWorkload, OpenLoopWorkload, TenantSpec


@dataclass(frozen=True)
class ServeConfig:
    """Everything one serving run needs beyond the platform itself."""

    tenants: Tuple[TenantSpec, ...]
    scheme: str = "DAS"
    #: Simulated seconds during which load is offered.
    duration: float = 30.0
    #: Per-request latency budget (arrival to finish), seconds.
    deadline: float = 5.0
    #: Offered-load multiplier applied to every tenant's rate.
    load: float = 1.0
    queue_capacity: int = 16
    concurrency: int = 4
    #: DWRR quantum in cost units (input bytes) per round and weight.
    quantum: int = 256 * KiB
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Load sensitivity of the DAS offload-vs-normal diversion.
    load_bias: float = 0.75
    #: Max requests sharing one (file, kernel, params) key merged into a
    #: single backend fan-out per dispatch; 1 disables batching.
    batch_max: int = 1
    #: Optional fault schedule injected during the run.  ``None`` (the
    #: default) leaves the run event-for-event identical to a build
    #: without the fault subsystem.
    faults: Optional[FaultPlan] = None
    #: Optional recovery policy for the PFS and AS clients (timeouts,
    #: backoff, hedged reads, replica failover).
    recovery: Optional[RecoveryPolicy] = None
    #: Optional TTL (simulated seconds) on cached offload decisions.
    decision_ttl: Optional[float] = None
    #: Optional piecewise-constant offered-load ramp ((t, multiplier), ...)
    #: applied on top of ``load`` (see OpenLoopWorkload).
    ramp: Optional[Tuple[Tuple[float, float], ...]] = None
    #: Optional SLO-driven partition autoscaling.  ``None`` (the
    #: default) leaves the run event-for-event identical to a build
    #: without the autoscale subsystem.
    autoscale: Optional[AutoscalePolicy] = None
    #: Optional :class:`~repro.obs.Tracer` recording per-request spans.
    #: ``None`` (the default) installs the falsy NULL_TRACER, making
    #: every instrumentation site a single attribute read — the event
    #: stream is bit-identical either way.
    tracer: Optional[object] = None
    #: Optional :class:`~repro.telemetry.TelemetryConfig` attaching a
    #: clock-driven sampler + alert engine to the run.  ``None`` (the
    #: default) leaves the dispatch loop's boundary check inert; with a
    #: config the sampler only reads metrics at boundaries, so the
    #: event stream is bit-identical either way.
    telemetry: Optional[object] = None


class ServeSystem:
    """One multi-tenant serving run over an existing platform."""

    def __init__(
        self,
        pfs: ParallelFileSystem,
        config: ServeConfig,
        registry: Optional[KernelRegistry] = None,
    ):
        if config.scheme not in SCHEMES:
            raise ServeError(f"unknown scheme {config.scheme!r}")
        self.pfs = pfs
        self.cluster = pfs.cluster
        self.config = config
        if config.tracer is not None:
            env = self.cluster.env
            config.tracer.bind(lambda: env.now)
            self.cluster.monitors.tracer = config.tracer
        #: Declared catalog over the hub's counters/gauges plus the
        #: serving-latency histograms observed by the SLO board.
        self.metrics = MetricRegistry(self.cluster.monitors)
        self.board = SLOBoard(self.cluster.monitors, registry=self.metrics)
        if config.recovery is not None:
            pfs.set_recovery(config.recovery)
        self.executor = LoadAwareExecutor(
            pfs,
            scheme=config.scheme,
            registry=registry,
            load_bias=config.load_bias,
            recovery=config.recovery,
            decision_ttl=config.decision_ttl,
        )
        self.injector: Optional[FaultInjector] = None
        if config.faults is not None and len(config.faults):
            self.injector = FaultInjector(self.cluster, config.faults, pfs=pfs)
            if self.executor.cache is not None:
                cache = self.executor.cache

                def _membership_changed(event) -> None:
                    # A crash or recovery changes which servers can host
                    # offloads; cached verdicts predate that knowledge.
                    if event.kind in ("crash", "recover"):
                        cache.clear()

                self.injector.on_event(_membership_changed)
        self.scheduler = FairScheduler(
            self.cluster,
            config.tenants,
            self.executor,
            self.board,
            queue_capacity=config.queue_capacity,
            concurrency=config.concurrency,
            quantum=config.quantum,
            retry=config.retry,
            batch_max=config.batch_max,
        )
        # Tenants choose their arrival model individually; a run may mix
        # open-loop (rate-driven) and closed-loop (population-driven)
        # tenants, each workload driving the same admission controller.
        if not config.tenants:
            raise ServeError("serving run needs at least one tenant")
        open_tenants = tuple(t for t in config.tenants if t.mode == "open")
        closed_tenants = tuple(t for t in config.tenants if t.mode == "closed")
        workloads = []
        if open_tenants:
            workloads.append(
                OpenLoopWorkload(
                    self.cluster,
                    open_tenants,
                    duration=config.duration,
                    deadline=config.deadline,
                    load=config.load,
                    ramp=config.ramp,
                )
            )
        if closed_tenants:
            workloads.append(
                ClosedLoopWorkload(
                    self.cluster,
                    closed_tenants,
                    duration=config.duration,
                    deadline=config.deadline,
                )
            )
        self.workloads = tuple(workloads)
        #: The primary (open-loop when present) workload, kept as an
        #: attribute for callers that predate mixed-mode runs.
        self.workload = self.workloads[0]
        self.autoscaler: Optional[AutoscaleController] = None
        if config.autoscale is not None:
            files = sorted({f for t in config.tenants for f in t.files})
            self.autoscaler = AutoscaleController(
                pfs,
                self.executor,
                self.scheduler,
                self.board,
                config.autoscale,
                files=files,
                duration=config.duration,
            )
        self.telemetry = None
        if config.telemetry is not None:
            from ..telemetry import TelemetrySampler, default_serve_rules

            self.telemetry = TelemetrySampler(self.cluster.env, config.telemetry)
            rules = config.telemetry.rules
            if rules is None:
                rules = default_serve_rules()
            self.telemetry.add_scope(
                "serve", self.cluster.monitors, registry=self.metrics,
                rules=rules, active_until=config.duration,
            )
            self.telemetry.attach()
        self._ran = False

    def run(self) -> Dict[str, object]:
        """Offer load, drain, and return the deterministic summary."""
        if self._ran:
            raise ServeError("a ServeSystem runs exactly once")
        self._ran = True
        env = self.cluster.env
        started = env.now
        if self.injector is not None:
            self.injector.start()
        if self.autoscaler is not None:
            self.autoscaler.start()
        for workload in self.workloads:
            workload.start(self.scheduler)
        self.cluster.run()  # to quiescence: all arrivals offered + settled
        self.scheduler.close()
        elapsed = env.now - started
        if self.telemetry is not None:
            # Flush the boundaries between the last event and the end of
            # the run from the final (now constant) state, then detach.
            self.telemetry.finalize(env.now)
        if not self.board.conservation_ok():
            raise ServeError(
                f"conservation violated: requests {self.board.unsettled()}"
                " admitted but never settled"
            )
        return self.summary(elapsed)

    def summary(self, elapsed: float) -> Dict[str, object]:
        monitors = self.cluster.monitors
        out: Dict[str, object] = {
            "scheme": self.config.scheme,
            "load": self.config.load,
            "duration": self.config.duration,
            "elapsed": elapsed,
            "generated": sum(w.generated for w in self.workloads),
            "admitted": self.board.total_admitted,
            "settled": self.board.total_settled,
            "paths": {
                "offload": monitors.counter("serve.path.offload").value,
                "normal": monitors.counter("serve.path.normal").value,
                "diverted": monitors.counter("serve.diverted").value,
                "redistributions": monitors.counter("serve.redistributions").value,
            },
            "tenants": self.board.summary(elapsed),
            "batch": {
                "max": self.config.batch_max,
                **self.scheduler.batch_stats.as_dict(),
            },
            # Wire accounting split by role: fixed per-message headers
            # (what batching amortises) vs per-extent descriptors and
            # halo payload (what it must NOT change per request).
            "bytes": {
                "request_header": int(
                    monitors.counter("pfs.rpc.header_bytes").value
                    + monitors.counter("as.rpc.header_bytes").value
                ),
                "extent_desc": int(
                    monitors.counter("pfs.rpc.extent_desc_bytes").value
                    + monitors.counter("as.rpc.item_bytes").value
                ),
                "halo_local": int(monitors.counter("as.halo_bytes_local").value),
                "halo_remote": int(monitors.counter("as.halo_bytes_remote").value),
            },
            "result_digest": self.executor.result_digest(),
        }
        if self.executor.cache is not None:
            stats = self.executor.cache.stats
            out["decision_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "invalidations": stats.invalidations,
            }
            if self.executor.cache.ttl is not None:
                out["decision_cache"]["expirations"] = stats.expirations
        if self.config.faults is not None or self.config.recovery is not None:
            # Only fault-configured runs carry the block; fault-free
            # summaries are unchanged by the fault subsystem.
            out["faults"] = fault_summary(monitors, self.injector)
        if self.config.autoscale is not None:
            # As with faults: only autoscale-configured runs carry the
            # block, so static summaries stay bit-identical.
            out["autoscale"] = autoscale_summary(monitors, self.autoscaler)
        if self.telemetry is not None:
            # Same pattern again: only telemetry-configured runs carry
            # the block, so sampled-off summaries stay bit-identical.
            out["telemetry"] = self.telemetry.summary_block()
        return out
