"""The serving system: workload -> admission -> fair dispatch -> SLOs.

:class:`ServingStack` wires the pieces together, once, over an existing
cluster + PFS (files already ingested); :class:`ServeSystem` puts the
workloads on top of it and runs one serving interval to quiescence::

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
from ..pfs.filesystem import ParallelFileSystem
from ..units import KiB
from .autoscale import AutoscaleController, AutoscalePolicy
from .dispatch import SCHEMES, LoadAwareExecutor
from .scheduler import FairScheduler, RetryPolicy
from .slo import SLOBoard
from .workload import TenantSpec, build_workloads


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


def bind_tracer(tracer, env, *hubs) -> None:
    """Put ``tracer`` (when there is one) on the run's clock and on
    every monitor hub whose instrumentation sites should record to it —
    the serving path's request spans and the devices' cpu/disk spans."""
    if tracer is not None:
        tracer.bind(lambda: env.now)
        for hub in hubs:
            hub.tracer = tracer


def attach_sampler(env, config, scopes, active_until: float):
    """The run's clock-driven sampler, attached — or ``None`` without a
    telemetry ``config``.  ``scopes`` yields one ``(label, monitors,
    rules)`` per hub sampled, ``rules=None`` meaning the stock serving-cell
    set; a scope's alert rules stop evaluating at ``active_until`` (the
    end of offered load)."""
    if config is None:
        return None
    from ..telemetry import TelemetrySampler, default_serve_rules

    sampler = TelemetrySampler(env, config)
    for label, monitors, rules in scopes:
        if rules is None:
            rules = default_serve_rules()
        sampler.add_scope(label, monitors, rules, active_until)
    sampler.attach()
    return sampler


class ServingStack:
    """The serving stack over one cluster + PFS, built in one place:
    SLO board -> recovery -> load-aware executor -> fault injector (with
    its membership hook) -> DWRR fair scheduler -> optional autoscale
    controller.

    It owns no arrival generation and no run loop.  A
    :class:`ServeSystem` *has* one and adds workloads and ``run()``; a
    :class:`~repro.fleet.Cell` *is* one and adds the routing signals,
    handing in ``slot_groups`` to shard its admission slots.
    """

    #: What a bad configuration raises (a fleet cell reports FleetError).
    error = ServeError

    def __init__(
        self,
        pfs: ParallelFileSystem,
        config: ServeConfig,
        registry: Optional[KernelRegistry] = None,
        slot_groups=None,
    ):
        if config.scheme not in SCHEMES:
            raise self.error(f"unknown scheme {config.scheme!r}")
        if not config.tenants:
            raise self.error("serving needs at least one tenant")
        self.pfs = pfs
        self.cluster = pfs.cluster
        self.config = config
        self.board = SLOBoard(self.cluster.monitors)
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
            slot_groups=slot_groups,
        )
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

    def summary_block(self, elapsed: float) -> Dict[str, object]:
        """What every deployment of the stack reports, in report order."""
        monitors = self.cluster.monitors
        out: Dict[str, object] = {
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
        return out


class ServeSystem:
    """One multi-tenant serving run over an existing platform."""

    def __init__(
        self,
        pfs: ParallelFileSystem,
        config: ServeConfig,
        registry: Optional[KernelRegistry] = None,
    ):
        env = pfs.cluster.env
        bind_tracer(config.tracer, env, pfs.cluster.monitors)
        self.stack = stack = ServingStack(pfs, config, registry)
        self.pfs, self.cluster, self.config = pfs, pfs.cluster, config
        self.board = stack.board
        self.executor, self.injector = stack.executor, stack.injector
        self.scheduler, self.autoscaler = stack.scheduler, stack.autoscaler
        self.workloads = build_workloads(
            self.cluster, config.tenants, config.duration, config.deadline,
            load=config.load, ramp=config.ramp,
        )
        rules = config.telemetry.rules if config.telemetry is not None else None
        self.telemetry = attach_sampler(
            env,
            config.telemetry,
            [("serve", self.cluster.monitors, rules)],
            active_until=config.duration,
        )
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
        shared = self.stack.summary_block(elapsed)
        out: Dict[str, object] = {
            "scheme": self.config.scheme,
            "load": self.config.load,
            "duration": self.config.duration,
            "elapsed": elapsed,
            "generated": sum(w.generated for w in self.workloads),
            "admitted": self.board.total_admitted,
            "settled": self.board.total_settled,
        }
        for key in ("paths", "tenants", "batch"):
            out[key] = shared.pop(key)
        # Wire accounting split by role: fixed per-message headers
        # (what batching amortises) vs per-extent descriptors and
        # halo payload (what it must NOT change per request).
        out["bytes"] = {
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
        }
        out.update(shared)
        if self.telemetry is not None:
            # Same pattern again: only telemetry-configured runs carry
            # the block, so sampled-off summaries stay bit-identical.
            out["telemetry"] = self.telemetry.summary_block()
        return out
