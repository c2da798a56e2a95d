"""Deterministic spec -> cell materialization and execution.

:func:`build_scenario` turns a validated :class:`ScenarioSpec` into a
ready-to-run ``(pfs, ServeConfig)`` pair — the only code that does, so
every serving cell anywhere (scenario documents, the harness benches'
spec values, ``bench/``) goes through the same construction sequence;
:func:`run_scenario` runs it and returns the summary plus the live
system (per-request result digests, controller trace, sampler).
Everything is derived from the spec (the spec carries the seed), so two
loads of the same document materialize event-for-event identical runs.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from ..faults import FaultPlan
from ..pfs.filesystem import ParallelFileSystem
from ..serve import ServeConfig, ServeSystem
from .platform import (
    SERVE_SPEC,
    SERVE_STRIP,
    ExperimentPlatform,
    build_platform,
    ingest_files,
)
from .spec import ScenarioSpec


def scenario_platform(
    spec: ScenarioSpec, platform: Optional[ExperimentPlatform] = None
) -> ExperimentPlatform:
    """The platform preset for one scenario: the serving benches'
    throttled spec unless the caller overrides it, always re-seeded
    from the spec so replay is a property of the document alone."""
    if platform is None:
        platform = ExperimentPlatform(spec=SERVE_SPEC, strip_size=SERVE_STRIP)
    return dataclasses.replace(platform, seed=spec.seed)


def build_scenario(
    spec: ScenarioSpec,
    platform: Optional[ExperimentPlatform] = None,
    env=None,
) -> Tuple[ParallelFileSystem, ServeConfig]:
    """Materialize the spec: cluster, ingested files, serve config.

    ``env`` puts the cell on a shared :class:`~repro.sim.Environment`
    (fleet cells live on one clock); the default is a fresh one.
    """
    cluster, pfs = build_platform(
        spec.topology.nodes, scenario_platform(spec, platform), env=env
    )
    servers = None
    if spec.topology.partition_servers is not None:
        servers = pfs.server_names[: spec.topology.partition_servers]
    rng = np.random.default_rng(spec.seed)
    ingest_files(
        pfs,
        spec.topology.scheme,
        rng,
        policy=spec.topology.ingest,
        names=spec.topology.files,
        raster=spec.topology.raster,
        operator=spec.topology.operator,
        servers=servers,
    )
    config = ServeConfig(
        tenants=spec.tenants,
        scheme=spec.topology.scheme,
        duration=spec.duration,
        deadline=spec.deadline,
        load=spec.load,
        queue_capacity=spec.queue_capacity,
        concurrency=spec.concurrency,
        quantum=spec.quantum,
        retry=spec.retry,
        load_bias=spec.load_bias,
        batch_max=spec.batch_max,
        faults=FaultPlan.parse(spec.chaos) if spec.chaos else None,
        recovery=spec.recovery,
        decision_ttl=spec.decision_ttl,
        ramp=spec.ramp,
        autoscale=spec.autoscale,
    )
    if any(c.check in ("alert_fired", "alert_resolved") for c in spec.checks):
        # Alert gates read the telemetry ledger, so the sampler rides
        # along.  Sampling is non-perturbing (pinned by the telemetry
        # replays), so every other declared check still reads numbers
        # identical to an unsampled run.
        from ..telemetry import TelemetryConfig

        config = dataclasses.replace(config, telemetry=TelemetryConfig())
    return pfs, config


def run_scenario(
    spec: ScenarioSpec,
    platform: Optional[ExperimentPlatform] = None,
    tracer: Optional[object] = None,
    telemetry: Optional[object] = None,
) -> Tuple[dict, ServeSystem]:
    """Run one scenario -> ``(summary, system)``.

    ``tracer`` / ``telemetry`` attach the read-only observers; the
    per-request result digests the ``crc_identity`` check compares are
    ``system.executor.digests``.
    """
    pfs, config = build_scenario(spec, platform)
    if tracer is not None:
        config = dataclasses.replace(config, tracer=tracer)
    if telemetry is not None:
        config = dataclasses.replace(config, telemetry=telemetry)
    system = ServeSystem(pfs, config)
    return system.run(), system


def reference_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """The fault-free twin the ``crc_identity`` check runs against:
    same topology, workload and service knobs, but no chaos, no
    recovery and no autoscaling — what every surviving request's result
    bytes must match."""
    return dataclasses.replace(
        spec,
        chaos=None,
        recovery=None,
        autoscale=None,
        checks=(),
    )
