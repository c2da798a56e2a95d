"""Validating scenario loader: dict / JSON file -> :class:`ScenarioSpec`.

Every validation failure raises :class:`~repro.errors.ScenarioError`
whose message names the scenario, the exact spec path that is wrong
(``tenants[1].files``), what was found, and what would have been
accepted — a bad spec must be fixable from the error alone.

Materialization determinism: the loader resolves every default
eagerly, so two documents that load to equal specs materialize
bit-identical cells (the spec carries the seed; nothing is drawn at
load time).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import ReproError, ScenarioError
from ..faults import FaultPlan, RecoveryPolicy
from ..kernels import default_registry
from ..serve import SCHEMES, AutoscalePolicy, RetryPolicy, TenantSpec
from .checks import CHECKS, validate_check
from ..hw.cluster import node_names
from .platform import INGEST_POLICIES, node_split
from .spec import (
    AUTOSCALE_KEYS,
    CHAOS_KEYS,
    CHECK_KEYS,
    RECOVERY_KEYS,
    RETRY_KEYS,
    SERVICE_KEYS,
    TENANT_KEYS,
    TOP_KEYS,
    TOPOLOGY_KEYS,
    WORKLOAD_KEYS,
    CheckSpec,
    ScenarioSpec,
    TopologySpec,
)

#: What a missing key means, read off the dataclass that declares it
#: (``ScenarioSpec`` has required fields, so no default instance exists).
_SPEC_DEFAULTS = {
    f.name: f.default
    for f in dataclasses.fields(ScenarioSpec)
    if f.default is not dataclasses.MISSING
}

#: Directory of the named scenario library.
LIBRARY_DIR = Path(__file__).parent / "library"


def library_names() -> Tuple[str, ...]:
    """Names of the shipped scenarios, sorted."""
    return tuple(sorted(p.stem for p in LIBRARY_DIR.glob("*.json")))


def library_path(name: str) -> Path:
    """Path of a named library scenario; raises with the known names."""
    path = LIBRARY_DIR / f"{name}.json"
    if not path.is_file():
        raise ScenarioError(
            f"unknown library scenario {name!r}"
            f" (available: {', '.join(library_names())})"
        )
    return path


def load_library() -> Tuple[ScenarioSpec, ...]:
    """Every shipped scenario, loaded and validated, in name order."""
    return tuple(load_scenario(LIBRARY_DIR / f"{n}.json") for n in library_names())


def load_scenario(source: Union[dict, str, Path]) -> ScenarioSpec:
    """Load and validate one scenario.

    ``source`` may be the scenario dict itself, a path to a JSON file,
    or the name of a shipped library scenario.
    """
    if isinstance(source, dict):
        return _load(source, origin="<dict>")
    path = Path(source)
    if not path.suffix and not path.exists():
        path = library_path(str(source))
    if not path.is_file():
        raise ScenarioError(f"scenario file {str(path)!r} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path.name}: not valid JSON (line {exc.lineno}: {exc.msg})"
        ) from None
    if not isinstance(data, dict):
        raise ScenarioError(
            f"{path.name}: a scenario document must be a JSON object,"
            f" got {type(data).__name__}"
        )
    return _load(data, origin=path.name)


# -- internals ----------------------------------------------------------------
class _Loader:
    """One load: tracks the scenario label for error paths."""

    def __init__(self, data: dict, origin: str):
        self.data = data
        self.label = data.get("name", origin) if isinstance(data, dict) else origin

    def fail(self, path: str, message: str) -> "ScenarioError":
        where = f"{self.label}: {path}" if path else f"{self.label}"
        return ScenarioError(f"{where}: {message}")

    def check_keys(self, mapping: dict, allowed: Sequence[str], path: str) -> None:
        unknown = sorted(set(mapping) - set(allowed))
        if unknown:
            raise self.fail(
                path or "top level",
                f"unknown key {unknown[0]!r}"
                f" (expected one of: {', '.join(allowed)})",
            )

    def section(self, mapping, key: str, path: str, required: bool = False):
        value = mapping.get(key)
        if value is None:
            if required:
                raise self.fail(path, "required section is missing")
            return None
        if not isinstance(value, dict):
            raise self.fail(
                path, f"must be an object, got {type(value).__name__}"
            )
        return value

    def number(
        self,
        mapping: dict,
        key: str,
        path: str,
        default=None,
        required: bool = False,
        integer: bool = False,
        minimum=None,
    ):
        if key not in mapping:
            if required:
                raise self.fail(f"{path}.{key}", "required value is missing")
            return default
        value = mapping[key]
        ok = isinstance(value, int) if integer else isinstance(value, (int, float))
        if ok and isinstance(value, bool):
            ok = False
        if not ok:
            kind = "an integer" if integer else "a number"
            raise self.fail(
                f"{path}.{key}", f"must be {kind}, got {value!r}"
            )
        if minimum is not None and value < minimum:
            raise self.fail(
                f"{path}.{key}", f"must be >= {minimum}, got {value!r}"
            )
        return value

    def text(self, mapping: dict, key: str, path: str, default=None,
             required: bool = False, choices: Optional[Sequence[str]] = None):
        if key not in mapping:
            if required:
                raise self.fail(f"{path}.{key}", "required value is missing")
            return default
        value = mapping[key]
        if not isinstance(value, str):
            raise self.fail(f"{path}.{key}", f"must be a string, got {value!r}")
        if choices is not None and value not in choices:
            raise self.fail(
                f"{path}.{key}",
                f"must be one of {', '.join(map(repr, choices))}, got {value!r}",
            )
        return value

    def name_list(self, mapping: dict, key: str, path: str, default=None):
        if key not in mapping:
            return default
        value = mapping[key]
        if (
            not isinstance(value, (list, tuple))
            or not value
            or not all(isinstance(v, str) for v in value)
        ):
            raise self.fail(
                f"{path}.{key}", f"must be a non-empty list of strings, got {value!r}"
            )
        return tuple(value)

    def unique(self, names, path: str, what: str) -> None:
        """Reject the first name that occurs twice in ``names``."""
        seen = set()
        for name in names:
            if name in seen:
                raise self.fail(path, f"duplicate {what} {name!r}")
            seen.add(name)


def _load(data: dict, origin: str) -> ScenarioSpec:
    ld = _Loader(data, origin)
    ld.check_keys(data, TOP_KEYS, "")

    name = ld.text(data, "name", "", required=True)
    description = ld.text(data, "description", "", default="")
    seed = ld.number(
        data, "seed", "", default=_SPEC_DEFAULTS["seed"], integer=True, minimum=0
    )

    topology = _load_topology(ld, ld.section(data, "topology", "topology") or {})
    duration, deadline, load, ramp, tenants = _load_workload(
        ld, ld.section(data, "workload", "workload", required=True), topology
    )
    service = ld.section(data, "service", "service") or {}
    ld.check_keys(service, SERVICE_KEYS, "service")
    retry_section = ld.section(service, "retry", "service.retry")
    retry = RetryPolicy() if retry_section is None else _load_policy(
        ld, RetryPolicy, RETRY_KEYS, retry_section, "service.retry"
    )
    chaos_text, recovery = _load_chaos(
        ld, ld.section(data, "chaos", "chaos"), topology, duration
    )
    autoscale = _load_autoscale(ld, ld.section(data, "autoscale", "autoscale"),
                                topology)

    spec = ScenarioSpec(
        name=name,
        description=description,
        topology=topology,
        tenants=tenants,
        duration=duration,
        deadline=deadline,
        load=load,
        ramp=ramp,
        seed=seed,
        **{
            key: ld.number(
                service, key, "service", default=_SPEC_DEFAULTS[key],
                integer=True, minimum=1,
            )
            for key in ("queue_capacity", "concurrency", "quantum", "batch_max")
        },
        load_bias=ld.number(
            service, "load_bias", "service", minimum=0,
            default=_SPEC_DEFAULTS["load_bias"],
        ),
        decision_ttl=ld.number(service, "decision_ttl", "service", minimum=0),
        retry=retry,
        chaos=chaos_text,
        recovery=recovery,
        autoscale=autoscale,
        checks=_load_checks(
            ld, data.get("checks"), tenants, topology, chaos_text, autoscale
        ),
    )
    return spec


def _load_topology(ld: _Loader, section: dict) -> TopologySpec:
    ld.check_keys(section, TOPOLOGY_KEYS, "topology")
    defaults = TopologySpec()
    nodes = ld.number(
        section, "nodes", "topology", default=defaults.nodes, integer=True,
        minimum=2,
    )
    scheme = ld.text(
        section, "scheme", "topology", default=defaults.scheme,
        choices=tuple(SCHEMES),
    )
    ingest = ld.text(
        section, "ingest", "topology", default=defaults.ingest,
        choices=INGEST_POLICIES,
    )
    files = ld.name_list(section, "files", "topology", default=defaults.files)
    ld.unique(files, "topology.files", "file name")
    operator = ld.text(section, "operator", "topology", default=defaults.operator)
    if operator not in default_registry:
        raise ld.fail(
            "topology.operator",
            f"unknown kernel {operator!r}"
            f" (registered: {', '.join(sorted(default_registry.names()))})",
        )
    raster = section.get("raster", defaults.raster)
    if (
        not isinstance(raster, (list, tuple))
        or len(raster) != 2
        or not all(isinstance(v, int) and v > 0 for v in raster)
    ):
        raise ld.fail(
            "topology.raster",
            f"must be a [rows, cols] pair of positive integers, got {raster!r}",
        )
    _, n_storage = node_split(nodes)
    partition = ld.number(
        section, "partition_servers", "topology", integer=True, minimum=1
    )
    if ingest == "partition":
        if partition is None:
            raise ld.fail(
                "topology.partition_servers",
                "required when ingest is 'partition'",
            )
        if partition > n_storage:
            raise ld.fail(
                "topology.partition_servers",
                f"{partition} exceeds the {n_storage} storage servers"
                f" of a {nodes}-node cluster",
            )
    elif partition is not None:
        raise ld.fail(
            "topology.partition_servers",
            f"only meaningful with ingest 'partition', not {ingest!r}",
        )
    return TopologySpec(
        nodes=nodes,
        scheme=scheme,
        ingest=ingest,
        partition_servers=partition,
        files=files,
        raster=(raster[0], raster[1]),
        operator=operator,
    )


def _load_workload(ld: _Loader, section: dict, topology: TopologySpec):
    ld.check_keys(section, WORKLOAD_KEYS, "workload")
    duration = ld.number(section, "duration", "workload", required=True)
    deadline = ld.number(section, "deadline", "workload", required=True)
    if duration <= 0:
        raise ld.fail("workload.duration", f"must be positive, got {duration!r}")
    if deadline <= 0:
        raise ld.fail("workload.deadline", f"must be positive, got {deadline!r}")
    load = ld.number(section, "load", "workload", default=_SPEC_DEFAULTS["load"])
    if load <= 0:
        raise ld.fail("workload.load", f"must be positive, got {load!r}")
    ramp = _load_ramp(ld, section.get("ramp"), duration)
    raw_tenants = section.get("tenants")
    if not isinstance(raw_tenants, list) or not raw_tenants:
        raise ld.fail(
            "workload.tenants",
            f"must be a non-empty list of tenant objects, got {raw_tenants!r}",
        )
    tenants = tuple(
        _load_tenant(ld, entry, i, topology) for i, entry in enumerate(raw_tenants)
    )
    ld.unique([t.name for t in tenants], "workload.tenants", "tenant name")
    return duration, deadline, load, ramp, tenants


def _load_ramp(ld: _Loader, raw, duration: float):
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ld.fail(
            "workload.ramp",
            f"must be a non-empty list of [time, multiplier] pairs, got {raw!r}",
        )
    phases: List[Tuple[float, float]] = []
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) for v in pair)
        ):
            raise ld.fail(
                f"workload.ramp[{i}]",
                f"must be a [time, multiplier] pair, got {pair!r}",
            )
        t, m = float(pair[0]), float(pair[1])
        if t < 0 or t >= duration:
            raise ld.fail(
                f"workload.ramp[{i}]",
                f"phase time {t:g} outside [0, duration {duration:g})",
            )
        if m <= 0:
            raise ld.fail(
                f"workload.ramp[{i}]", f"multiplier must be positive, got {m:g}"
            )
        phases.append((t, m))
    times = [t for t, _ in phases]
    if times != sorted(times):
        raise ld.fail(
            "workload.ramp", "phase times must be in ascending order"
        )
    return tuple(phases)


def _load_tenant(
    ld: _Loader, entry, index: int, topology: TopologySpec
) -> TenantSpec:
    path = f"workload.tenants[{index}]"
    if not isinstance(entry, dict):
        raise ld.fail(path, f"must be a tenant object, got {entry!r}")
    ld.check_keys(entry, TENANT_KEYS, path)
    tname = ld.text(entry, "name", path, required=True)
    path = f"workload.tenants[{index}] ({tname!r})"
    mode = ld.text(entry, "mode", path, default="open", choices=("open", "closed"))
    kernels = ld.name_list(entry, "kernels", path, default=("gaussian",))
    for kernel in kernels:
        if kernel not in default_registry:
            raise ld.fail(
                f"{path}.kernels",
                f"unknown kernel {kernel!r}"
                f" (registered: {', '.join(sorted(default_registry.names()))})",
            )
    files = ld.name_list(entry, "files", path)
    if files is None:
        raise ld.fail(f"{path}.files", "required value is missing")
    for file in files:
        if file not in topology.files:
            raise ld.fail(
                f"{path}.files",
                f"unknown file {file!r}"
                f" (topology declares: {', '.join(topology.files)})",
            )
    kwargs = dict(
        name=tname,
        weight=ld.number(entry, "weight", path, default=1.0),
        kernels=kernels,
        files=files,
        pipeline_length=ld.number(
            entry, "pipeline_length", path, default=1, integer=True, minimum=1
        ),
        mode=mode,
    )
    if mode == "open":
        for key in ("population", "think_time", "affinity"):
            if key in entry:
                raise ld.fail(
                    f"{path}.{key}", "only meaningful for mode 'closed'"
                )
        kwargs["rate"] = ld.number(entry, "rate", path, required=True)
    else:
        if "rate" in entry:
            raise ld.fail(
                f"{path}.rate",
                "not meaningful for mode 'closed' (throughput is an"
                " outcome of a closed loop, not an input); use"
                " population/think_time",
            )
        kwargs["population"] = ld.number(
            entry, "population", path, required=True, integer=True, minimum=1
        )
        kwargs["think_time"] = ld.number(entry, "think_time", path, required=True)
        kwargs["affinity"] = ld.number(entry, "affinity", path, default=0.0)
    try:
        return TenantSpec(**kwargs)
    except ReproError as exc:
        raise ld.fail(path, str(exc)) from None


def _load_chaos(ld: _Loader, section, topology: TopologySpec, duration: float):
    if section is None:
        return None, None
    ld.check_keys(section, CHAOS_KEYS, "chaos")
    text = ld.text(section, "spec", "chaos", required=True)
    try:
        plan = FaultPlan.parse(text)
    except ReproError as exc:
        raise ld.fail("chaos.spec", str(exc)) from None
    nodes = node_names(*node_split(topology.nodes))
    for event in plan:
        for target in filter(None, (event.target, event.peer)):
            if target not in nodes:
                raise ld.fail(
                    "chaos.spec",
                    f"clause {event.spec()!r} targets unknown node"
                    f" {target!r} (a {topology.nodes}-node cluster has:"
                    f" {', '.join(nodes)})",
                )
        if event.at >= duration:
            raise ld.fail(
                "chaos.spec",
                f"clause {event.spec()!r} fires at {event.at:g}s, past the"
                f" workload duration {duration:g}s",
            )
    recovery_section = ld.section(section, "recovery", "chaos.recovery")
    recovery = None
    if recovery_section is not None:
        recovery = _load_policy(
            ld, RecoveryPolicy, RECOVERY_KEYS, recovery_section, "chaos.recovery"
        )
    return text, recovery


def _load_policy(ld: _Loader, cls, keys, section: dict, path: str):
    """An all-numeric policy dataclass from its section.  A missing key
    means the dataclass's own default, and a key whose default is an
    ``int`` must be given as one."""
    ld.check_keys(section, keys, path)
    defaults = cls()
    try:
        return cls(
            **{
                key: ld.number(
                    section, key, path, default=getattr(defaults, key),
                    integer=isinstance(getattr(defaults, key), int),
                )
                for key in keys
            }
        )
    except ReproError as exc:
        raise ld.fail(path, str(exc)) from None


def _load_autoscale(ld: _Loader, section, topology: TopologySpec):
    if section is None:
        return None
    policy = _load_policy(ld, AutoscalePolicy, AUTOSCALE_KEYS, section, "autoscale")
    _, n_storage = node_split(topology.nodes)
    if policy.max_servers > n_storage:
        raise ld.fail(
            "autoscale.max_servers",
            f"{policy.max_servers} exceeds the {n_storage} storage servers"
            f" of a {topology.nodes}-node cluster",
        )
    return policy


def _load_checks(
    ld: _Loader,
    raw,
    tenants: Tuple[TenantSpec, ...],
    topology: TopologySpec,
    chaos: Optional[str],
    autoscale,
) -> Tuple[CheckSpec, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list) or not raw:
        raise ld.fail(
            "checks", f"must be a non-empty list of check objects, got {raw!r}"
        )
    out: List[CheckSpec] = []
    tenant_names = {t.name for t in tenants}
    for i, entry in enumerate(raw):
        path = f"checks[{i}]"
        if not isinstance(entry, dict):
            raise ld.fail(path, f"must be a check object, got {entry!r}")
        ld.check_keys(entry, CHECK_KEYS, path)
        kind = ld.text(entry, "check", path, required=True)
        if kind not in CHECKS:
            raise ld.fail(
                f"{path}.check",
                f"unknown check {kind!r}"
                f" (available: {', '.join(sorted(CHECKS))})",
            )
        value = ld.number(entry, "value", path)
        tenant = ld.text(entry, "tenant", path)
        if tenant is not None and tenant not in tenant_names:
            raise ld.fail(
                f"{path}.tenant",
                f"unknown tenant {tenant!r}"
                f" (declared: {', '.join(sorted(tenant_names))})",
            )
        alert = ld.text(entry, "alert", path)
        check = CheckSpec(check=kind, value=value, tenant=tenant, alert=alert)
        problem = validate_check(
            check,
            has_chaos=chaos is not None,
            has_autoscale=autoscale is not None,
            has_cache=topology.scheme == "DAS",
        )
        if problem:
            raise ld.fail(path, problem)
        out.append(check)
    return tuple(out)
