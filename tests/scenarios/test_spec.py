"""Schema round-trip: document -> spec -> to_dict -> spec, no drift."""

import json

from repro.faults import RecoveryPolicy
from repro.scenarios import SCHEMA_SECTIONS, load_scenario
from repro.scenarios.spec import (
    ScenarioSpec,
    TopologySpec,
    AUTOSCALE_KEYS,
    CHECK_KEYS,
    TENANT_KEYS,
    TOP_KEYS,
    TOPOLOGY_KEYS,
)

FULL_DOC = {
    "name": "everything",
    "description": "one of each section",
    "seed": 7,
    "topology": {
        "nodes": 8,
        "scheme": "DAS",
        "ingest": "partition",
        "partition_servers": 2,
        "files": ["dem_a"],
        "raster": [64, 96],
        "operator": "gaussian",
    },
    "workload": {
        "duration": 3.0,
        "deadline": 1.0,
        "load": 1.5,
        "ramp": [[0.0, 0.5], [1.0, 2.0]],
        "tenants": [
            {"name": "open", "rate": 4.0, "weight": 2.0,
             "kernels": ["gaussian", "median"], "files": ["dem_a"]},
            {"name": "closed", "mode": "closed", "population": 2,
             "think_time": 0.1, "affinity": 0.7, "files": ["dem_a"]},
        ],
    },
    "service": {
        "queue_capacity": 10,
        "concurrency": 4,
        "batch_max": 2,
        "load_bias": 0.5,
        "decision_ttl": 0.5,
        "retry": {"max_attempts": 3, "backoff": 0.01, "backoff_factor": 1.5},
    },
    "chaos": {
        "spec": "crash:s1@0.5;recover:s1@1.5",
        "recovery": {"rpc_timeout": 0.2, "max_attempts": 2, "backoff": 0.02,
                     "hedge_delay": 0.1},
    },
    "autoscale": {"min_servers": 2, "max_servers": 4, "interval": 0.25},
    "checks": [
        {"check": "conservation"},
        {"check": "availability_min", "value": 0.9, "tenant": "open"},
        {"check": "crc_identity"},
    ],
}

MINIMAL_DOC = {
    "name": "minimal",
    "workload": {
        "duration": 1.0,
        "deadline": 0.5,
        "tenants": [{"name": "t", "rate": 1.0, "files": ["dem_a"]}],
    },
}


def test_full_document_round_trips():
    spec = load_scenario(FULL_DOC)
    assert load_scenario(spec.to_dict()) == spec


def test_round_trip_survives_json_serialization():
    spec = load_scenario(FULL_DOC)
    assert load_scenario(json.loads(json.dumps(spec.to_dict()))) == spec


def test_minimal_document_round_trips_with_defaults():
    spec = load_scenario(MINIMAL_DOC)
    assert spec.load == 1.0
    assert spec.seed == 20120910
    assert spec.topology.scheme == "DAS"
    assert spec.chaos is None and spec.autoscale is None
    assert load_scenario(spec.to_dict()) == spec


def test_missing_keys_mean_the_dataclass_defaults():
    # The loader reads defaults off the dataclasses, so a spec built
    # from the required fields alone is what a minimal document loads to.
    spec = load_scenario(MINIMAL_DOC)
    assert spec == ScenarioSpec(
        name=spec.name,
        description="",
        topology=TopologySpec(),
        tenants=spec.tenants,
        duration=spec.duration,
        deadline=spec.deadline,
    )
    # Present-but-empty policy sections default key by key.
    empty = load_scenario({
        **MINIMAL_DOC,
        "service": {"retry": {}},
        "chaos": {"spec": "crash:s1@0.5", "recovery": {}},
    })
    assert empty.retry == spec.retry
    assert empty.recovery == RecoveryPolicy()


def test_optional_sections_absent_from_minimal_dict():
    out = load_scenario(MINIMAL_DOC).to_dict()
    for key in ("chaos", "autoscale", "checks"):
        assert key not in out
    assert "ramp" not in out["workload"]
    assert "partition_servers" not in out["topology"]
    assert "decision_ttl" not in out["service"]


def test_full_dict_reflects_every_declared_section():
    out = load_scenario(FULL_DOC).to_dict()
    assert out["topology"]["partition_servers"] == 2
    assert out["workload"]["ramp"] == [[0.0, 0.5], [1.0, 2.0]]
    assert out["chaos"]["spec"] == "crash:s1@0.5;recover:s1@1.5"
    assert out["autoscale"]["max_servers"] == 4
    assert [c["check"] for c in out["checks"]] == [
        "conservation", "availability_min", "crc_identity",
    ]
    # Mode-specific tenant serialization: open carries rate, closed
    # carries the population knobs, never both.
    by_name = {t["name"]: t for t in out["workload"]["tenants"]}
    assert "rate" in by_name["open"] and "population" not in by_name["open"]
    assert "population" in by_name["closed"] and "rate" not in by_name["closed"]


def test_schema_sections_cover_the_key_vocabulary():
    assert SCHEMA_SECTIONS["top"] == TOP_KEYS
    assert SCHEMA_SECTIONS["topology"] == TOPOLOGY_KEYS
    assert SCHEMA_SECTIONS["tenant"] == TENANT_KEYS
    assert SCHEMA_SECTIONS["autoscale"] == AUTOSCALE_KEYS
    assert SCHEMA_SECTIONS["check"] == CHECK_KEYS
    # Every section's keys are unique strings.
    for keys in SCHEMA_SECTIONS.values():
        assert len(set(keys)) == len(keys)
