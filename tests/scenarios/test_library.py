"""The shipped scenario library: loads, materializes, and gates hold."""

import pytest

from repro.scenarios import (
    evaluate_checks,
    library_names,
    load_library,
    load_scenario,
    build_scenario,
    reference_spec,
    run_scenario,
)
from repro.harness.scenario_bench import SMOKE_SCENARIOS, scenario_bench

EXPECTED = {
    "black-friday",
    "cache-stampede",
    "noisy-neighbor",
    "region-loss",
    "rolling-upgrade",
}


def test_library_ships_the_named_scenarios():
    assert EXPECTED <= set(library_names())
    assert len(library_names()) >= 5


def test_every_library_scenario_loads_with_declared_gates():
    for spec in load_library():
        assert spec.description
        assert spec.checks, f"{spec.name} declares no checks"
        assert any(c.check == "conservation" for c in spec.checks), (
            f"{spec.name} must gate on conservation"
        )


def test_smoke_subset_is_in_the_library():
    assert set(SMOKE_SCENARIOS) <= set(library_names())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_library_scenario_materializes(name):
    spec = load_scenario(name)
    pfs, config = build_scenario(spec)
    assert config.scheme == spec.topology.scheme
    for file in spec.topology.files:
        assert pfs.metadata.lookup(file).size > 0
    assert {t.name for t in config.tenants} == {t.name for t in spec.tenants}


def test_fast_scenario_end_to_end_with_checks():
    spec = load_scenario("rolling-upgrade")
    summary, system = run_scenario(spec)
    twin_summary, twin = run_scenario(reference_spec(spec))
    results = evaluate_checks(
        spec.checks,
        summary,
        digests=system.executor.digests,
        reference=(twin_summary, twin.executor.digests),
    )
    assert results and all(ok for _, ok in results), [
        label for label, ok in results if not ok
    ]


def test_scenario_replay_is_bit_identical():
    spec = load_scenario("region-loss")
    first, first_system = run_scenario(spec)
    second, second_system = run_scenario(spec)
    assert first == second
    assert first_system.executor.digests == second_system.executor.digests


def test_reference_spec_strips_the_disturbances_only():
    spec = load_scenario("rolling-upgrade")
    ref = reference_spec(spec)
    assert ref.chaos is None and ref.recovery is None and ref.autoscale is None
    assert not ref.checks
    assert ref.tenants == spec.tenants
    assert ref.topology == spec.topology
    assert ref.seed == spec.seed


def test_scenario_bench_runs_the_smoke_subset():
    report = scenario_bench(scenarios=SMOKE_SCENARIOS, verify=True)
    assert report.experiment == "scenario-bench"
    assert len(report.rows) == len(SMOKE_SCENARIOS)
    assert report.checks
    assert report.all_checks_pass, [c for c, ok in report.checks if not ok]
    # One replay gate per scenario rides along with the declared checks.
    replays = [c for c, _ in report.checks if "bit-identical replay" in c]
    assert len(replays) == len(SMOKE_SCENARIOS)
