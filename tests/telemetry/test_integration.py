"""Telemetry across the stack: serving runs, replay owner, artifacts.

The expensive fixtures run one short serving cell sampled and one
unsampled (module scope, shared across tests), proving the
non-perturbation contract on the real serving path; the rest covers
the sampled replay's alert expectations, the structural validator, the
scenario ``alert_*`` checks, and the committed fixtures under
``benchmarks/telemetry/``.  (The sampled replay's artifact round-trip is
covered with its tracing twin in ``tests/harness/test_replays.py``.)
"""

import json
from functools import partial
from pathlib import Path

import pytest

from repro.harness.replays import Replays
from repro.harness.serve_bench import serve_spec
from repro.scenarios import run_scenario
from repro.scenarios.checks import evaluate_check
from repro.scenarios.spec import CheckSpec
from repro.sim.core import events_dispatched_total, untallied
from repro.telemetry import TelemetryConfig
from repro.verify import artifacts

REPO = Path(__file__).resolve().parents[2]
FIXTURES = REPO / "benchmarks" / "telemetry"

DURATION = 1.5
CELL = serve_spec("DAS", 1.0, duration=DURATION)


@pytest.fixture(scope="module")
def unsampled():
    return run_scenario(CELL)[0]


@pytest.fixture(scope="module")
def sampled():
    summary, system = run_scenario(CELL, telemetry=TelemetryConfig())
    return summary, system.telemetry


class TestNonPerturbation:
    def test_sampled_summary_is_bit_identical_outside_its_own_block(
        self, unsampled, sampled
    ):
        summary, _ = sampled
        assert "telemetry" in summary
        stripped = {k: v for k, v in summary.items() if k != "telemetry"}
        assert stripped == unsampled

    def test_sampler_covered_the_whole_run(self, sampled):
        _, sampler = sampled
        assert sampler.samples == int(DURATION / sampler.interval)

    def test_summary_block_and_payload_agree(self, sampled):
        summary, sampler = sampled
        block = summary["telemetry"]
        doc = sampler.payload("cell")
        assert doc["samples"] == block["samples"]
        for label, scope_block in block["scopes"].items():
            assert len(doc["scopes"][label]["series"]) == scope_block["series"]


class TestReplayHelper:
    def test_missing_expected_alert_fails_the_check(self, unsampled, tmp_path):
        checks = Replays(telemetry_dir=tmp_path).sampled(
            "cell",
            partial(run_scenario, CELL),
            unsampled,
            {},
            expect_alerts=("availability-burn",),
        )
        # A healthy cell burns no budget: the expectation must fail
        # loudly, not silently pass.
        fired_check = [ok for m, ok in checks if "declared alerts fired" in m]
        assert fired_check == [False]

    def test_replay_events_stay_out_of_the_global_tally(self):
        before = events_dispatched_total()
        with untallied():
            run_scenario(CELL)
        assert events_dispatched_total() == before


class TestScenarioAlertChecks:
    SUMMARY = {
        "telemetry": {
            "scopes": {
                "cell": {
                    "alerts": {
                        "fired": ["failover-surge", "latency-burn"],
                        "resolved": ["failover-surge"],
                    }
                }
            }
        }
    }

    def test_alert_fired_reads_the_ledger(self):
        label, ok = evaluate_check(
            CheckSpec(check="alert_fired", alert="latency-burn"), self.SUMMARY
        )
        assert ok and "latency-burn" in label

    def test_alert_resolved_requires_the_full_lifecycle(self):
        _, ok = evaluate_check(
            CheckSpec(check="alert_resolved", alert="failover-surge"),
            self.SUMMARY,
        )
        assert ok
        _, ok = evaluate_check(
            CheckSpec(check="alert_resolved", alert="latency-burn"),
            self.SUMMARY,
        )
        assert not ok  # fired but never resolved

    def test_unknown_rule_fails(self):
        _, ok = evaluate_check(
            CheckSpec(check="alert_fired", alert="no-such-rule"), self.SUMMARY
        )
        assert not ok


class TestCommittedFixtures:
    def test_all_four_fixtures_validate_clean(self):
        paths = sorted(FIXTURES.glob("*.telemetry.json"))
        assert len(paths) == 4
        for path in paths:
            problems, _, _ = artifacts.check_telemetry_file(path)
            assert problems == [], (path.name, problems)

    def test_chaos_fixture_records_the_burn_lifecycle(self):
        path = FIXTURES / "chaos_crash_NAS.telemetry.json"
        _, fired, resolved = artifacts.check_telemetry_file(path)
        assert {"availability-burn", "latency-burn"} <= fired
        assert {"availability-burn", "latency-burn"} <= resolved

    def test_healthy_serve_fixture_stays_silent(self):
        path = FIXTURES / "serve_DAS_x1.telemetry.json"
        _, fired, _ = artifacts.check_telemetry_file(path)
        assert fired == set()

    def test_validator_rejects_a_tampered_ledger(self, tmp_path):
        doc = json.loads(
            (FIXTURES / "chaos_crash_NAS.telemetry.json").read_text()
        )
        for scope in doc["scopes"].values():
            if scope.get("alerts", {}).get("ledger"):
                entry = scope["alerts"]["ledger"][0]
                entry["resolved_at"] = entry["fired_at"]  # resolve <= fire
        bad = tmp_path / "bad.telemetry.json"
        bad.write_text(json.dumps(doc))
        problems, _, _ = artifacts.check_telemetry_file(bad)
        assert problems

    def test_validator_rejects_a_wrong_schema_marker(self, tmp_path):
        doc = json.loads((FIXTURES / "serve_DAS_x1.telemetry.json").read_text())
        doc["schema"] = "repro.telemetry/0"
        (tmp_path / "old.telemetry.json").write_text(json.dumps(doc))
        problems = artifacts.check_telemetry(tmp_path)
        assert len(problems) == 1
        assert "old.telemetry.json: schema is 'repro.telemetry/0'" in problems[0]

    def test_gate_pins_declared_alert_lifecycles(self):
        assert artifacts.check_telemetry(
            FIXTURES,
            expect_fired=["availability-burn"],
            expect_resolved=["latency-burn"],
        ) == []
        problems = artifacts.check_telemetry(
            FIXTURES, expect_fired=["no-such-rule"]
        )
        assert len(problems) == 1 and "'no-such-rule' to have fired" in problems[0]


class TestTimelineRendering:
    def test_sparkline_is_deterministic_and_bounded(self):
        from repro.report import sparkline

        values = [0.0, 1.0, 2.0, 4.0, 8.0, 4.0, 2.0, 1.0]
        line = sparkline(values)
        assert line == sparkline(values)
        assert len(line) == len(values)
        assert set(line) <= set("▁▂▃▄▅▆▇█")

    def test_sparkline_downsamples_to_width(self):
        from repro.report import sparkline

        assert len(sparkline(list(range(100)), width=20)) == 20

    def test_flat_series_renders_flat(self):
        from repro.report import sparkline

        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"

    def test_health_strip_marks_the_incident_window(self):
        from repro.report.emit import _health_strip

        ledger = [
            {"severity": "page", "fired_at": 0.5, "resolved_at": 1.0},
            {"severity": "ticket", "fired_at": 1.5, "resolved_at": None},
        ]
        strip = _health_strip(ledger, 0.25, 8)
        # Boundaries 0.25..2.0: page active [0.5, 1.0), unresolved
        # ticket from 1.5 to the end of the strip.
        assert strip == "·██··▒▒▒"

    def test_timeline_section_renders_the_committed_fixtures(self):
        from repro.report import load_telemetry
        from repro.report.emit import _timeline_section

        fixtures = load_telemetry(FIXTURES)
        assert [f.label for f in fixtures] == sorted(f.label for f in fixtures)
        lines = _timeline_section(fixtures)
        text = "\n".join(lines)
        assert "## Fleet health timeline" in text
        assert "availability-burn" in text
        # Deterministic: same fixtures, same rendering.
        assert lines == _timeline_section(load_telemetry(FIXTURES))
