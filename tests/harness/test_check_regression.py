"""The regression gate (``python -m repro.verify regression``).

Coverage: the newly-added-bench seeding path — with a history ledger, a
candidate file with no committed baseline must seed its ledger and pass
instead of erroring, and the seeded entry must become the reference the
next run is gated against; without ``--history-dir`` a missing baseline
stays a hard failure — and the observer-fixture half: regenerated
fixtures are byte-compared with the committed ones by name, and the
closing summary counts payloads and fixtures separately.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro import verify
from repro.report.loaders import ATTRIBUTION_SUFFIX, TELEMETRY_SUFFIX

REPO = Path(__file__).resolve().parents[2]


def _payload(bench="serve", events=1200, scale=64):
    return {
        "schema": 1,
        "bench": bench,
        "scale_kb": scale,
        "wall_seconds_total": 1.0,
        "events_dispatched_total": events,
        "events_per_wall_second": events,
        "experiments": {},
    }


@pytest.fixture
def tree(tmp_path):
    base = tmp_path / "base"
    cand = tmp_path / "cand"
    hist = tmp_path / "hist"
    base.mkdir()
    cand.mkdir()
    return base, cand, hist


def _write(directory: Path, name: str, payload: dict):
    (directory / name).write_text(json.dumps(payload))


def _run(base, cand, hist=None, files=None):
    argv = ["regression", "--baseline", str(base), "--candidate", str(cand)]
    argv.append("--no-wall")
    if hist is not None:
        argv += ["--history-dir", str(hist)]
    if files:
        argv += ["--files", *files]
    return verify.main(argv)


class TestNewBenchSeeding:
    def test_missing_ledger_file_seeds_and_passes(self, tree):
        base, cand, hist = tree
        _write(base, "BENCH_serve.json", _payload())
        _write(cand, "BENCH_serve.json", _payload())
        assert _run(base, cand, hist) == 0
        entries = (hist / "BENCH_serve.jsonl").read_text().splitlines()
        assert len(entries) == 1
        assert json.loads(entries[0])["checks_pass"] is True

    def test_candidate_only_bench_seeds_and_passes(self, tree):
        base, cand, hist = tree
        _write(base, "BENCH_serve.json", _payload())
        _write(cand, "BENCH_serve.json", _payload())
        _write(cand, "BENCH_engine.json", _payload(bench="engine", events=99))
        # Default file list must pick up the candidate-only bench.
        assert _run(base, cand, hist) == 0
        seeded = json.loads((hist / "BENCH_engine.jsonl").read_text())
        assert seeded["bench"] == "engine"
        assert seeded["events_dispatched_total"] == 99
        assert seeded["checks_pass"] is True

    def test_seeded_entry_gates_the_next_run(self, tree):
        base, cand, hist = tree
        _write(base, "BENCH_serve.json", _payload())
        _write(cand, "BENCH_serve.json", _payload())
        _write(cand, "BENCH_engine.json", _payload(bench="engine", events=99))
        assert _run(base, cand, hist) == 0
        # Same events: still passes, ledger grows.
        assert _run(base, cand, hist) == 0
        # Drifted events: the seeded entry is now the reference.
        _write(cand, "BENCH_engine.json", _payload(bench="engine", events=100))
        assert _run(base, cand, hist) == 1
        entries = [
            json.loads(line)
            for line in (hist / "BENCH_engine.jsonl").read_text().splitlines()
        ]
        assert [e["checks_pass"] for e in entries] == [True, True, False]

    def test_failed_seed_never_becomes_reference(self, tree):
        base, cand, hist = tree
        _write(base, "BENCH_serve.json", _payload())
        _write(cand, "BENCH_serve.json", _payload(events=7777))  # drift
        assert _run(base, cand, hist) == 1
        # The logged failure must not gate (or pass) the next run.
        _write(cand, "BENCH_serve.json", _payload())
        assert _run(base, cand, hist) == 0

    def test_without_history_dir_missing_baseline_still_fails(self, tree):
        base, cand, _ = tree
        _write(base, "BENCH_serve.json", _payload())
        _write(cand, "BENCH_serve.json", _payload())
        _write(cand, "BENCH_engine.json", _payload(bench="engine"))
        # Named explicitly: hard failure, as before.
        assert _run(base, cand, files=["BENCH_engine.json"]) == 1
        # Default list without a ledger ignores candidate-only strays.
        assert _run(base, cand) == 0

    def test_missing_candidate_fails_even_with_history(self, tree):
        base, cand, hist = tree
        _write(base, "BENCH_serve.json", _payload())
        assert _run(base, cand, hist, files=["BENCH_serve.json"]) == 1


class TestObserverFixtures:
    """Regenerated ``*.attribution.json`` / ``*.telemetry.json`` must equal
    the committed fixture of the same name byte for byte."""

    @pytest.fixture
    def record(self, tree):
        base, cand, _ = tree
        _write(base, "BENCH_serve.json", _payload())
        _write(cand, "BENCH_serve.json", _payload())
        for kind, suffix in (
            ("attribution", ATTRIBUTION_SUFFIX),
            ("telemetry", TELEMETRY_SUFFIX),
        ):
            (base / kind).mkdir()
            (cand / kind).mkdir()
            name = "serve_DAS_x1" + suffix
            shutil.copy(REPO / "benchmarks" / kind / name, base / kind / name)
            shutil.copy(REPO / "benchmarks" / kind / name, cand / kind / name)
        return base, cand

    def test_identical_regeneration_passes(self, record, capsys):
        base, cand = record
        assert _run(base, cand) == 0
        out = capsys.readouterr().out
        assert "1/1 BENCH payload(s) match" in out
        assert "2 regenerated fixture(s) byte-compared, 0 fixture problem(s)" in out

    @pytest.mark.parametrize(
        "kind, suffix",
        [("attribution", ATTRIBUTION_SUFFIX), ("telemetry", TELEMETRY_SUFFIX)],
    )
    def test_tampered_fixture_copy_fails_by_name(self, record, capsys, kind, suffix):
        base, cand = record
        name = "serve_DAS_x1" + suffix
        path = cand / kind / name
        # Still valid JSON, still the same document — only the bytes moved.
        path.write_text(path.read_text().replace("\n", "\n ", 1))
        assert _run(base, cand) == 1
        out = capsys.readouterr().out
        assert f"{name}: regenerated fixture" in out
        # A fixture failure is not a BENCH payload failure.
        assert "1/1 BENCH payload(s) match" in out
        assert "1 fixture problem(s)" in out

    def test_regenerated_cell_without_a_committed_twin_is_not_compared(
        self, record, capsys
    ):
        base, cand = record
        (cand / "attribution" / ("new_cell" + ATTRIBUTION_SUFFIX)).write_text("{}")
        assert _run(base, cand) == 0
        assert "2 regenerated fixture(s) byte-compared" in capsys.readouterr().out

    def test_committed_fixture_below_the_tracer_bounds_fails(self, record, capsys):
        base, cand = record
        name = "serve_DAS_x1" + ATTRIBUTION_SUFFIX
        for root in (base, cand):  # byte-equal, but no longer acceptable
            doc = json.loads((root / "attribution" / name).read_text())
            doc["min_coverage"] = 0.5
            (root / "attribution" / name).write_text(json.dumps(doc))
        assert _run(base, cand) == 1
        assert "span coverage floor 0.5" in capsys.readouterr().out
