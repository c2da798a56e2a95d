"""The continuous-results pipeline (`repro.report`).

Coverage: the table formatting rules the byte-stability contract rests
on, largest-remainder apportionment in the flame renderer (bars always
sum to exactly the requested width), request-class grouping, a golden
end-to-end emission from a compact fixture tree, determinism of the
emitter, and the committed docs/RESULTS.md staying in sync with the
committed measurement record (the same gate `python -m repro.verify
results` runs in CI).
"""

import json
from pathlib import Path

import pytest

from repro.errors import HarnessError
from repro.report import generate_results
from repro.report.flame import (
    BAR_WIDTH,
    STAGE_GLYPHS,
    partition_bar,
    render_flame,
    request_classes,
    share_bar,
)
from repro.report.loaders import load_attributions, load_benchmarks, load_history
from repro.report.tables import (
    format_value,
    ledger_range,
    markdown_table,
    row_columns,
    rows_table,
)

REPO = Path(__file__).resolve().parents[2]


class TestTables:
    @pytest.mark.parametrize(
        "value,cell",
        [
            (None, ""),
            (True, "yes"),
            (False, "no"),
            (3, "3"),
            (3.0, "3"),
            (-2.0, "-2"),
            (0.25, "0.25"),
            (0.123456, "0.1235"),
            (1234.5678, "1235"),
            ("DAS", "DAS"),
        ],
    )
    def test_format_value(self, value, cell):
        assert format_value(value) == cell

    def test_markdown_table_shape(self):
        lines = markdown_table(["a", "b"], [[1, True], [None, 0.5]])
        assert lines == [
            "| a | b |",
            "|---|---|",
            "| 1 | yes |",
            "|  | 0.5 |",
        ]

    def test_row_columns_first_appearance_order(self):
        rows = [{"b": 1, "a": 2}, {"a": 3, "c": 4}]
        assert row_columns(rows) == ["b", "a", "c"]

    def test_rows_table_empty(self):
        assert rows_table([]) == ["*(no rows)*"]

    def test_ledger_range(self):
        entries = [{"w": 1.5}, {"w": 3.0}, {"w": 2.0}]
        assert ledger_range(entries, "w") == "1.5–3"
        assert ledger_range(entries[:1], "w") == "1.5"
        assert ledger_range([{"w": 2.0}, {"w": 2.0}], "w") == "2"
        assert ledger_range([{"other": 1}], "w") == ""


class TestShareBar:
    def test_proportional(self):
        assert share_bar(0.5, width=10) == "#" * 5

    def test_nonzero_share_never_empty(self):
        assert share_bar(0.001, width=10) == "#"

    def test_zero_and_clamping(self):
        assert share_bar(0.0) == ""
        assert share_bar(-1.0) == ""
        assert share_bar(2.0, width=8) == "#" * 8


class TestPartitionBar:
    @pytest.mark.parametrize(
        "stages",
        [
            [("queue", 1.0), ("rpc", 1.0), ("compute", 1.0)],
            [("queue", 0.1), ("rpc", 0.9)],
            [("queue", 1e-9), ("rpc", 1.0)],
            [("queue", 1.0)],
            [("queue", 7.0), ("rpc", 11.0), ("compute", 13.0), ("fence", 17.0)],
        ],
    )
    @pytest.mark.parametrize("width", [1, 5, 48, 97])
    def test_bar_always_sums_to_width(self, stages, width):
        bar = partition_bar(stages, width)
        assert len(bar) == width

    def test_zero_and_negative_stages_dropped(self):
        bar = partition_bar(
            [("queue", 0.0), ("rpc", 1.0), ("fence", -2.0)], width=6
        )
        assert bar == STAGE_GLYPHS["rpc"] * 6

    def test_empty_inputs(self):
        assert partition_bar([], width=10) == ""
        assert partition_bar([("queue", 0.0)], width=10) == ""
        assert partition_bar([("queue", 1.0)], width=0) == ""

    def test_largest_remainder_beats_flooring(self):
        # Thirds of 10: floors are 3+3+3, the leftover cell must land on
        # exactly one stage (first in order, remainders tie) — never
        # dropped, never doubled.
        bar = partition_bar(
            [("queue", 1.0), ("rpc", 1.0), ("compute", 1.0)], width=10
        )
        assert bar.count(STAGE_GLYPHS["queue"]) == 4
        assert bar.count(STAGE_GLYPHS["rpc"]) == 3
        assert bar.count(STAGE_GLYPHS["compute"]) == 3

    def test_segments_keep_stage_order(self):
        bar = partition_bar([("queue", 1.0), ("rpc", 1.0)], width=8)
        assert bar == "qqqqRRRR"


class TestRequestClasses:
    def test_groups_by_tenant_and_outcome(self):
        rows = [
            {"tenant": "b", "outcome": "late", "latency_s": 2.0,
             "coverage": 0.9, "queue_s": 2.0},
            {"tenant": "a", "outcome": "completed", "latency_s": 1.0,
             "coverage": 1.0, "rpc_s": 1.0},
            {"tenant": "a", "outcome": "completed", "latency_s": 3.0,
             "coverage": 0.8, "rpc_s": 3.0},
        ]
        classes = request_classes(rows)
        assert [(c["tenant"], c["outcome"]) for c in classes] == [
            ("a", "completed"),
            ("b", "late"),
        ]
        a = classes[0]
        assert a["count"] == 2
        assert a["mean_latency_s"] == pytest.approx(2.0)
        assert a["mean_coverage"] == pytest.approx(0.9)
        assert a["stages"] == {"rpc": pytest.approx(4.0)}

    def test_latency_is_not_a_stage(self):
        classes = request_classes(
            [{"tenant": "a", "outcome": "completed", "latency_s": 1.0,
              "queue_s": 1.0}]
        )
        assert "latency" not in classes[0]["stages"]


class TestRenderFlame:
    REPORT = {
        "requests": 2,
        "min_coverage": 0.98,
        "max_attribution_error": 0.004,
        "stages": [
            {"stage": "queue", "seconds": 0.2, "share": 0.25, "mean_s": 0.1},
            {"stage": "rpc", "seconds": 0.6, "share": 0.75, "mean_s": 0.3},
        ],
        "per_request": [
            {"req_id": 1, "tenant": "a", "outcome": "completed",
             "latency_s": 0.4, "coverage": 0.99, "queue_s": 0.1, "rpc_s": 0.3},
            {"req_id": 2, "tenant": "b", "outcome": "late",
             "latency_s": 0.8, "coverage": 0.98, "queue_s": 0.6, "rpc_s": 0.2},
        ],
    }

    def test_header_carries_acceptance_figures(self):
        lines = render_flame(self.REPORT, "cell")
        assert lines[0] == (
            "cell — 2 requests · min coverage 98.0%"
            " · max attribution error 0.40%"
        )

    def test_every_class_bar_is_full_width(self):
        for line in render_flame(self.REPORT, "cell"):
            if "|" in line:
                bar = line.split("|")[1]
                assert len(bar) == BAR_WIDTH

    def test_legend_names_only_used_stages(self):
        text = "\n".join(render_flame(self.REPORT, "cell"))
        assert "q=queue R=rpc" in text
        assert "f=fence" not in text

    def test_empty_report_is_just_the_header(self):
        lines = render_flame({"requests": 0}, "empty")
        assert len(lines) == 1


def _write_fixture_tree(root: Path):
    bench = root / "bench"
    hist = root / "hist"
    attr = root / "attr"
    for d in (bench, hist, attr):
        d.mkdir()
    payload = {
        "schema": 1, "bench": "serve", "scale_kb": 64,
        "wall_seconds_total": 2.0, "events_dispatched_total": 1200,
        "events_per_wall_second": 600,
        "experiments": {
            "serve-bench": {
                "title": "Tiny sweep", "wall_seconds": 2.0,
                "events_dispatched": 1200, "events_per_wall_second": 600,
                "all_checks_pass": True,
                "checks": [{"claim": "DAS beats NAS", "passed": True}],
                "notes": "fixture",
                "rows": [
                    {"scheme": "DAS", "load": 1.0, "p99_s": 0.25},
                    {"scheme": "NAS", "load": 1.0, "p99_s": 0.5},
                ],
            }
        },
    }
    (bench / "BENCH_serve.json").write_text(json.dumps(payload))
    (hist / "BENCH_serve.jsonl").write_text(
        json.dumps({
            "bench": "serve", "scale_kb": 64,
            "events_dispatched_total": 1200, "wall_seconds_total": 2.0,
            "events_per_wall_second": 600, "checks_pass": True,
        }) + "\n"
    )
    (attr / "tiny.attribution.json").write_text(json.dumps({
        "requests": 2, "min_coverage": 0.98, "max_attribution_error": 0.004,
        "stages": [
            {"stage": "queue", "seconds": 0.2, "share": 0.25, "mean_s": 0.1},
            {"stage": "rpc", "seconds": 0.6, "share": 0.75, "mean_s": 0.3},
        ],
        "per_request": [
            {"req_id": 1, "tenant": "a", "outcome": "completed",
             "latency_s": 0.4, "coverage": 0.99,
             "queue_s": 0.1, "rpc_s": 0.3},
            {"req_id": 2, "tenant": "a", "outcome": "completed",
             "latency_s": 0.4, "coverage": 0.98,
             "queue_s": 0.1, "rpc_s": 0.3},
        ],
    }))
    return bench, hist, attr


#: The exact document the fixture tree must render to.  A change to the
#: emitter is a change to this string *and* to the committed
#: docs/RESULTS.md, in the same commit.
GOLDEN = """\
# Results

<!-- GENERATED FILE — do not edit by hand.
     Regenerate:  PYTHONPATH=src python -m repro.report
     Drift gate:  PYTHONPATH=src python -m repro.verify results  (CI job: record) -->

The measured state of the repository, rendered from its committed
measurement record and nothing else: the [`benchmarks/`](../benchmarks)
`BENCH_*.json` snapshots (payload schema: [BENCHMARKS.md](BENCHMARKS.md)),
the append-only [`benchmarks/history/`](../benchmarks/history) ledger the
regression gate keeps, the committed critical-path attribution
fixtures under [`benchmarks/attribution/`](../benchmarks/attribution),
and the sampled telemetry artifacts under
[`benchmarks/telemetry/`](../benchmarks/telemetry).
Simulated quantities (rows, check verdicts, event counts) are exactly
reproducible and printed as-is; host-dependent quantities (wall clocks,
events/wall-second) appear only as ranges over the recorded history.

## Snapshot overview

| snapshot | family | scale_kb | experiments | checks | events dispatched | wall s (recorded range) |
|---|---|---|---|---|---|---|
| `BENCH_serve.json` | serve | 64 | 1 | ✓ 1/1 | 1200 | 2 |

`events dispatched` is the exactly-reproducible engine-event
count — any drift is a behaviour change, not noise.  The wall
range spans every run the
[history ledger](BENCHMARKS.md#the-history-ledger) has recorded
and is host-dependent.

## serve (`BENCH_serve.json`)

*Tiny sweep*

✓ **1/1** shape checks pass · events dispatched: 1200

Notes: fixture

| scheme | load | p99_s |
|---|---|---|
| DAS | 1 | 0.25 |
| NAS | 1 | 0.5 |


## Run-over-run trends

One row per run recorded by
[`python -m repro.verify regression --history-dir`](BENCHMARKS.md#the-history-ledger)
(append order; a new entry lands on every gated regeneration,
so the trajectory grows PR over PR).  `events dispatched` must
be identical between passing runs at the same scale; the wall
and throughput columns are host-dependent context, not gates.

### serve trajectory

| run | scale_kb | events dispatched | wall s | events / wall s | verdict |
|---|---|---|---|---|---|
| 1 | 64 | 1200 | 2 | 600 | ✓ |

## Where the latency goes (critical path)

Committed critical-path attributions from traced bench cells
(`--trace-dir`), rendered by the text flame renderer
(`repro.report.flame`; method and schema:
[OBSERVABILITY.md](OBSERVABILITY.md#the-text-flame-renderer-and-the-attribution-file)).
Each request class's bar is its mean latency partitioned into
per-stage segments by the deepest-span rule, so segment widths
are shares of measured latency — not estimates.

```text
tiny — 2 requests · min coverage 98.0% · max attribution error 0.40%

queue     0.2000 s   25.0%  ########
rpc       0.6000 s   75.0%  ########################

per request class (tenant/outcome; q=queue R=rpc):

a/completed  n=2    mean 0.4000 s  |qqqqqqqqqqqqRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRR|
```
"""


class TestEmit:
    def test_golden_emission(self, tmp_path):
        bench, hist, attr = _write_fixture_tree(tmp_path)
        text = generate_results(
            bench_dir=bench, history_dir=hist, attribution_dir=attr,
            telemetry_dir=tmp_path / "no-telemetry",
        )
        assert text == GOLDEN

    def test_two_generations_byte_identical(self, tmp_path):
        bench, hist, attr = _write_fixture_tree(tmp_path)
        first = generate_results(
            bench_dir=bench, history_dir=hist, attribution_dir=attr,
            telemetry_dir=tmp_path / "no-telemetry",
        )
        second = generate_results(
            bench_dir=bench, history_dir=hist, attribution_dir=attr,
            telemetry_dir=tmp_path / "no-telemetry",
        )
        assert first == second

    def test_single_entry_ledger_renders_point_range(self, tmp_path):
        # One recorded run: the range collapses to a single value and
        # the trajectory table has exactly one data row.
        bench, hist, attr = _write_fixture_tree(tmp_path)
        text = generate_results(
            bench_dir=bench, history_dir=hist, attribution_dir=attr,
            telemetry_dir=tmp_path / "no-telemetry",
        )
        trend = text.split("### serve trajectory")[1].split("##")[0]
        data_rows = [
            ln for ln in trend.splitlines()
            if ln.startswith("|") and not ln.startswith(("| run", "|---"))
        ]
        assert len(data_rows) == 1
        assert "| 2 |" in data_rows[0]  # wall rendered as one value, no dash

    def test_missing_history_and_attribution_sections_degrade(self, tmp_path):
        bench, _, _ = _write_fixture_tree(tmp_path)
        text = generate_results(
            bench_dir=bench,
            history_dir=tmp_path / "no-hist",
            attribution_dir=tmp_path / "no-attr",
            telemetry_dir=tmp_path / "no-telemetry",
        )
        assert "### serve trajectory" not in text
        assert "## Where the latency goes" not in text
        assert "## Fleet health timeline" not in text
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_failing_check_is_called_out(self, tmp_path):
        bench, hist, attr = _write_fixture_tree(tmp_path)
        payload = json.loads((bench / "BENCH_serve.json").read_text())
        exp = payload["experiments"]["serve-bench"]
        exp["checks"].append({"claim": "NAS beats DAS", "passed": False})
        exp["all_checks_pass"] = False
        (bench / "BENCH_serve.json").write_text(json.dumps(payload))
        text = generate_results(
            bench_dir=bench, history_dir=hist, attribution_dir=attr,
            telemetry_dir=tmp_path / "no-telemetry",
        )
        assert "✗ **1/2** shape checks pass — failing: NAS beats DAS" in text
        assert "| `BENCH_serve.json` | serve | 64 | 1 | ✗ 1/2 |" in text


class TestLoaders:
    def test_missing_bench_dir_raises(self, tmp_path):
        with pytest.raises(HarnessError):
            load_benchmarks(tmp_path / "nope")

    def test_non_payload_json_raises(self, tmp_path):
        (tmp_path / "BENCH_bogus.json").write_text('{"rows": []}')
        with pytest.raises(HarnessError, match="not a bench trajectory"):
            load_benchmarks(tmp_path)

    def test_unknown_files_follow_canonical_order(self, tmp_path):
        for name, bench in (
            ("BENCH_paper.json", "paper"),
            ("BENCH_serve.json", "serve"),
            ("BENCH_aaa.json", "extra"),
        ):
            (tmp_path / name).write_text(
                json.dumps({"bench": bench, "experiments": {}})
            )
        loaded = [s.filename for s in load_benchmarks(tmp_path)]
        # serve before paper (writer order), strangers last by name.
        assert loaded == [
            "BENCH_serve.json", "BENCH_paper.json", "BENCH_aaa.json"
        ]

    def test_absent_optional_dirs_are_empty(self, tmp_path):
        assert load_history(tmp_path / "none") == {}
        assert load_attributions(tmp_path / "none") == []


class TestCommittedReport:
    """The repository's own RESULTS.md must match its inputs — the same
    byte-for-byte gate CI runs (``python -m repro.verify results``)."""

    def test_committed_results_in_sync(self):
        committed = (REPO / "docs" / "RESULTS.md").read_text(encoding="utf-8")
        regenerated = generate_results(
            bench_dir=REPO / "benchmarks",
            history_dir=REPO / "benchmarks" / "history",
            attribution_dir=REPO / "benchmarks" / "attribution",
            telemetry_dir=REPO / "benchmarks" / "telemetry",
        )
        assert committed == regenerated
