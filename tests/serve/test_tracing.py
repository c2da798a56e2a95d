"""Tracing's determinism contract against real serving runs.

The two halves of the observability bargain, end to end:

* **Non-perturbing** — a traced run settles every request with the same
  digests and latencies as the untraced run of the same cell;
* **Complete** — the tree it collects explains (nearly) all of every
  request's latency, exports to structurally valid Perfetto JSON, and
  survives the critical-path acceptance bounds.

The traced *replay* (artifacts on disk, the four bench checks) is
covered with its telemetry twin in ``tests/harness/test_replays.py``.
"""

import pytest

from repro.harness.replays import MAX_ATTRIBUTION_ERROR, MIN_COVERAGE
from repro.harness.serve_bench import serve_spec
from repro.metrics.critical_path import critical_path
from repro.obs import Tracer, trace_document, validate_trace
from repro.scenarios import run_scenario

CELL = serve_spec("DAS", 1.0, duration=1.5)


@pytest.fixture(scope="module")
def untraced():
    return run_scenario(CELL)[0]


@pytest.fixture(scope="module")
def traced():
    tracer = Tracer()
    summary, _ = run_scenario(CELL, tracer=tracer)
    return tracer, summary


class TestNonPerturbation:
    def test_traced_summary_is_bit_identical(self, untraced, traced):
        _, summary = traced
        assert summary == untraced

    def test_every_settled_request_has_a_closed_root(self, traced):
        tracer, summary = traced
        settled = sum(
            summary["tenants"][t][k]
            for t in summary["tenants"]
            if t != "_all"
            for k in ("completed", "late", "expired", "failed")
        )
        closed = [
            root for root in tracer.requests.values() if root.end is not None
        ]
        assert len(closed) == settled
        assert all("outcome" in root.attrs for root in closed)


class TestCoverage:
    def test_critical_path_meets_the_acceptance_bounds(self, traced):
        tracer, _ = traced
        report = critical_path(tracer)
        assert report.count > 0
        assert report.min_coverage() >= MIN_COVERAGE
        assert report.max_attribution_error() <= MAX_ATTRIBUTION_ERROR

    def test_the_tree_spans_the_whole_serving_path(self, traced):
        tracer, _ = traced
        cats = {span.cat for span in tracer.spans}
        assert {"request", "queue", "attempt", "rpc"} <= cats

    def test_export_validates_clean(self, traced):
        tracer, _ = traced
        doc = trace_document(tracer, meta={"cell": "test"})
        assert validate_trace(doc) == []
