"""End-to-end serving tests over the real storage stack.

Low load: everything completes in time, nothing is shed, the decision
cache absorbs repeat consults.  Saturating load: overload is visible
(late / expired / p99 past the deadline), never silent.  And the whole
pipeline is bit-identically deterministic from the root seed.
"""

import pytest

from repro.harness.serve_bench import DEADLINE, serve_bench, serve_spec
from repro.scenarios import run_scenario
from repro.units import KiB

FAST = dict(duration=2.0)


def serve_cell(scheme, load, **changes):
    """One serve-bench cell's summary, straight from its spec."""
    return run_scenario(serve_spec(scheme, load, **changes))[0]


@pytest.fixture(scope="module")
def low_load_das():
    return serve_cell("DAS", 0.5, **FAST)


class TestLowLoad:
    def test_everything_completes(self, low_load_das):
        t = low_load_das["tenants"]["_all"]
        assert low_load_das["generated"] > 0
        assert t["admitted"] == low_load_das["generated"]
        assert t["completed"] == t["admitted"]
        assert t["rejected"] == t["late"] == t["expired"] == t["failed"] == 0

    def test_tail_meets_deadline(self, low_load_das):
        assert low_load_das["tenants"]["_all"]["lat_p99"] <= DEADLINE

    def test_conservation(self, low_load_das):
        assert low_load_das["admitted"] == low_load_das["settled"]

    def test_decision_cache_is_hot(self, low_load_das):
        stats = low_load_das["decision_cache"]
        assert stats["hits"] > 0
        assert stats["hits"] > stats["misses"]

    def test_offload_path_used(self, low_load_das):
        assert low_load_das["paths"]["offload"] > 0

    def test_all_tenants_served(self, low_load_das):
        for name in ("alpha", "beta", "gamma"):
            assert low_load_das["tenants"][name]["completed"] > 0


class TestSaturation:
    def test_nas_overload_is_visible(self):
        summary = serve_cell("NAS", 8.0, **FAST)
        t = summary["tenants"]["_all"]
        shed_or_slow = (
            t["late"] + t["expired"] + t["rejected"] > 0
            or t["lat_p99"] > DEADLINE
        )
        assert shed_or_slow
        # Overload never breaks accounting.
        assert summary["admitted"] == summary["settled"]

    def test_das_beats_nas_at_same_load(self):
        das = serve_cell("DAS", 2.0, **FAST)["tenants"]["_all"]
        nas = serve_cell("NAS", 2.0, **FAST)["tenants"]["_all"]
        assert das["lat_p99"] < nas["lat_p99"]


class TestDeterminism:
    @pytest.mark.parametrize("scheme", ["TS", "DAS"])
    def test_same_seed_same_summary(self, scheme):
        a = serve_cell(scheme, 1.0, **FAST)
        b = serve_cell(scheme, 1.0, **FAST)
        assert a == b


class TestBenchSmoke:
    def test_serve_bench_report(self):
        report = serve_bench(
            scale=512 * KiB,
            loads=(0.5,),
            schemes=("TS", "DAS"),
            verify=True,
            batch_max=4,
        )
        # TS@0.5 + DAS@0.5 unbatched, then the batch comparison doubles
        # the DAS loads (0.5 and the extra overload) both ways.
        assert len(report.rows) == 5
        for row in report.rows:
            assert row["completed"] > 0
        batched = [r for r in report.rows if r["batch"] > 1]
        assert batched and any(r["batch_hit_rate"] > 0 for r in batched)
        # Applicable checks on this reduced sweep: cache heat, the four
        # batching amortisation/identity claims, conservation, replay —
        # all must hold.
        assert report.checks
        assert all(ok for _, ok in report.checks)

    def test_serve_bench_batching_off_is_plain_sweep(self):
        report = serve_bench(
            scale=512 * KiB, loads=(0.5,), schemes=("TS",), verify=False,
            batch_max=1,
        )
        assert len(report.rows) == 1
        assert report.rows[0]["batch"] == 1
