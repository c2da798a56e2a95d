"""SLOWindow percentile/window math: the autoscale controller's signal.

The controller's breach/calm logic leans on exact edge behaviour —
empty windows mean *no signal* (not "0 ms, all healthy"), a lone sample
is its own p99, and slow finishes age out precisely one horizon later —
so these tests pin that contract, including the warm-up arithmetic the
``min_samples`` knob relies on.
"""

import pytest

from repro.errors import ServeError
from repro.serve import SLOBoard, SLOWindow
from repro.sim import MonitorHub
from repro.serve.workload import ServeRequest


def make_request(req_id, arrival, finished, deadline=1e9):
    req = ServeRequest(
        req_id=req_id,
        tenant="t",
        operator="gaussian",
        file="dem",
        arrival=arrival,
        deadline=deadline,
        cost=1,
    )
    req.finished = finished
    return req


class TestConstruction:
    def test_rejects_zero_horizon(self):
        with pytest.raises(ServeError):
            SLOWindow(0.0)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ServeError):
            SLOWindow(-1.0)


class TestEmptyWindow:
    """An empty window must read as *no signal*."""

    def test_count_is_zero(self):
        assert SLOWindow(2.0).count(now=10.0) == 0

    def test_p99_is_zero(self):
        assert SLOWindow(2.0).p99(now=10.0) == 0.0

    def test_latencies_empty(self):
        assert SLOWindow(2.0).latencies(now=10.0) == []

    def test_len_is_zero(self):
        assert len(SLOWindow(2.0)) == 0

    def test_summary_counts_nothing(self):
        assert SLOWindow(2.0).summary(now=10.0).count == 0


class TestSingleSample:
    """With one sample, every percentile IS that sample (nearest rank)."""

    def test_single_sample_is_the_p99(self):
        w = SLOWindow(2.0)
        w.record(finish=1.0, latency=0.42)
        assert w.p99(now=1.0) == pytest.approx(0.42)

    def test_single_sample_count(self):
        w = SLOWindow(2.0)
        w.record(finish=1.0, latency=0.42)
        assert w.count(now=1.0) == 1


class TestWarmUp:
    """Counts grow one by one — the ``min_samples`` warm-up signal."""

    def test_count_tracks_records(self):
        w = SLOWindow(10.0)
        for i in range(5):
            w.record(finish=float(i), latency=0.1)
            assert w.count(now=float(i)) == i + 1

    def test_p99_tracks_worst_recent_sample(self):
        # Nearest-rank p99 over a handful of samples is the max.
        w = SLOWindow(10.0)
        for i, lat in enumerate((0.1, 0.3, 0.2, 0.9, 0.4)):
            w.record(finish=float(i), latency=lat)
        assert w.p99(now=4.0) == pytest.approx(0.9)


class TestPruning:
    def test_sample_visible_within_horizon(self):
        w = SLOWindow(2.0)
        w.record(finish=1.0, latency=0.5)
        assert w.count(now=2.9) == 1

    def test_sample_ages_out_at_horizon(self):
        # finish <= now - horizon falls out: at now=3.0 the cutoff is
        # exactly the finish time, so the sample is gone.
        w = SLOWindow(2.0)
        w.record(finish=1.0, latency=0.5)
        assert w.count(now=3.0) == 0
        assert w.p99(now=3.0) == 0.0

    def test_slow_burst_ages_out_together(self):
        w = SLOWindow(2.0)
        for finish in (1.0, 1.1, 1.2):
            w.record(finish=finish, latency=5.0)
        w.record(finish=3.0, latency=0.1)
        assert w.p99(now=3.0) == pytest.approx(5.0)
        # One horizon after the burst, only the fast finish remains.
        assert w.latencies(now=3.3) == [0.1]
        assert w.p99(now=3.3) == pytest.approx(0.1)

    def test_pruning_is_permanent(self):
        # latencies() prunes in place; a later query at an earlier time
        # cannot resurrect the dropped samples (finish times and query
        # times both move forward in a simulation).
        w = SLOWindow(2.0)
        w.record(finish=1.0, latency=0.5)
        w.latencies(now=5.0)
        assert len(w) == 0


class TestOrdering:
    def test_out_of_order_finish_raises(self):
        w = SLOWindow(2.0)
        w.record(finish=2.0, latency=0.1)
        with pytest.raises(ServeError):
            w.record(finish=1.0, latency=0.1)

    def test_equal_finish_times_allowed(self):
        # Two requests settling at the same simulated instant are fine.
        w = SLOWindow(2.0)
        w.record(finish=2.0, latency=0.1)
        w.record(finish=2.0, latency=0.3)
        assert w.count(now=2.0) == 2


class TestBoardIntegration:
    """The board feeds the window on finish outcomes only."""

    def test_completed_and_late_enter_window(self, env):
        board = SLOBoard(MonitorHub(env), window_horizon=10.0)
        done = make_request(1, arrival=0.0, finished=1.0)
        late = make_request(2, arrival=0.0, finished=2.0, deadline=1.5)
        board.admitted(done)
        board.admitted(late)
        board.settle(done, "completed")
        board.settle(late, "late")
        assert board.window.count(now=2.0) == 2

    def test_expired_and_failed_stay_out(self, env):
        # Never-finished requests have no latency to report.
        board = SLOBoard(MonitorHub(env), window_horizon=10.0)
        expired = make_request(1, arrival=0.0, finished=None)
        failed = make_request(2, arrival=0.0, finished=None)
        board.admitted(expired)
        board.admitted(failed)
        board.settle(expired, "expired")
        board.settle(failed, "failed")
        assert board.window.count(now=5.0) == 0

    def test_default_horizon(self, env):
        assert SLOBoard(MonitorHub(env)).window.horizon == SLOBoard.WINDOW_HORIZON
