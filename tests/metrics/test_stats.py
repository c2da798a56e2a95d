"""Tests for the canonical latency-summary helper."""

import pytest

from repro.metrics import LatencySummary, latency_summary, percentile


class TestPercentile:
    def test_nearest_rank_small(self):
        xs = list(range(1, 11))  # 1..10
        assert percentile(xs, 50) == 5
        assert percentile(xs, 95) == 10
        assert percentile(xs, 99) == 10
        assert percentile(xs, 100) == 10
        assert percentile(xs, 10) == 1

    def test_nearest_rank_hundred(self):
        xs = list(range(1, 101))  # 1..100
        assert percentile(xs, 50) == 50
        assert percentile(xs, 95) == 95
        assert percentile(xs, 99) == 99

    def test_result_is_always_an_element(self):
        xs = [0.1, 0.2, 0.7]
        for q in (1, 33, 50, 66, 90, 99, 100):
            assert percentile(xs, q) in xs

    def test_empty_returns_zero(self):
        assert percentile([], 99) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_singleton(self):
        assert percentile([3.5], 50) == 3.5
        assert percentile([3.5], 99) == 3.5


class TestLatencySummary:
    def test_summary_fields(self):
        s = latency_summary([0.3, 0.1, 0.2, 0.4])
        assert s.count == 4
        assert s.mean == pytest.approx(0.25)
        assert s.p50 == 0.2
        assert s.max == 0.4

    def test_unsorted_input_is_sorted(self):
        assert latency_summary([5, 1, 3]).p50 == 3

    def test_empty_summary_is_zero(self):
        s = latency_summary([])
        assert s == LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)

    def test_row_shape(self):
        row = latency_summary([1.0]).row
        assert set(row) == {"count", "mean", "p50", "p95", "p99", "max"}

    def test_deterministic(self):
        xs = [0.017 * (i % 13) for i in range(200)]
        assert latency_summary(xs) == latency_summary(list(xs))

