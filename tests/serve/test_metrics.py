"""Unit tests for the SLO metrics layer and the merge-safe run stats."""

import threading

import pytest

from repro.runtime.profiling import PerfCounters, RunStats
from repro.serve.loadgen import _latency_summary
from repro.serve.metrics import LatencyHistogram, SloMetrics

pytestmark = pytest.mark.serve


class TestLatencyHistogram:
    def test_empty_snapshot(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50"] == 0.0
        assert snapshot["p99"] == 0.0

    def test_quantiles_nearest_rank(self):
        hist = LatencyHistogram()
        for value in range(1, 101):  # 1..100 ms
            hist.observe(value / 1000.0)
        snapshot = hist.snapshot()
        assert snapshot["count"] == 100
        assert snapshot["p50"] == pytest.approx(0.050)
        assert snapshot["p95"] == pytest.approx(0.095)
        assert snapshot["p99"] == pytest.approx(0.099)
        assert snapshot["max_seconds"] == pytest.approx(0.100)
        assert snapshot["mean_seconds"] == pytest.approx(0.0505)

    @pytest.mark.parametrize(
        "count, name, q, expected",
        [(5, "p50", 0.50, 3.0), (30, "p95", 0.95, 29.0)],
    )
    def test_nearest_rank_takes_the_ceiling_rank(
        self, count, name, q, expected
    ):
        # ceil(q * n): rank 3 of 5 for p50 and rank 29 of 30 for p95,
        # where round-half-to-even would pick ranks 2 and 28.
        samples = [float(value) for value in range(1, count + 1)]
        hist = LatencyHistogram()
        for value in samples:
            hist.observe(value)
        assert hist.quantile(q) == expected
        assert hist.snapshot()[name] == expected
        assert _latency_summary(samples)[name] == expected

    def test_ring_buffer_keeps_exact_totals(self):
        hist = LatencyHistogram(max_samples=8)
        for value in range(100):
            hist.observe(float(value))
        snapshot = hist.snapshot()
        # count/mean/max are exact even after the reservoir wrapped.
        assert snapshot["count"] == 100
        assert snapshot["max_seconds"] == 99.0
        # quantiles come from the retained window (the last 8 samples).
        assert snapshot["p50"] >= 92.0

    def test_concurrent_observe_keeps_count(self):
        hist = LatencyHistogram()
        threads = [
            threading.Thread(
                target=lambda: [hist.observe(0.001) for _ in range(500)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.snapshot()["count"] == 2000


class TestSloMetrics:
    def test_snapshot_shape(self):
        clock_value = [0.0]
        metrics = SloMetrics(clock=lambda: clock_value[0])
        metrics.count("submitted")
        metrics.count("completed", 2)
        metrics.observe("extract.total", 0.004)
        clock_value[0] = 2.0
        snapshot = metrics.snapshot()
        assert snapshot["uptime_seconds"] == pytest.approx(2.0)
        assert snapshot["counters"]["submitted"] == 1
        assert snapshot["counters"]["completed"] == 2
        assert snapshot["latency"]["extract.total"]["count"] == 1
        assert snapshot["throughput"]["completed"] == 2
        assert snapshot["throughput"]["requests_per_second"] == pytest.approx(
            1.0
        )


class TestPerfCountersConcurrency:
    def test_parallel_adds_do_not_lose_updates(self):
        counters = PerfCounters()

        def hammer():
            for _ in range(1000):
                counters.add("hits")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counters.get("hits") == 8000

    def test_merge_and_snapshot(self):
        a, b = PerfCounters(), PerfCounters()
        a.add("hits", 3)
        b.add("hits", 2)
        b.add("misses", 1)
        a.merge(b)
        assert a.snapshot() == {"hits": 5, "misses": 1}
        # snapshot is a copy, not a live view
        a.snapshot()["hits"] = 99
        assert a.get("hits") == 5


class TestRunStatsMerge:
    def test_merge_sums_fields(self):
        a = RunStats(wall_seconds=1.0, sequences=10, total_tokens=100,
                     bpe_cache_hits=5, retries=1)
        b = RunStats(wall_seconds=0.5, sequences=4, total_tokens=40,
                     bpe_cache_hits=2, failures=1)
        merged = a.merge(b)
        assert merged.wall_seconds == pytest.approx(1.5)
        assert merged.sequences == 14
        assert merged.total_tokens == 140
        assert merged.bpe_cache_hits == 7
        assert merged.retries == 1
        assert merged.failures == 1
        # merge returns a new instance; inputs stay untouched
        assert a.sequences == 10 and b.sequences == 4

    def test_merge_sums_timings_and_extra(self):
        a = RunStats(timings={"encode": 1.0}, extra={"batches": 2})
        b = RunStats(timings={"encode": 0.5, "forward": 0.2},
                     extra={"batches": 3})
        merged = a.merge(b)
        assert merged.timings == {"encode": 1.5, "forward": 0.2}
        assert merged.extra == {"batches": 5}
