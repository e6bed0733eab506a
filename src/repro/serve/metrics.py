"""SLO metrics for the online serving tier.

The batch runtime reports throughput per *run* (:mod:`repro.runtime.profiling`);
an online engine needs distributions per *request*: latency percentiles,
the queue-wait vs. compute split, and shed/degrade counts. This module
extends the profiling layer with thread-safe latency histograms and a
snapshot API the engine exposes via ``ServingEngine.metrics_snapshot()``.

Everything here is stdlib + plain floats, serializes to JSON, and is safe
to touch from many worker threads at once.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Sequence

from repro.runtime.profiling import PerfCounters

#: Quantiles every histogram snapshot reports.
SLO_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of ascending ``ordered`` (0 if empty).

    That is the ``ceil(q * n)``-th smallest sample (the smallest for
    ``q == 0``). ``q * n`` is rounded to 9 places first, because float
    products such as ``0.07 * 100`` land an ulp above the integer.
    """
    if not ordered:
        return 0.0
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[min(len(ordered), max(1, rank)) - 1]


class LatencyHistogram:
    """Bounded reservoir of latency samples with exact rank quantiles.

    Keeps the most recent ``max_samples`` observations in a ring buffer
    (count/sum/max stay exact over the full lifetime) and computes
    p50/p95/p99 by nearest-rank over the retained window. Thread-safe.
    """

    def __init__(self, max_samples: int = 8192) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.max_samples = max_samples
        self._samples: list[float] = []
        self._cursor = 0
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        value = float(seconds)
        with self._lock:
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value
            if len(self._samples) < self.max_samples:
                self._samples.append(value)
            else:
                self._samples[self._cursor] = value
                self._cursor = (self._cursor + 1) % self.max_samples

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained window (0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            ordered = sorted(self._samples)
        return nearest_rank(ordered, q)

    def snapshot(self) -> dict[str, float]:
        """JSON-ready summary: count, mean, max, and the SLO quantiles."""
        with self._lock:
            count = self._count
            total = self._sum
            peak = self._max
            ordered = sorted(self._samples)
        summary = {
            "count": count,
            "mean_seconds": total / count if count else 0.0,
            "max_seconds": peak,
        }
        for name, q in SLO_QUANTILES:
            summary[name] = nearest_rank(ordered, q)
        return summary


class SloMetrics:
    """The engine's metrics registry: counters + named latency histograms.

    Histogram names follow ``<kind>.<phase>`` (``extract.queue_wait``,
    ``extract.compute``, ``detect.total`` ...); counters use flat names
    (``completed``, ``rejected``, ``degraded``, ``batches`` ...). The
    snapshot derives throughput from ``completed`` over the observation
    window so an idle engine reports a decaying rate, not a stale one.
    """

    def __init__(
        self,
        max_samples: int = 8192,
        clock=time.monotonic,
    ) -> None:
        self.counters = PerfCounters()
        self._histograms: dict[str, LatencyHistogram] = {}
        self._max_samples = max_samples
        self._lock = threading.Lock()
        self._clock = clock
        self._started_at = clock()

    def histogram(self, name: str) -> LatencyHistogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = LatencyHistogram(self._max_samples)
                self._histograms[name] = histogram
            return histogram

    def observe(self, name: str, seconds: float) -> None:
        self.histogram(name).observe(seconds)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters.add(name, amount)

    def snapshot(self) -> dict:
        """One consistent JSON-ready view of every counter and histogram."""
        with self._lock:
            histograms = dict(self._histograms)
        counters = self.counters.snapshot()
        elapsed = max(self._clock() - self._started_at, 1e-9)
        completed = counters.get("completed", 0.0)
        return {
            "uptime_seconds": elapsed,
            "counters": counters,
            "latency": {
                name: histogram.snapshot()
                for name, histogram in sorted(histograms.items())
            },
            "throughput": {
                "completed": completed,
                "requests_per_second": completed / elapsed,
            },
            "cache": _cache_view(counters),
        }


def merge_counters(snapshots) -> dict[str, float]:
    """Sum flat counter dicts (one per replica) into one fleet-wide view.

    The fleet router aggregates its replicas' ``SloMetrics`` counters with
    this before deriving fleet-level rates — counters are additive across
    engines, unlike latency quantiles (which the router observes itself,
    per completed request, into its own histograms).
    """
    merged: dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            merged[name] = merged.get(name, 0.0) + value
    return merged


def fleet_cache_view(counter_snapshots, cache_stats_snapshots=()) -> dict:
    """The fleet-wide result-cache view: merged hit rates + store totals.

    ``counter_snapshots`` are per-replica ``SloMetrics`` counter dicts
    (carrying the submit-time ``cache.hits/misses.<priority>`` counters);
    ``cache_stats_snapshots`` are per-replica
    :meth:`repro.runtime.rescache.CacheStats.snapshot` dicts. Each
    replica probes only its own :class:`~repro.runtime.rescache.ResultCache`,
    so hit-rate is only meaningful fleet-wide after this merge — a
    request that hits on one replica may miss on its siblings.
    """
    view = _cache_view(merge_counters(counter_snapshots))
    store = {"hits": 0.0, "misses": 0.0, "evictions": 0.0, "insertions": 0.0}
    for snapshot in cache_stats_snapshots:
        for key in store:
            store[key] += float(snapshot.get(key, 0.0))
    lookups = store["hits"] + store["misses"]
    store["hit_rate"] = store["hits"] / lookups if lookups else 0.0
    view["store"] = store
    return view


def _cache_view(counters: dict[str, float]) -> dict:
    """Per-priority result-cache hit rates from the flat counters.

    The engine counts ``cache.hits.<priority>`` / ``cache.misses.<priority>``
    at submit time; this folds them into ``{priority: {hits, misses,
    hit_rate}}`` so SLO dashboards can see who benefits from the fast path
    (interactive traffic usually should; bulk sweeps usually churn).
    """
    priorities: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        for verdict, prefix in (
            ("hits", "cache.hits."),
            ("misses", "cache.misses."),
        ):
            if name.startswith(prefix):
                priority = name[len(prefix):]
                priorities.setdefault(
                    priority, {"hits": 0.0, "misses": 0.0}
                )[verdict] = value
    for stats in priorities.values():
        lookups = stats["hits"] + stats["misses"]
        stats["hit_rate"] = stats["hits"] / lookups if lookups else 0.0
    return {
        "fast_path": counters.get("cache_fast_path", 0.0),
        "by_priority": dict(sorted(priorities.items())),
    }
