"""Unit tests for the content-addressed result cache."""

import pickle
import threading

import numpy as np
import pytest

from repro.runtime import rescache
from repro.runtime.profiling import PerfCounters
from repro.runtime.rescache import CacheStats, ResultCache, result_key

pytestmark = pytest.mark.cache


class TestResultKey:
    def test_deterministic(self):
        assert result_key([1, 2, 3], "fp") == result_key([1, 2, 3], "fp")

    def test_single_id_flip_changes_key(self):
        base = result_key([1, 2, 3], "fp")
        assert result_key([1, 2, 4], "fp") != base
        assert result_key([1, 2], "fp") != base
        assert result_key([3, 2, 1], "fp") != base

    def test_fingerprint_pins_weights(self):
        """A hot-swapped checkpoint must never share cache entries."""
        assert result_key([1, 2], "sha-a") != result_key([1, 2], "sha-b")

    def test_text_and_ids_never_collide(self):
        # The payload is prefixed by kind, so a text that happens to
        # decode to the same bytes as an id sequence keys differently.
        ids = np.asarray([101], dtype=np.int64).tobytes().decode("latin-1")
        assert result_key([101], "fp") != result_key(ids, "fp")

    def test_accepts_generators(self):
        assert result_key(iter([5, 6]), "fp") == result_key([5, 6], "fp")


class TestCacheStats:
    def test_snapshot_and_hit_rate(self):
        stats = CacheStats()
        stats.hits, stats.misses = 3, 1
        snap = stats.snapshot()
        assert snap["hits"] == 3
        assert snap["misses"] == 1
        assert snap["hit_rate"] == pytest.approx(0.75)
        assert stats.lookups == 4

    def test_zero_lookups_rate(self):
        assert CacheStats().hit_rate == 0.0


class TestResultCache:
    def test_get_put_roundtrip(self):
        cache = ResultCache(capacity=4)
        key = result_key([1, 2], "fp")
        assert cache.get(key) is None
        cache.put(key, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(
            cache.get(key), np.arange(6.0).reshape(2, 3)
        )
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_put_copies_and_freezes_arrays(self):
        cache = ResultCache(capacity=2)
        value = np.ones(3)
        cache.put("k", value)
        value[:] = 7.0  # producer mutation must not leak into the cache
        np.testing.assert_array_equal(cache.get("k"), np.ones(3))
        with pytest.raises(ValueError):
            cache.get("k")[0] = 0.0

    def test_capacity_is_enforced(self):
        cache = ResultCache(capacity=3)
        for index in range(10):
            cache.put(f"k{index}", index)
        assert len(cache) == 3
        assert cache.stats.evictions == 7

    def test_put_returns_eviction_count(self):
        cache = ResultCache(capacity=2)
        assert cache.put("a", 1) == 0
        assert cache.put("b", 2) == 0
        assert cache.put("c", 3) == 1

    def test_reinsert_overwrites_without_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 9) == 0
        assert cache.get("a") == 9
        assert len(cache) == 2

    def test_eviction_is_seeded_deterministic(self):
        """Same seed + same operation sequence -> same survivors."""
        def run(seed):
            cache = ResultCache(capacity=8, seed=seed)
            for index in range(50):
                cache.put(f"k{index}", index)
            return set(cache._entries)

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide

    def test_peek_does_not_count(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        assert cache.stats.lookups == 0

    def test_clear_keeps_stats(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_pickle_resets_entries_and_stats(self):
        """Broadcast copies start empty: per-shard stats stay honest."""
        cache = ResultCache(capacity=13, seed=21)
        cache.put("a", np.ones(2))
        cache.get("a")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.capacity == 13
        assert clone.seed == 21
        assert len(clone) == 0
        assert clone.stats.lookups == 0
        # The original is untouched.
        assert len(cache) == 1

    def test_drain_counters_emits_documented_names_and_resets(self):
        cache = ResultCache(capacity=2)
        cache.get("missing")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts one; "c" itself is always resident
        assert cache.get("c") == 3
        counters = PerfCounters()
        cache.drain_counters(counters)
        values = counters.snapshot()
        assert values[rescache.MISSES] == 1
        assert values[rescache.HITS] == 1
        assert values[rescache.EVICTIONS] == 1
        assert cache.stats.lookups == 0
        assert cache.stats.evictions == 0
        # A second drain adds nothing (everything was reset).
        cache.drain_counters(counters)
        assert counters.snapshot() == values

    def test_thread_safety_smoke(self):
        cache = ResultCache(capacity=16)

        def hammer(worker):
            for index in range(200):
                key = f"k{(worker * 7 + index) % 32}"
                cache.put(key, index)
                cache.get(key)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 16
        assert cache.stats.lookups == 800
