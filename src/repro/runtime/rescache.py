"""Content-addressed cross-request inference result cache.

Sustainability report corpora are boilerplate-heavy: the same objective
sentences recur across reports, reporting years, and serving requests, so
the encoder forward — the hot path since the bucketed scheduler landed —
keeps recomputing identical work. This module caches *results* (per-token
logits, class-probability rows, even final serving values) keyed by
content, so a repeated input costs one hash lookup instead of a forward
pass.

Why this is safe on this substrate:

* **Keys are content-addressed and model-pinned.** A key hashes the
  normalized token ids (or request texts) together with the model's
  :meth:`~repro.nn.module.Module.fingerprint` — the same SHA-256
  weight-content digest convention as :func:`repro.nn.serialize.state_digest`
  and the artifact manifests. There is one numeric path (fp32), so
  content plus weights is the whole key: a hot-swapped checkpoint or a
  resumed fine-tune changes it, and the cache can never serve records
  computed by different weights.
* **Hits are bitwise-identical to misses.** The scheduler's packing
  invariance (PR 1) guarantees a sequence's logits do not depend on its
  microbatch-mates, so computing only the misses — in whatever packing
  they land in — reproduces exactly what a full uncached run would have
  produced.
* **Eviction is bounded and seeded-deterministic.** At capacity the cache
  evicts a pseudo-random entry drawn from a generator seeded at
  construction: random replacement is scan-resistant (a one-pass corpus
  sweep cannot flush the resident boilerplate the way LRU's would), and
  seeding it makes hit/miss/eviction *statistics* reproducible run to
  run. Eviction only ever affects speed — never values.

Thread-safe throughout: the serving engine probes and fills one shared
cache from many worker threads.
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Iterable
from typing import Any

import numpy as np

__all__ = [
    "CacheStats",
    "ResultCache",
    "result_key",
]

#: Counter names the prediction paths emit into ``PerfCounters`` (and
#: ``RunStats`` surfaces; see DESIGN.md §6e for the full contract).
HITS = "result_cache_hits"
MISSES = "result_cache_misses"
EVICTIONS = "result_cache_evictions"
BYPASSES = "result_cache_bypasses"
CACHED_TOKENS = "result_cache_tokens"


def result_key(
    token_ids: Iterable[int] | str,
    model_fingerprint: str,
) -> str:
    """Content-addressed cache key: ids/text + weights.

    ``token_ids`` is the normalized token id sequence (the classifier
    layer) or a raw text payload (the serving layer). The model
    fingerprint pins the exact weight bytes.
    """
    digest = hashlib.sha256()
    digest.update(model_fingerprint.encode("ascii"))
    digest.update(b"|")
    if isinstance(token_ids, str):
        digest.update(b"text:")
        digest.update(token_ids.encode("utf-8"))
    else:
        digest.update(b"ids:")
        digest.update(np.asarray(list(token_ids), dtype=np.int64).tobytes())
    return digest.hexdigest()


class CacheStats:
    """Thread-safe hit/miss/eviction/insertion counters."""

    __slots__ = ("hits", "misses", "evictions", "insertions", "_lock")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0
        self._lock = threading.Lock()

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> dict[str, float]:
        """JSON-ready point-in-time view (hit_rate included)."""
        with self._lock:
            hits, misses = self.hits, self.misses
            evictions, insertions = self.evictions, self.insertions
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "insertions": insertions,
            "hit_rate": hits / lookups if lookups else 0.0,
        }


class ResultCache:
    """Bounded, thread-safe, content-addressed result store.

    Values are stored as read-only copies (numpy arrays get a frozen
    copy; other values are stored as-is and must be treated as
    immutable) and returned by reference — callers that mutate results
    must copy first, which the classifier integration does.

    Args:
        capacity: maximum number of entries (must be positive).
        seed: seed of the eviction generator; two caches built with the
            same seed and fed the same operation sequence evict the same
            keys, making cache statistics reproducible.
    """

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.seed = seed
        self.stats = CacheStats()
        self._entries: dict[str, Any] = {}
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __getstate__(self) -> dict:
        # Caches are value-transparent; a pickled copy (parallel-shard
        # broadcast, serving snapshots) starts empty with fresh stats so
        # every worker's numbers describe only its own shard.
        return {"capacity": self.capacity, "seed": self.seed}

    def __setstate__(self, state: dict) -> None:
        self.__init__(capacity=state["capacity"], seed=state["seed"])

    def get(self, key: str) -> Any | None:
        """The cached value for ``key``, or ``None`` (counted hit/miss)."""
        with self._lock:
            value = self._entries.get(key)
            with self.stats._lock:
                if value is None:
                    self.stats.misses += 1
                else:
                    self.stats.hits += 1
            return value

    def peek(self, key: str) -> Any | None:
        """Like :meth:`get` but without touching hit/miss statistics."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, value: Any) -> int:
        """Insert ``value`` under ``key``; returns how many were evicted.

        Numpy arrays are copied and frozen so later in-place edits by the
        producer can never corrupt cached results. Re-inserting an
        existing key overwrites in place (no eviction).
        """
        if isinstance(value, np.ndarray):
            value = value.copy()
            value.setflags(write=False)
        with self._lock:
            evicted = 0
            if key not in self._entries:
                while len(self._entries) >= self.capacity:
                    keys = list(self._entries)
                    victim = keys[int(self._rng.integers(len(keys)))]
                    del self._entries[victim]
                    evicted += 1
            self._entries[key] = value
            with self.stats._lock:
                self.stats.insertions += 1
                self.stats.evictions += evicted
            return evicted

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        with self._lock:
            self._entries.clear()

    def drain_counters(self, counters) -> None:
        """Fold current stats into a ``PerfCounters`` and reset them.

        Emits the documented counter names (``result_cache_hits``,
        ``result_cache_misses``, ``result_cache_evictions``) so one
        run's :class:`~repro.runtime.profiling.RunStats` sees exactly the
        activity since the previous drain — which is what lets per-shard
        stats merge back additively in the parallel runtime.
        """
        with self.stats._lock:
            hits, misses = self.stats.hits, self.stats.misses
            evictions = self.stats.evictions
            self.stats.hits = 0
            self.stats.misses = 0
            self.stats.evictions = 0
            self.stats.insertions = 0
        if hits:
            counters.add(HITS, hits)
        if misses:
            counters.add(MISSES, misses)
        if evictions:
            counters.add(EVICTIONS, evictions)
