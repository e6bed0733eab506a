"""Lightweight perf counters for the inference runtime.

Table 4's "minutes" column and the deployment story (Tables 5-7) are
throughput claims; this module gives every prediction path trustworthy
numbers to back them: wall-clock timers, token counters, padding-waste and
cache-hit ratios. Everything is plain floats/ints and serializes to JSON
(``benchmarks/bench_inference_throughput.py`` asserts the schema).
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from collections.abc import Iterator


class PerfCounters:
    """Accumulating named counters plus wall-clock timers.

    Thread-safe: ``add``/``merge``/``snapshot`` take an internal lock, so
    per-worker counters in the serving engine can aggregate into a shared
    instance without losing increments.
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Locks don't pickle; counters cross process boundaries as a
        # point-in-time snapshot (the parallel runtime merges them back
        # with ``merge``).
        return {"_values": self.snapshot()}

    def __setstate__(self, state: dict) -> None:
        self._values = dict(state["_values"])
        self._lock = threading.Lock()

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0.0) + amount

    def get(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._values.get(name, default)

    @contextlib.contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the elapsed seconds of the ``with`` body into ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def merge(self, other: "PerfCounters") -> None:
        """Fold another counter set into this one (sum per name)."""
        for name, value in other.snapshot().items():
            self.add(name, value)

    def snapshot(self) -> dict[str, float]:
        """A consistent point-in-time copy of all counters."""
        with self._lock:
            return dict(self._values)

    def as_dict(self) -> dict[str, float]:
        return self.snapshot()


@dataclasses.dataclass
class RunStats:
    """Observability record of one batched inference run.

    Exposed as ``WeakSupervisionExtractor.last_run_stats`` (and mirrored by
    the detector and the GoalSpotter pipeline) after every production call.
    """

    wall_seconds: float = 0.0
    sequences: int = 0
    microbatches: int = 0
    total_tokens: int = 0
    padded_tokens: int = 0
    bpe_cache_hits: int = 0
    bpe_cache_misses: int = 0
    # Content-addressed result cache (repro.runtime.rescache): sequence
    # lookups, deterministic evictions, whole calls served without a
    # forward pass (bypasses), and effective tokens served from cache.
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    result_cache_evictions: int = 0
    result_cache_bypasses: int = 0
    result_cache_tokens: int = 0
    # Robustness counters (filled by the fault-tolerant runtime paths).
    retries: int = 0
    failures: int = 0
    degraded: int = 0
    quarantined: int = 0
    timings: dict[str, float] = dataclasses.field(default_factory=dict)
    extra: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def tokens_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total_tokens / self.wall_seconds

    @property
    def padding_waste(self) -> float:
        """Fraction of the encoder's padded footprint spent on padding.

        Only computed tokens occupy that footprint, so the tokens served
        from the result cache are taken out of ``total_tokens`` first.
        """
        if self.padded_tokens == 0:
            return 0.0
        computed = self.total_tokens - self.result_cache_tokens
        return 1.0 - computed / self.padded_tokens

    @property
    def bpe_cache_hit_rate(self) -> float:
        lookups = self.bpe_cache_hits + self.bpe_cache_misses
        if lookups == 0:
            return 0.0
        return self.bpe_cache_hits / lookups

    @property
    def result_cache_hit_rate(self) -> float:
        lookups = self.result_cache_hits + self.result_cache_misses
        if lookups == 0:
            return 0.0
        return self.result_cache_hits / lookups

    def as_dict(self) -> dict:
        """JSON-ready flat view, derived ratios included."""
        return {
            "wall_seconds": self.wall_seconds,
            "sequences": self.sequences,
            "microbatches": self.microbatches,
            "total_tokens": self.total_tokens,
            "padded_tokens": self.padded_tokens,
            "tokens_per_second": self.tokens_per_second,
            "padding_waste": self.padding_waste,
            "bpe_cache_hits": self.bpe_cache_hits,
            "bpe_cache_misses": self.bpe_cache_misses,
            "bpe_cache_hit_rate": self.bpe_cache_hit_rate,
            "result_cache_hits": self.result_cache_hits,
            "result_cache_misses": self.result_cache_misses,
            "result_cache_evictions": self.result_cache_evictions,
            "result_cache_bypasses": self.result_cache_bypasses,
            "result_cache_tokens": self.result_cache_tokens,
            "result_cache_hit_rate": self.result_cache_hit_rate,
            "retries": self.retries,
            "failures": self.failures,
            "degraded": self.degraded,
            "quarantined": self.quarantined,
            "timings": dict(self.timings),
            "extra": dict(self.extra),
        }

    def merge(self, other: "RunStats") -> "RunStats":
        """A new RunStats summing this one and ``other``.

        Ratios (tokens/sec, hit rates) re-derive from the summed fields,
        so per-worker stats aggregate into fleet-wide numbers exactly.
        """
        timings = dict(self.timings)
        for name, value in other.timings.items():
            timings[name] = timings.get(name, 0.0) + value
        extra = dict(self.extra)
        for name, value in other.extra.items():
            extra[name] = extra.get(name, 0.0) + value
        return RunStats(
            wall_seconds=self.wall_seconds + other.wall_seconds,
            sequences=self.sequences + other.sequences,
            microbatches=self.microbatches + other.microbatches,
            total_tokens=self.total_tokens + other.total_tokens,
            padded_tokens=self.padded_tokens + other.padded_tokens,
            bpe_cache_hits=self.bpe_cache_hits + other.bpe_cache_hits,
            bpe_cache_misses=self.bpe_cache_misses + other.bpe_cache_misses,
            result_cache_hits=self.result_cache_hits
            + other.result_cache_hits,
            result_cache_misses=self.result_cache_misses
            + other.result_cache_misses,
            result_cache_evictions=self.result_cache_evictions
            + other.result_cache_evictions,
            result_cache_bypasses=self.result_cache_bypasses
            + other.result_cache_bypasses,
            result_cache_tokens=self.result_cache_tokens
            + other.result_cache_tokens,
            retries=self.retries + other.retries,
            failures=self.failures + other.failures,
            degraded=self.degraded + other.degraded,
            quarantined=self.quarantined + other.quarantined,
            timings=timings,
            extra=extra,
        )

    @classmethod
    def from_counters(
        cls,
        counters: PerfCounters,
        wall_seconds: float,
        bpe_cache_hits: int = 0,
        bpe_cache_misses: int = 0,
        extra: dict[str, float] | None = None,
    ) -> "RunStats":
        """Assemble stats from the counters the prediction paths fill in."""
        values = counters.as_dict()
        timings = {
            name: value
            for name, value in values.items()
            if name.endswith("_seconds")
        }
        return cls(
            wall_seconds=wall_seconds,
            sequences=int(values.get("sequences", 0)),
            microbatches=int(values.get("microbatches", 0)),
            total_tokens=int(values.get("total_tokens", 0)),
            padded_tokens=int(values.get("padded_tokens", 0)),
            bpe_cache_hits=bpe_cache_hits,
            bpe_cache_misses=bpe_cache_misses,
            result_cache_hits=int(values.get("result_cache_hits", 0)),
            result_cache_misses=int(values.get("result_cache_misses", 0)),
            result_cache_evictions=int(
                values.get("result_cache_evictions", 0)
            ),
            result_cache_bypasses=int(
                values.get("result_cache_bypasses", 0)
            ),
            result_cache_tokens=int(values.get("result_cache_tokens", 0)),
            retries=int(values.get("retries", 0)),
            failures=int(values.get("stage_failures", 0)),
            degraded=int(values.get("degraded", 0)),
            quarantined=int(values.get("quarantined", 0)),
            timings=timings,
            extra=extra or {},
        )
