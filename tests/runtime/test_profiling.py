"""Tests for the runtime perf counters and run statistics."""

import json

import numpy as np

from repro.models.token_classifier import TokenClassifier
from repro.nn.encoder import EncoderConfig
from repro.runtime.profiling import PerfCounters, RunStats
from repro.runtime.rescache import ResultCache


class TestPerfCounters:
    def test_add_and_get(self):
        counters = PerfCounters()
        counters.add("sequences", 3)
        counters.add("sequences", 2)
        assert counters.get("sequences") == 5

    def test_get_default(self):
        assert PerfCounters().get("missing", default=-1.0) == -1.0

    def test_timer_accumulates(self):
        counters = PerfCounters()
        with counters.timer("work_seconds"):
            pass
        first = counters.get("work_seconds")
        with counters.timer("work_seconds"):
            pass
        assert counters.get("work_seconds") >= first >= 0.0

    def test_timer_records_on_exception(self):
        counters = PerfCounters()
        try:
            with counters.timer("work_seconds"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert counters.get("work_seconds") >= 0.0
        assert "work_seconds" in counters.as_dict()


class TestRunStats:
    def test_derived_ratios(self):
        stats = RunStats(
            wall_seconds=2.0,
            sequences=4,
            microbatches=2,
            total_tokens=100,
            padded_tokens=125,
            bpe_cache_hits=30,
            bpe_cache_misses=10,
        )
        assert stats.tokens_per_second == 50.0
        assert stats.padding_waste == 1.0 - 100 / 125
        assert stats.bpe_cache_hit_rate == 0.75

    def test_zero_denominators_are_safe(self):
        stats = RunStats()
        assert stats.tokens_per_second == 0.0
        assert stats.padding_waste == 0.0
        assert stats.bpe_cache_hit_rate == 0.0

    def test_as_dict_is_json_serializable(self):
        stats = RunStats(
            wall_seconds=1.0,
            total_tokens=10,
            padded_tokens=20,
            timings={"model_seconds": 0.5},
            extra={"normalize_cache_hits": 2.0},
        )
        payload = json.loads(json.dumps(stats.as_dict()))
        assert payload["tokens_per_second"] == 10.0
        assert payload["padding_waste"] == 0.5
        assert payload["timings"]["model_seconds"] == 0.5
        assert payload["extra"]["normalize_cache_hits"] == 2.0

    def test_from_counters_collects_timings(self):
        counters = PerfCounters()
        counters.add("sequences", 3)
        counters.add("microbatches", 2)
        counters.add("total_tokens", 30)
        counters.add("padded_tokens", 40)
        counters.add("model_seconds", 0.25)
        stats = RunStats.from_counters(
            counters,
            wall_seconds=1.0,
            bpe_cache_hits=5,
            bpe_cache_misses=5,
            extra={"normalize_cache_hits": 1.0},
        )
        assert stats.sequences == 3
        assert stats.microbatches == 2
        assert stats.total_tokens == 30
        assert stats.padded_tokens == 40
        assert stats.timings == {"model_seconds": 0.25}
        assert stats.bpe_cache_hit_rate == 0.5
        assert stats.extra["normalize_cache_hits"] == 1.0

    def test_padding_waste_excludes_cache_served_tokens(self):
        # 8 of 10 sequences served from cache: their tokens are in
        # total_tokens but never occupied the padded footprint.
        stats = RunStats(
            total_tokens=10 * 6,
            padded_tokens=2 * 8,
            result_cache_tokens=8 * 6,
        )
        assert stats.padding_waste == 1.0 - 12 / 16

    def test_padding_waste_bounded_with_half_warm_cache(self):
        model = TokenClassifier(
            EncoderConfig(
                vocab_size=40, dim=16, num_layers=1, num_heads=2,
                ffn_dim=32, max_len=16, dropout=0.0,
            ),
            num_labels=3,
            rng=np.random.default_rng(0),
        )
        rng = np.random.default_rng(1)
        # Long sequences alternate with short ones and the long half is
        # warm, so cache-served tokens far outnumber the padded footprint.
        corpus = [
            list(map(int, rng.integers(1, 40, size=length)))
            for __ in range(5)
            for length in (int(rng.integers(10, 13)), int(rng.integers(2, 5)))
        ]
        cache = ResultCache(capacity=32)
        model.predict_logits(corpus[::2], cache=cache)  # warm half
        counters = PerfCounters()
        model.predict_logits(corpus, cache=cache, counters=counters)
        stats = RunStats.from_counters(counters, wall_seconds=1.0)
        assert stats.result_cache_hits == 5
        assert 0.0 <= stats.padding_waste < 1.0
