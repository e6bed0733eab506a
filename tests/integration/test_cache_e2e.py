"""End-to-end cache integration.

Crosses the layers: the extractor-level result cache under the parallel
sharded runtime (workers=N must stay bitwise-identical to workers=1) and
the config-driven cache on the detector.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
from repro.datasets.generator import ObjectiveGenerator
from repro.goalspotter.detector import DetectorConfig, ObjectiveDetector
from repro.models.training import FineTuneConfig
from repro.runtime.parallel import extract_batch_parallel

pytestmark = pytest.mark.cache


@pytest.fixture(scope="module")
def fitted_extractor():
    objectives = ObjectiveGenerator(seed=60).generate_many(40)
    config = ExtractorConfig(
        finetune=FineTuneConfig(epochs=1, learning_rate=1e-3),
        result_cache_capacity=256,
    )
    return WeakSupervisionExtractor(config).fit(objectives)


@pytest.fixture(scope="module")
def boilerplate_texts():
    objectives = ObjectiveGenerator(seed=61).generate_many(12)
    texts = [objective.text for objective in objectives]
    # Heavy repetition across the corpus, interleaved.
    return [texts[index % len(texts)] for index in range(30)]


class TestParallelCacheIdentity:
    @pytest.mark.parallel
    def test_workers_bitwise_identical_with_caching(
        self, fitted_extractor, boilerplate_texts
    ):
        sequential = extract_batch_parallel(
            fitted_extractor, boilerplate_texts, workers=1, num_shards=2
        )
        stats_one = fitted_extractor.last_run_stats
        parallel = extract_batch_parallel(
            fitted_extractor, boilerplate_texts, workers=2, num_shards=2
        )
        stats_two = fitted_extractor.last_run_stats
        assert sequential == parallel
        # Both runs did real cache work and merged it back; every text
        # was looked up exactly once whatever the pool width.
        for stats in (stats_one, stats_two):
            assert (
                stats.result_cache_hits + stats.result_cache_misses
                == len(boilerplate_texts)
            )
            assert stats.result_cache_tokens > 0
        # A single worker's cache persists across its shards, so it may
        # see cross-shard hits a wider pool cannot — that affects only
        # statistics, never values (asserted bitwise above).
        assert stats_one.result_cache_hits >= stats_two.result_cache_hits

    def test_sequential_matches_uncached(
        self, fitted_extractor, boilerplate_texts
    ):
        uncached = WeakSupervisionExtractor(
            dataclasses.replace(
                fitted_extractor.config, result_cache_capacity=0
            ),
            tokenizer=fitted_extractor.tokenizer,
        )
        uncached.model = fitted_extractor.model
        assert fitted_extractor.extract_batch(
            boilerplate_texts
        ) == uncached.extract_batch(boilerplate_texts)
        assert uncached.last_run_stats.result_cache_hits == 0

    def test_run_stats_surface_cache_counters(
        self, fitted_extractor, boilerplate_texts
    ):
        fitted_extractor.extract_batch(boilerplate_texts)
        warm = fitted_extractor.extract_batch(boilerplate_texts)
        stats = fitted_extractor.last_run_stats
        assert stats.result_cache_hits > 0
        assert stats.result_cache_hit_rate > 0.5
        assert stats.as_dict()["result_cache_hits"] == stats.result_cache_hits
        assert warm == fitted_extractor.extract_batch(boilerplate_texts)


class TestDetectorCache:
    def test_detector_cache_is_config_driven_and_bitwise(self):
        objectives = ObjectiveGenerator(seed=62).generate_many(30)
        texts = [objective.text for objective in objectives]
        labels = [1] * 15 + [0] * 15
        cached = ObjectiveDetector(
            DetectorConfig(
                finetune=FineTuneConfig(epochs=1, learning_rate=1e-3),
                result_cache_capacity=64,
            )
        ).fit(texts, labels)
        assert cached.result_cache is not None
        baseline = None
        for __ in range(2):  # second pass served from cache
            scores = cached.predict_proba(texts)
            if baseline is None:
                baseline = scores
            np.testing.assert_array_equal(scores, baseline)
        assert cached.result_cache.stats.hits > 0

    def test_disabled_by_default(self):
        assert ObjectiveDetector(DetectorConfig()).result_cache is None
