"""Unit tests for the data-parallel sharded corpus runtime."""

import multiprocessing

import numpy as np
import pytest

from repro.core.base import DetailExtractor
from repro.datasets.reports import ReportGenerator
from repro.goalspotter.pipeline import GoalSpotter
from repro.runtime.parallel import (
    PipelineBroadcast,
    broadcast_pipeline,
    estimate_report_cost,
    estimate_text_cost,
    extract_batch_parallel,
    plan_shards,
    process_reports_parallel,
    resolve_workers,
    restore_pipeline,
    shard_seed,
)

pytestmark = pytest.mark.parallel


# Module-level stubs: worker processes unpickle the broadcast skeleton by
# qualified name, so these must not be defined inside test functions.
class StubDetector:
    class config:
        threshold = 0.5

    def predict_proba(self, texts):
        return np.array(
            [0.9 if ("%" in t or "20" in t) else 0.1 for t in texts]
        )


class StubExtractor(DetailExtractor):
    name = "stub"

    def fit(self, objectives):
        return self

    def extract(self, text):
        return {"Action": "Reduce", "Amount": "", "Qualifier": "",
                "Baseline": "", "Deadline": ""}


class UppercaseExtractor(DetailExtractor):
    """Input-dependent stub, so shuffled shard outputs would be caught."""

    name = "upper"

    def fit(self, objectives):
        return self

    def extract(self, text):
        return {"Action": text[:20].upper(), "Amount": str(len(text)),
                "Qualifier": "", "Baseline": "", "Deadline": ""}


def _corpus(count, seed=5, pages=3, objectives=2):
    generator = ReportGenerator(seed=seed)
    return [
        generator.generate_report(f"C{i}", f"r{i}", pages, objectives)
        for i in range(count)
    ]


def _pipeline(**kwargs):
    return GoalSpotter(StubDetector(), StubExtractor(), **kwargs)


class TestPlanShards:
    def test_contiguous_and_exhaustive(self):
        costs = [5, 1, 9, 2, 2, 7, 3, 1]
        shards = plan_shards(costs, 3)
        assert shards[0].start == 0
        assert shards[-1].stop == len(costs)
        for left, right in zip(shards, shards[1:]):
            assert left.stop == right.start
        assert [shard.index for shard in shards] == list(range(len(shards)))

    def test_costs_are_slice_sums(self):
        costs = [4, 4, 4, 4, 10]
        for shard in plan_shards(costs, 2):
            assert shard.cost == sum(costs[shard.start : shard.stop])

    def test_minimizes_makespan(self):
        # Brute-force check on small inputs: the planner's max shard cost
        # equals the best over every contiguous 2-way split.
        costs = [3, 1, 4, 1, 5, 9, 2, 6]
        planned = max(shard.cost for shard in plan_shards(costs, 2))
        best = min(
            max(sum(costs[:cut]), sum(costs[cut:]))
            for cut in range(1, len(costs))
        )
        assert planned == best

    def test_more_shards_than_items(self):
        shards = plan_shards([5, 5], 8)
        assert len(shards) == 2
        assert all(shard.size == 1 for shard in shards)

    def test_single_shard(self):
        shards = plan_shards([1, 2, 3], 1)
        assert len(shards) == 1
        assert shards[0].cost == 6

    def test_empty_costs(self):
        assert plan_shards([], 4) == []

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_shards([1], 0)
        with pytest.raises(ValueError):
            plan_shards([1, -2], 2)


class TestCostEstimates:
    def test_text_cost_counts_words(self):
        assert estimate_text_cost("reduce emissions by 20%") == 4
        assert estimate_text_cost("") == 1  # never zero-cost

    def test_report_cost_sums_blocks(self):
        report = _corpus(1)[0]
        blocks = [
            block.text for page in report.pages for block in page.blocks
        ]
        assert estimate_report_cost(report) == sum(
            estimate_text_cost(text) for text in blocks
        )


class TestResolveWorkers:
    def test_auto_values_use_cpu_count(self):
        import os

        expected = max(1, os.cpu_count() or 1)
        assert resolve_workers(None) == expected
        assert resolve_workers(0) == expected
        assert resolve_workers("auto") == expected

    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("2") == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestShardSeed:
    def test_deterministic(self):
        assert shard_seed(7, 2) == shard_seed(7, 2)

    def test_varies_by_shard_and_base(self):
        seeds = {shard_seed(7, index) for index in range(16)}
        assert len(seeds) == 16
        assert shard_seed(7, 0) != shard_seed(8, 0)

    def test_non_negative_31_bit(self):
        for index in range(64):
            assert 0 <= shard_seed(123456789, index) < 2**31


class TestBroadcast:
    def test_roundtrip_preserves_configuration(self):
        pipeline = _pipeline(on_error="degrade", max_block_chars=1234)
        broadcast = broadcast_pipeline(pipeline)
        assert isinstance(broadcast, PipelineBroadcast)
        clone = restore_pipeline(broadcast)
        assert clone.on_error == "degrade"
        assert clone.max_block_chars == 1234
        assert isinstance(clone.detector, StubDetector)

    def test_caller_pipeline_untouched(self):
        pipeline = _pipeline()
        report = _corpus(1)[0]
        pipeline.process_report(report)  # populate run state
        stats_before = pipeline.last_run_stats
        broadcast_pipeline(pipeline)
        assert pipeline.last_run_stats is stats_before
        assert pipeline.detector is not None

    def test_clone_starts_with_clean_run_state(self):
        pipeline = _pipeline(on_error="degrade")
        pipeline.process_reports(_corpus(2))
        clone = restore_pipeline(broadcast_pipeline(pipeline))
        assert clone.last_run_stats is None
        assert len(clone.quarantine) == 0
        assert clone._breakers == {}


class TestProcessReportsParallel:
    def test_matches_sequential(self):
        corpus = _corpus(8)
        sequential = _pipeline().process_reports(list(corpus))
        for workers in (1, 2, 3):
            pipeline = _pipeline()
            parallel = process_reports_parallel(
                pipeline, corpus, workers=workers
            )
            assert parallel == sequential

    def test_order_restored_with_input_dependent_extractor(self):
        corpus = _corpus(9, seed=3)
        sequential = GoalSpotter(
            StubDetector(), UppercaseExtractor()
        ).process_reports(list(corpus))
        parallel = process_reports_parallel(
            GoalSpotter(StubDetector(), UppercaseExtractor()),
            corpus,
            workers=3,
            num_shards=5,
        )
        assert parallel == sequential

    def test_goalspotter_workers_kwarg_dispatches(self):
        corpus = _corpus(6)
        sequential = _pipeline().process_reports(list(corpus))
        via_call = _pipeline().process_reports(corpus, workers=2)
        via_ctor = _pipeline(workers=2).process_reports(corpus)
        assert via_call == sequential
        assert via_ctor == sequential

    def test_merged_stats_sum_shards(self):
        pipeline = _pipeline()
        records = process_reports_parallel(
            pipeline, _corpus(8), workers=2, num_shards=4
        )
        stats = pipeline.last_run_stats
        assert stats["workers"] == 2
        assert stats["num_shards"] == len(stats["shards"]) == 4
        for key in ("blocks", "detected_blocks", "extraction_units"):
            assert stats[key] == sum(
                shard[key] for shard in stats["shards"] if shard
            )
        assert stats["records"] == len(records)
        # Forked workers run on the caller's host; only spawned ones
        # need a broadcast (tests/runtime/test_fork_pool.py covers both).
        forks = "fork" in multiprocessing.get_all_start_methods()
        assert (stats["broadcast_bytes"] == 0) == forks

    def test_empty_corpus(self):
        pipeline = _pipeline()
        assert process_reports_parallel(pipeline, [], workers=4) == []

    def test_single_report(self):
        corpus = _corpus(1)
        sequential = _pipeline().process_reports(list(corpus))
        assert (
            process_reports_parallel(_pipeline(), corpus, workers=4)
            == sequential
        )


class TestExtractBatchParallel:
    def test_matches_sequential_and_restores_order(self):
        texts = [
            f"Reduce emissions by {i}% by 20{30 + i}" for i in range(12)
        ]
        extractor = UppercaseExtractor()
        sequential = extractor.extract_batch(list(texts))
        for workers in (1, 2, 3):
            assert (
                extract_batch_parallel(extractor, texts, workers=workers)
                == sequential
            )

    def test_empty_input(self):
        assert extract_batch_parallel(StubExtractor(), [], workers=4) == []
