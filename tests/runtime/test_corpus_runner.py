"""The one corpus runner: non-journaled and journaled runs agree.

A non-journaled ``workers=N`` run is a journaled run with an in-memory
sink and no leases. These tests pin the invariant that makes one runner
correct — with the same shard layout and the same fault seeds, the two
paths produce the same records and quarantine — the merged-stats
contract (wall time is the run's wall clock, not summed worker-seconds)
and the error contract (a failed shard raises the error it raised).
"""

import math
import threading
import time
import traceback

import numpy as np
import pytest

from repro.core.base import DetailExtractor
from repro.core.extractor import ExtractorConfig
from repro.datasets.reports import ReportGenerator
from repro.goalspotter.pipeline import GoalSpotter
from repro.runtime.parallel import (
    extract_batch_parallel,
    process_reports_parallel,
)
import repro.runtime.supervisor as supervisor
from repro.runtime.errors import InputError, ModelError
from repro.runtime.profiling import RunStats
from repro.runtime.resilience import CircuitBreaker, FaultInjector, FaultSpec
from repro.runtime.supervisor import run_durable_rows
from repro.tasks.models import ExtractionModel

pytestmark = pytest.mark.parallel

SEGMENT_ITEMS = 3


# Module-level stubs: worker processes unpickle the broadcast skeleton by
# qualified name.
class RunnerDetector:
    class config:
        threshold = 0.5

    def predict_proba(self, texts):
        return np.array(
            [0.9 if ("%" in t or "20" in t) else 0.1 for t in texts]
        )


class RunnerExtractor(DetailExtractor):
    name = "runner-stub"

    def fit(self, objectives):
        return self

    def extract(self, text):
        return {"Action": text[:14], "Amount": str(len(text)),
                "Qualifier": "", "Baseline": "", "Deadline": ""}


class FixedWallExtractor(DetailExtractor):
    """Every call reports one second of wall time, like a slow shard."""

    name = "fixed-wall"
    _stats_lock = threading.Lock()  # class-level, so instances pickle

    def __init__(self):
        self.last_run_stats = None
        self.total_run_stats = RunStats()

    def fit(self, objectives):
        return self

    def extract(self, text):
        return {"Action": text.upper()}

    def extract_batch(self, texts):
        stats = RunStats(wall_seconds=1.0, sequences=len(texts))
        self.last_run_stats = stats
        self.total_run_stats = self.total_run_stats.merge(stats)
        return [self.extract(text) for text in texts]


class BrokenExtractor(DetailExtractor):
    """Fails every batch with a foreign (non-taxonomy) exception."""

    name = "broken"

    def fit(self, objectives):
        return self

    def extract(self, text):
        raise RuntimeError(f"cannot parse {text!r}")


class MarkerExtractor(DetailExtractor):
    """Fails any call that holds a POISON-marked text."""

    name = "marker"

    def __init__(self):
        self.config = ExtractorConfig(fields=("Action",))

    def fit(self, objectives):
        return self

    def extract(self, text):
        if "POISON" in text:
            raise RuntimeError(f"cannot parse {text!r}")
        return {"Action": text.upper()}


def _corpus():
    generator = ReportGenerator(seed=31)
    return [
        generator.generate_report(f"Runner-{i}", f"run{i}", 2, 2)
        for i in range(8)
    ]


def _faulty_pipeline():
    return GoalSpotter(
        RunnerDetector(),
        RunnerExtractor(),
        on_error="degrade",
        fault_injector=FaultInjector(
            [
                FaultSpec(stage="detect", error="model", rate=0.4),
                FaultSpec(stage="extract", error="model", rate=0.4),
            ],
            seed=11,
        ),
    )


def _quarantine_keys(pipeline):
    return [
        (entry.report_id, entry.company, entry.stage,
         type(entry.error).__name__, str(entry.error))
        for entry in pipeline.quarantine
    ]


class TestOneRunner:
    def test_sharded_run_equals_journaled_run_under_faults(self, tmp_path):
        corpus = _corpus()
        num_shards = math.ceil(len(corpus) / SEGMENT_ITEMS)

        sharded = _faulty_pipeline()
        records = process_reports_parallel(
            sharded, corpus, workers=2, on_error="degrade",
            num_shards=num_shards,
        )
        journaled = _faulty_pipeline()
        durable = journaled.process_reports_durable(
            corpus, tmp_path / "run", workers=2, on_error="degrade",
            segment_items=SEGMENT_ITEMS,
        )

        assert records == durable
        assert _quarantine_keys(sharded) == _quarantine_keys(journaled)
        # The faults really fired: documents were quarantined.
        assert sharded.quarantine.report_ids()

    def test_journaled_sequential_run_equals_pooled_run(self, tmp_path):
        corpus = _corpus()
        runs = {}
        for workers in (1, 2):
            pipeline = _faulty_pipeline()
            records = pipeline.process_reports_durable(
                corpus, tmp_path / f"run{workers}", workers=workers,
                on_error="degrade", segment_items=SEGMENT_ITEMS,
            )
            runs[workers] = (records, _quarantine_keys(pipeline))
        assert runs[1] == runs[2]
        assert runs[1][1]  # the faults fired

    def test_journaled_sequential_run_makes_no_broadcast(
        self, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            supervisor, "broadcast_pipeline",
            lambda pipeline: calls.append(pipeline),
        )
        _faulty_pipeline().process_reports_durable(
            _corpus(), tmp_path / "run", workers=1, on_error="degrade",
            segment_items=SEGMENT_ITEMS,
        )
        assert calls == []

    def test_non_journaled_stats_carry_no_durable_key(self):
        pipeline = GoalSpotter(RunnerDetector(), RunnerExtractor())
        process_reports_parallel(pipeline, _corpus(), workers=2)
        assert "durable" not in pipeline.last_run_stats
        assert pipeline.last_run_stats["num_shards"] == 2


class TestLiveHostRunState:
    """A sequential pipeline run on the caller's live host starts from
    the run state a broadcast copy starts from, and hands the caller's
    own back."""

    def test_caller_state_survives_and_is_not_used(self, tmp_path):
        corpus = _corpus()
        reference = _faulty_pipeline()
        expected = reference.process_reports_durable(
            corpus, tmp_path / "reference", workers=2, on_error="degrade",
            segment_items=SEGMENT_ITEMS,
        )

        pipeline = _faulty_pipeline()
        pipeline.quarantine.put(
            corpus[0], "detect", ModelError("an earlier run", stage="detect")
        )
        held = _quarantine_keys(pipeline)
        # Tripped breakers would fail every per-document call of the run.
        tripped = CircuitBreaker(failure_threshold=1, recovery_time=3600.0)
        tripped.record_failure()
        breakers = {"detect": tripped, "extract": tripped}
        pipeline._breakers = breakers
        injector = pipeline.fault_injector

        records = pipeline.process_reports_durable(
            corpus, tmp_path / "live", workers=1, on_error="degrade",
            segment_items=SEGMENT_ITEMS,
        )

        assert records == expected
        assert _quarantine_keys(pipeline) == (
            held + _quarantine_keys(reference)
        )
        assert pipeline._breakers is breakers
        assert tripped.state == "open"
        # Segments ran under their own injectors, not the caller's.
        assert pipeline.fault_injector is injector
        assert injector.calls("detect") == injector.calls("extract") == 0
        assert pipeline.last_run_stats["durable"]["segments_committed"] == (
            math.ceil(len(corpus) / SEGMENT_ITEMS)
        )

    def test_caller_state_comes_back_when_the_run_fails(self, tmp_path):
        injector = FaultInjector(
            [FaultSpec(stage="detect", error="model", rate=1.0)], seed=3
        )
        pipeline = GoalSpotter(
            RunnerDetector(), RunnerExtractor(), fault_injector=injector
        )
        quarantine, breakers = pipeline.quarantine, pipeline._breakers
        with pytest.raises(ModelError):
            pipeline.process_reports_durable(
                _corpus(), tmp_path / "run", workers=1,
                segment_items=SEGMENT_ITEMS,
            )
        assert pipeline.quarantine is quarantine and len(quarantine) == 0
        assert pipeline._breakers is breakers
        assert pipeline.fault_injector is injector

    def test_single_segment_stats_merge_like_a_broadcast_run(self):
        corpus = _corpus()
        stats = {}
        for name, num_shards in (("live", 1), ("broadcast", 2)):
            pipeline = GoalSpotter(RunnerDetector(), FixedWallExtractor())
            pipeline.last_run_stats = {"earlier": True}
            process_reports_parallel(
                pipeline, corpus, workers=1, num_shards=num_shards
            )
            stats[name] = (pipeline.last_run_stats, pipeline.extractor)
        (live, live_extractor), (copied, copied_extractor) = (
            stats["live"], stats["broadcast"],
        )
        assert live["num_shards"] == 1 and copied["num_shards"] == 2
        assert live["broadcast_bytes"] == 0 < copied["broadcast_bytes"]
        for key in ("blocks", "detected_blocks", "extraction_units",
                    "records"):
            assert live[key] == copied[key]
        assert live["extractor"]["sequences"] == live["extraction_units"]
        # Each segment's model stats fold in once, on either path.
        for extractor in (live_extractor, copied_extractor):
            units = extractor.last_run_stats.sequences
            assert units == live["extraction_units"]
            assert extractor.total_run_stats.sequences == units


class TestMergedWallClock:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_wall_is_run_wall_not_worker_seconds(self, workers):
        texts = [f"cut emissions {i}% by 2030" for i in range(6)]
        extractor = FixedWallExtractor()
        started = time.perf_counter()
        rows = extract_batch_parallel(
            extractor, texts, workers=workers, num_shards=2
        )
        elapsed = time.perf_counter() - started
        assert rows == [{"Action": text.upper()} for text in texts]
        merged = extractor.last_run_stats
        # Two shards each reported 1.0 s; summing them would claim 2.0 s
        # for a run the caller timed at a fraction of that.
        assert merged.wall_seconds <= elapsed
        assert merged.sequences == len(texts)
        # The run folds into the lifetime totals once per shard.
        assert extractor.total_run_stats.sequences == len(texts)
        assert extractor.total_run_stats.wall_seconds == merged.wall_seconds


class TestJournaledSequentialRows:
    def test_runs_on_the_live_host(self, tmp_path):
        texts = [f"cut emissions {i}% by 2030" for i in range(6)]
        extractor = FixedWallExtractor()
        result = run_durable_rows(
            extractor, "extraction", texts, tmp_path / "run",
            segment_items=2, fields=("Action",),
        )
        assert result.rows == [{"Action": text.upper()} for text in texts]
        # No broadcast copy: the host's own calls, one per segment, kept
        # its stats, so the last one describes the last segment only.
        assert extractor.last_run_stats.sequences == 2
        assert extractor.total_run_stats.sequences == len(texts)


class TestShardErrors:
    def test_in_process_failure_keeps_cause_and_traceback(self):
        with pytest.raises(ModelError) as caught:
            extract_batch_parallel(
                BrokenExtractor(), ["a", "b"], workers=1, num_shards=2
            )
        error = caught.value
        # The live error, not one rebuilt from its payload: classified,
        # chained to the foreign exception, with its traceback reaching
        # back to the segment that raised it.
        assert isinstance(error.__cause__, RuntimeError)
        assert "cannot parse 'a'" in str(error)
        assert "_rows_segment" in [entry.name for entry in caught.traceback]
        cause_frames = traceback.extract_tb(error.__cause__.__traceback__)
        assert "extract" in [frame.name for frame in cause_frames]

    def test_pooled_failure_surfaces_the_lowest_shard_error(self):
        with pytest.raises(ModelError, match="cannot parse 'a'"):
            extract_batch_parallel(
                BrokenExtractor(), ["a", "b"], workers=2, num_shards=2
            )


class TestOneLadder:
    @pytest.mark.parametrize("mode", ["degrade", "skip"])
    def test_per_shard_ladder_equals_sequential(self, mode):
        texts = [f"cut emissions {i}% by 2030" for i in range(6)]
        texts[4] = "POISON " + texts[4]
        model = ExtractionModel(MarkerExtractor())
        sequential = model.run_resilient(texts, on_error=mode, workers=1)
        pooled = model.run_resilient(texts, on_error=mode, workers=2)
        assert pooled == sequential
        failed = "skipped" if mode == "skip" else "degraded"
        assert [status for __, status in pooled] == (
            ["ok"] * 4 + [failed, "ok"]
        )
        clean = [{"Action": text.upper()} for text in texts]
        assert [row for row, __ in pooled] == (
            clean[:4] + [{"Action": ""}, clean[5]]
        )

    def test_unknown_on_error_is_rejected_before_the_journal(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(InputError):
            run_durable_rows(
                FixedWallExtractor(), "extraction", ["a", "b"], run_dir,
                on_error="explode", fields=("Action",),
            )
        assert not run_dir.exists() or not any(run_dir.iterdir())
