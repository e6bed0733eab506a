"""Pool workers on the caller's host: forked where possible, spawned else.

Where the platform can fork, a pooled run forks its workers from the
caller's live host: no broadcast, no restore, warm caches. These tests
pin what that must keep — ``workers=N == workers=1``, the caller's
run-scoped state untouched and handed back, no worker wedged on a lock
another parent thread held at the fork — and run the spawn fallback,
which still broadcasts, on a host that could fork.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

import repro.runtime.parallel as parallel
import repro.runtime.supervisor as supervisor
from repro.core.base import DetailExtractor
from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
from repro.datasets.generator import ObjectiveGenerator
from repro.datasets.reports import ReportGenerator
from repro.goalspotter.detector import DetectorConfig, ObjectiveDetector
from repro.goalspotter.pipeline import GoalSpotter
from repro.models.training import FineTuneConfig
from repro.runtime.errors import ModelError
from repro.runtime.parallel import (
    _renew_locks,
    extract_batch_parallel,
    process_reports_parallel,
    resolve_workers,
)
from repro.runtime.resilience import CircuitBreaker, FaultInjector, FaultSpec

pytestmark = pytest.mark.parallel

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the platform cannot fork",
)

#: Upper bound on any one pooled run here; a wedged worker fails the
#: test instead of hanging the suite.
RUN_TIMEOUT = 60.0


# Module-level stubs: spawned workers unpickle the broadcast skeleton by
# qualified name.
class ForkDetector:
    class config:
        threshold = 0.5

    def predict_proba(self, texts):
        return np.array(
            [0.9 if ("%" in t or "20" in t) else 0.1 for t in texts]
        )


class ForkExtractor(DetailExtractor):
    name = "fork-stub"

    def fit(self, objectives):
        return self

    def extract(self, text):
        return {"Action": text[:12].upper(), "Amount": str(len(text)),
                "Qualifier": "", "Baseline": "", "Deadline": ""}


def _corpus(count=6):
    generator = ReportGenerator(seed=41)
    return [
        generator.generate_report(f"Fork-{i}", f"f{i}", 2, 2)
        for i in range(count)
    ]


def _faulty_pipeline():
    return GoalSpotter(
        ForkDetector(),
        ForkExtractor(),
        on_error="degrade",
        fault_injector=FaultInjector(
            [
                FaultSpec(stage="detect", error="model", rate=0.4),
                FaultSpec(stage="extract", error="model", rate=0.4),
            ],
            seed=5,
        ),
    )


def _quarantine_keys(pipeline):
    return [
        (entry.report_id, entry.stage, type(entry.error).__name__,
         str(entry.error))
        for entry in pipeline.quarantine
    ]


@pytest.fixture
def no_fork(monkeypatch):
    """Take the no-fork branch of the runtime's pool constructor."""
    get_context = multiprocessing.get_context

    def without_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return get_context(method)

    monkeypatch.setattr(parallel.multiprocessing, "get_context", without_fork)


@pytest.fixture
def host_broadcasts(monkeypatch):
    """The size of every broadcast the runner builds, in call order."""
    sizes = []
    build = supervisor._broadcast_host

    def recording(host, kind):
        broadcast = build(host, kind)
        sizes.append(broadcast.num_bytes)
        return broadcast

    monkeypatch.setattr(supervisor, "_broadcast_host", recording)
    return sizes


@pytest.fixture(scope="module")
def fitted_extractor():
    objectives = ObjectiveGenerator(seed=43).generate_many(24)
    config = ExtractorConfig(
        finetune=FineTuneConfig(epochs=1, learning_rate=1e-3)
    )
    return WeakSupervisionExtractor(config).fit(objectives)


class TestResolveWorkers:
    def test_auto_counts_the_cpus_this_process_may_run_on(
        self, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers("auto") == 1
        assert resolve_workers(None) == 1

    def test_auto_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_workers("auto") == 3


class TestRenewLocks:
    def test_every_lock_of_a_host_is_renewed(self, fitted_extractor):
        detector = ObjectiveDetector(DetectorConfig(result_cache_capacity=4))
        pipeline = GoalSpotter(
            detector, fitted_extractor, fault_injector=FaultInjector([])
        )
        owners = [
            (detector, "_stats_lock"),
            (detector.result_cache, "_lock"),
            (detector.result_cache.stats, "_lock"),  # a __slots__ class
            (fitted_extractor, "_normalize_lock"),
            (fitted_extractor, "_stats_lock"),
            (fitted_extractor.tokenizer, "_cache_lock"),
            (pipeline.fault_injector, "_lock"),
        ]
        held = [getattr(owner, name) for owner, name in owners]
        for lock in held:
            lock.acquire()
        try:
            _renew_locks(pipeline)
            for (owner, name), old in zip(owners, held):
                fresh = getattr(owner, name)
                assert fresh is not old and type(fresh) is type(old)
                assert fresh.acquire(blocking=False), (owner, name)
                fresh.release()
        finally:
            for lock in held:
                lock.release()


@needs_fork
class TestForkedWorkers:
    def test_pooled_run_makes_no_broadcast(self, monkeypatch):
        corpus = _corpus()
        expected = process_reports_parallel(
            GoalSpotter(ForkDetector(), ForkExtractor()), corpus, workers=1
        )
        calls = []
        monkeypatch.setattr(
            supervisor, "broadcast_pipeline",
            lambda pipeline: calls.append(pipeline),
        )
        monkeypatch.setattr(
            supervisor, "restore_pipeline",
            lambda broadcast: calls.append(broadcast),
        )
        pipeline = GoalSpotter(ForkDetector(), ForkExtractor())
        records = process_reports_parallel(pipeline, corpus, workers=2)
        assert records == expected
        assert calls == []
        stats = pipeline.last_run_stats
        assert stats["workers"] == stats["num_shards"] == 2
        assert stats["broadcast_bytes"] == stats["broadcast_seconds"] == 0

    def test_rows_run_makes_no_broadcast(self, host_broadcasts):
        texts = [f"Cut emissions by {i}% by 20{30 + i}" for i in range(9)]
        extractor = ForkExtractor()
        expected = extractor.extract_batch(list(texts))
        assert extract_batch_parallel(extractor, texts, workers=2) == expected
        assert host_broadcasts == []

    def test_caller_state_survives_and_is_not_used(self):
        corpus = _corpus(8)
        reference = _faulty_pipeline()
        expected = process_reports_parallel(
            reference, corpus, workers=1, num_shards=2
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
        quarantine = pipeline.quarantine

        records = process_reports_parallel(pipeline, corpus, workers=2)

        assert records == expected
        assert _quarantine_keys(reference)  # the faults fired
        assert pipeline.quarantine is quarantine
        assert _quarantine_keys(pipeline) == (
            held + _quarantine_keys(reference)
        )
        assert pipeline._breakers is breakers
        assert tripped.state == "open"
        # Segments ran under their own injectors, not the caller's.
        assert pipeline.fault_injector is injector
        assert injector.calls("detect") == injector.calls("extract") == 0
        assert pipeline.last_run_stats["broadcast_bytes"] == 0

    def test_lock_held_across_the_fork_does_not_wedge_workers(
        self, fitted_extractor, monkeypatch
    ):
        corpus = _corpus()
        pipeline = GoalSpotter(ForkDetector(), fitted_extractor)
        expected = process_reports_parallel(pipeline, corpus, workers=1)
        assert expected  # the extractor (and its locks) did run

        transports = []

        class RecordingTransport(supervisor.PoolTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                transports.append(self)

        monkeypatch.setattr(supervisor, "PoolTransport", RecordingTransport)
        locks = [
            fitted_extractor.tokenizer._cache_lock,
            fitted_extractor._normalize_lock,
        ]
        held, release = threading.Event(), threading.Event()

        def hold():
            for lock in locks:
                lock.acquire()
            held.set()
            release.wait(RUN_TIMEOUT)
            for lock in reversed(locks):
                lock.release()

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert held.wait(RUN_TIMEOUT)
        result = {}
        runner = threading.Thread(
            target=lambda: result.update(
                records=process_reports_parallel(pipeline, corpus, workers=2)
            ),
            daemon=True,
        )
        try:
            runner.start()
            # The parent never needs these locks in a pooled run, so the
            # run finishes while they stay held, unless a worker wedged.
            runner.join(RUN_TIMEOUT)
            finished = not runner.is_alive()
        finally:
            release.set()
            holder.join(RUN_TIMEOUT)
        if not finished:
            for transport in transports:
                transport.close(force=True)
        assert finished, "a forked worker wedged on an inherited lock"
        assert result["records"] == expected
        assert transports and transports[0].broadcast_bytes == 0


class TestSpawnFallback:
    def test_reports_run_broadcasts_and_matches_one_worker(self, no_fork):
        corpus = _corpus()
        expected = process_reports_parallel(
            GoalSpotter(ForkDetector(), ForkExtractor()), corpus, workers=1
        )
        pipeline = GoalSpotter(ForkDetector(), ForkExtractor())
        records = process_reports_parallel(pipeline, corpus, workers=2)
        assert records == expected
        assert pipeline.last_run_stats["broadcast_bytes"] > 0

    def test_rows_run_broadcasts_and_matches_one_worker(
        self, no_fork, host_broadcasts
    ):
        texts = [f"Cut emissions by {i}% by 20{30 + i}" for i in range(9)]
        extractor = ForkExtractor()
        expected = extract_batch_parallel(extractor, texts, workers=1)
        assert extract_batch_parallel(extractor, texts, workers=2) == expected
        assert len(host_broadcasts) == 1 and host_broadcasts[0] > 0


class TestDurableRunStats:
    def test_journaled_run_keeps_the_merged_summary(self, tmp_path):
        corpus = _corpus()
        pipeline = GoalSpotter(ForkDetector(), ForkExtractor())
        records = pipeline.process_reports_durable(
            corpus, tmp_path / "run", workers=1, segment_items=2
        )
        stats = pipeline.last_run_stats
        for key in ("blocks", "shards", "extractor", "durable"):
            assert key in stats
        assert stats["blocks"] == sum(
            len(page.blocks) for report in corpus for page in report.pages
        )
        assert len(stats["shards"]) == stats["num_shards"] == 3
        assert stats["records"] == len(records)
        assert stats["durable"]["segments_committed"] == 3

        replayed = pipeline.process_reports_durable(
            corpus, tmp_path / "run", workers=1, segment_items=2
        )
        stats = pipeline.last_run_stats
        assert replayed == records
        assert stats["blocks"] == stats["num_shards"] == 0
        assert stats["shards"] == []
        assert stats["records"] == len(records)
        assert stats["durable"]["commits"] == 0
