"""Journaled sequential runs compute consecutive segments as one window.

A window is one ``process_reports`` call over several pending segments
whose records are then split back per segment and committed one by one.
The journal must not be able to tell: its bytes, its quarantine and the
run's summed stats equal what per-segment execution gives (a window cap
of 1 block makes every window one segment), whether the window is
accepted or falls back, and across a kill at any commit and a resume.
"""

import threading

import numpy as np
import pytest

import repro.runtime.supervisor as supervisor
from repro.core.base import DetailExtractor
from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
from repro.datasets.generator import ObjectiveGenerator
from repro.datasets.reports import (
    Page,
    ReportGenerator,
    SustainabilityReport,
    TextBlock,
)
from repro.deploy import build_trained_pipeline
from repro.goalspotter.detector import DetectorConfig
from repro.goalspotter.pipeline import GoalSpotter
from repro.models.training import FineTuneConfig
from repro.runtime.errors import ReproError, RunInterrupted
from repro.runtime.journal import JOURNAL_NAME, RunJournal
from repro.runtime.resilience import FaultInjector, FaultSpec
from repro.runtime.supervisor import SegmentWork, run_durable_reports

pytestmark = pytest.mark.durable

PER_SEGMENT = 1  # a cap of one block: every window is a single segment
WHOLE_RUN = 10**9  # one window for every pending segment


class StubDetector:
    class config:
        threshold = 0.5

    def predict_proba(self, texts):
        return np.array([0.9 if "%" in t else 0.1 for t in texts])


class StubExtractor(DetailExtractor):
    """Input-dependent details; fails any call holding a POISON text."""

    name = "window-stub"

    def fit(self, objectives):
        return self

    def extract(self, text):
        if "POISON" in text:
            raise ValueError(f"poisoned unit: {text[:30]}")
        return {"Action": text[:16].upper(), "Amount": str(len(text)),
                "Qualifier": "", "Baseline": "", "Deadline": ""}


def _report(doc, *, report_id=None, company=None, blocks=3, tag="",
            detected=True):
    mark = "5%" if detected else "five"
    return SustainabilityReport(
        company=company or f"C{doc % 3}",
        report_id=report_id or f"doc-{doc:03d}",
        pages=[
            Page(blocks=[
                TextBlock(f"cut waste {mark} doc-{doc:03d} block {b}{tag}",
                          detected)
                for b in range(blocks)
            ])
        ],
        reporting_year=2020 + doc % 4,
    )


def _corpus(num_docs=9, poisoned=()):
    return [
        _report(doc, tag=" POISON" if doc in poisoned else "")
        for doc in range(num_docs)
    ]


def _run(monkeypatch, run_dir, corpus, cap, *, pipeline=None, **kwargs):
    """A journaled workers=1 run at window cap ``cap``: the journal's
    bytes, the rows, the quarantine, the pipeline's stats, the journal."""
    monkeypatch.setattr(supervisor, "WINDOW_BLOCKS", cap)
    pipeline = pipeline or GoalSpotter(StubDetector(), StubExtractor())
    kwargs.setdefault("segment_items", 2)
    result = run_durable_reports(pipeline, corpus, run_dir, **kwargs)
    return (
        (run_dir / JOURNAL_NAME).read_bytes(),
        result.payloads,
        result.journal.quarantine_payloads(),
        pipeline.last_run_stats,
        result.journal,
    )


def _count_calls(monkeypatch):
    calls = []
    original = GoalSpotter.process_reports

    def counted(pipeline, reports, *args, **kwargs):
        calls.append(len(reports))
        return original(pipeline, reports, *args, **kwargs)

    monkeypatch.setattr(GoalSpotter, "process_reports", counted)
    return calls


def _summed(stats):
    keys = ("blocks", "detected_blocks", "extraction_units", "records")
    return {key: stats[key] for key in keys}


class TestWindowPlan:
    def _works(self, blocks_per_segment, **extra):
        return [
            SegmentWork(
                index=index, start=index, stop=index + 1, kind="pipeline",
                items=(_report(index, blocks=blocks),), mode="raise",
                fields=(), **extra,
            )
            for index, blocks in enumerate(blocks_per_segment)
        ]

    def test_window_closes_at_the_first_boundary_past_the_cap(
        self, monkeypatch
    ):
        monkeypatch.setattr(supervisor, "WINDOW_BLOCKS", 7)
        sizes = [3, 3, 3, 1, 6, 9, 2, 2]
        windows = supervisor._windows(self._works(sizes))
        assert [[work.index for work in window] for window in windows] == [
            [0, 1, 2], [3, 4], [5], [6, 7],
        ]
        for window in windows:
            blocks = [sizes[work.index] for work in window]
            # Below the cap until the last segment joined, and the only
            # window that may stay below it is the run's last.
            assert sum(blocks[:-1]) < 7
            assert sum(blocks) >= 7 or window is windows[-1]

    def test_fault_specs_keep_every_segment_alone(self, monkeypatch):
        monkeypatch.setattr(supervisor, "WINDOW_BLOCKS", WHOLE_RUN)
        works = self._works([3, 3, 3], specs=(FaultSpec(stage="detect"),))
        assert supervisor._windows(works) == [[work] for work in works]

    def test_rows_kinds_keep_every_segment_alone(self, monkeypatch):
        monkeypatch.setattr(supervisor, "WINDOW_BLOCKS", WHOLE_RUN)
        works = [
            SegmentWork(index=i, start=i, stop=i + 1, kind="extraction",
                        items=("a",), mode="raise", fields=("Action",))
            for i in range(3)
        ]
        assert supervisor._windows(works) == [[work] for work in works]


class TestWindowEqualsSegments:
    def test_clean_run_is_byte_identical_with_equal_stats(
        self, monkeypatch, tmp_path
    ):
        corpus = _corpus()
        plain = GoalSpotter(StubDetector(), StubExtractor()).process_reports(
            corpus
        )
        calls = _count_calls(monkeypatch)
        alone = _run(monkeypatch, tmp_path / "alone", corpus, PER_SEGMENT)
        assert len(calls) == 5
        window = _run(monkeypatch, tmp_path / "window", corpus, WHOLE_RUN)
        assert calls[5:] == [len(corpus)]  # one call for the whole run
        assert window[:3] == alone[:3]
        assert [payload["objective"] for payload in window[1]] == [
            record.objective for record in plain
        ]
        stats_alone, stats_window = alone[3], window[3]
        assert _summed(stats_window) == _summed(stats_alone)
        assert [_summed(s) for s in stats_window["shards"]] == [
            _summed(s) for s in stats_alone["shards"]
        ]
        assert stats_window["num_shards"] == stats_alone["num_shards"] == 5

    def test_repeated_report_ids_split_by_position(
        self, monkeypatch, tmp_path
    ):
        # One id and company for every report and one report with no
        # detected block: only positions tell which records are whose.
        corpus = [
            _report(0, report_id="same", company="Same"),
            _report(1, report_id="same", company="Same", detected=False),
            _report(2, report_id="same", company="Same", blocks=1),
            _report(4, report_id="same", company="Same", blocks=4),
        ]
        alone = _run(monkeypatch, tmp_path / "alone", corpus, PER_SEGMENT,
                     segment_items=1)
        window = _run(monkeypatch, tmp_path / "window", corpus, WHOLE_RUN,
                      segment_items=1)
        assert window[:3] == alone[:3]
        # Each committed segment holds its own report's records.
        per_report = [3, 0, 1, 4]
        segments = window[4].segments.values()
        assert len(segments) > 1
        for segment in segments:
            assert len(segment.rows) == sum(
                per_report[segment.start : segment.stop]
            )
        assert [_summed(s) for s in window[3]["shards"]] == [
            _summed(s) for s in alone[3]["shards"]
        ]

    @pytest.mark.parametrize("mode", ["skip", "degrade"])
    def test_failing_window_falls_back(self, monkeypatch, tmp_path, mode):
        corpus = _corpus(poisoned={4})
        alone = _run(monkeypatch, tmp_path / "alone", corpus, PER_SEGMENT,
                     on_error=mode)
        window = _run(monkeypatch, tmp_path / "window", corpus, WHOLE_RUN,
                      on_error=mode)
        assert window[:3] == alone[:3]
        assert _summed(window[3]) == _summed(alone[3])
        assert window[3]["fast_path"] is alone[3]["fast_path"] is False

    @pytest.mark.parametrize("dirt", ["blank block", "empty report"])
    def test_sanitizing_or_quarantining_window_falls_back(
        self, monkeypatch, tmp_path, dirt
    ):
        # Both leave the window's call on its fast path.
        corpus = _corpus()
        if dirt == "blank block":
            corpus[5].pages[0].blocks.append(TextBlock("   ", False))
        else:
            corpus[5] = _report(5, blocks=0)
        alone = _run(monkeypatch, tmp_path / "alone", corpus, PER_SEGMENT,
                     on_error="skip")
        window = _run(monkeypatch, tmp_path / "window", corpus, WHOLE_RUN,
                      on_error="skip")
        assert window[:3] == alone[:3]
        assert window[3]["sanitized_blocks"] == alone[3]["sanitized_blocks"]
        assert len(alone[2]) == (dirt == "empty report")

    def test_failing_window_commits_what_segments_would(
        self, monkeypatch, tmp_path
    ):
        corpus = _corpus(poisoned={5})
        errors = []
        for name, cap in (("alone", PER_SEGMENT), ("window", WHOLE_RUN)):
            with pytest.raises(ValueError) as caught:
                _run(monkeypatch, tmp_path / name, corpus, cap)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert (tmp_path / "window" / JOURNAL_NAME).read_bytes() == (
            tmp_path / "alone" / JOURNAL_NAME
        ).read_bytes()
        committed = (tmp_path / "window" / JOURNAL_NAME).read_text()
        assert committed.count("\n") == 2  # segments 0 and 1; 2 failed

    def test_failed_window_leaves_the_runs_breakers_alone(
        self, monkeypatch, tmp_path
    ):
        # Two failures trip a breaker for the rest of the run: had the
        # failed window's failures reached the run's breakers, the
        # fallback would quarantine the poison with a different error.
        corpus = _corpus(poisoned={4})
        runs = [
            _run(
                monkeypatch, tmp_path / name, corpus, cap,
                pipeline=GoalSpotter(
                    StubDetector(), StubExtractor(), breaker_threshold=2,
                    breaker_recovery_time=3600.0,
                ),
                on_error="skip",
            )
            for name, cap in (("alone", PER_SEGMENT), ("window", WHOLE_RUN))
        ]
        assert runs[1][:3] == runs[0][:3]
        assert len(runs[0][2]) == 1


class TestWindowCrashSafety:
    def test_kill_at_every_commit_then_resume(self, monkeypatch, tmp_path):
        corpus = _corpus()
        baseline = _run(monkeypatch, tmp_path / "base", corpus, WHOLE_RUN)
        segments = baseline[3]["num_shards"]
        for nth in range(1, segments + 1):
            run_dir = tmp_path / f"kill-{nth}"
            injector = FaultInjector(
                [FaultSpec(stage="journal_commit", error="model",
                           nth_calls=(nth,))],
                seed=0,
            )
            with pytest.raises(ReproError):
                _run(monkeypatch, run_dir, corpus, WHOLE_RUN,
                     fault_injector=injector)
            resumed = _run(monkeypatch, run_dir, corpus, WHOLE_RUN)
            assert resumed[1] == baseline[1], f"kill at commit #{nth}"
            assert resumed[2] == baseline[2]

    def test_drain_commits_the_computed_window_then_stops(
        self, monkeypatch, tmp_path
    ):
        corpus = _corpus()
        drain = threading.Event()
        original = RunJournal.commit_segment

        def commit_then_drain(journal, index, rows, **kwargs):
            original(journal, index, rows, **kwargs)
            drain.set()

        monkeypatch.setattr(RunJournal, "commit_segment", commit_then_drain)
        # 6 blocks per segment: a cap of 12 makes windows of two.
        with pytest.raises(RunInterrupted):
            _run(monkeypatch, tmp_path / "run", corpus, 12,
                 drain_event=drain)
        committed = (tmp_path / "run" / JOURNAL_NAME).read_text()
        assert committed.count("\n") == 2


@pytest.fixture(scope="module")
def trained():
    objectives = ObjectiveGenerator(seed=3).generate_many(40)
    extractor = WeakSupervisionExtractor(
        ExtractorConfig(
            finetune=FineTuneConfig(epochs=1, learning_rate=5e-3),
            num_merges=150,
        )
    ).fit(objectives)
    return build_trained_pipeline(
        train_dataset=None,
        seed=3,
        detector_blocks=80,
        detector_config=DetectorConfig(
            dim=32, num_layers=1, num_heads=2, ffn_dim=64, num_merges=150,
            finetune=FineTuneConfig(epochs=2, learning_rate=3e-3),
        ),
        extractor=extractor,
    )


class TestTrainedPipeline:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_journal_equals_segment_journal(
        self, trained, monkeypatch, tmp_path, seed
    ):
        generator = ReportGenerator(seed=seed)
        corpus = [
            generator.generate_report(f"Co-{i % 3}", f"r{i % 4}", 2, 2)
            for i in range(10)
        ]
        plain = trained.process_reports(corpus)
        assert plain, "the corpus should yield records"
        alone = _run(monkeypatch, tmp_path / "alone", corpus, PER_SEGMENT,
                     pipeline=trained, on_error="degrade")
        calls = _count_calls(monkeypatch)
        window = _run(monkeypatch, tmp_path / "window", corpus, WHOLE_RUN,
                      pipeline=trained, on_error="degrade")
        assert calls == [len(corpus)]  # the window was accepted
        assert window[:3] == alone[:3]
        assert _summed(window[3]) == _summed(alone[3])
        assert [payload["objective"] for payload in window[1]] == [
            record.objective for record in plain
        ]
