"""The integrated GoalSpotter pipeline: detect -> extract -> record.

This is the system of the paper's Figure 1/2 and Section 5: reports go in,
structured objective records (text + five key details + provenance) come
out, ready for the structured database (:mod:`repro.storage`).

The pipeline is fault-tolerant (see ``DESIGN.md`` section "Failure
model"): ``process_reports`` takes an ``on_error`` policy —

* ``"raise"`` (default): strict input validation, first failure aborts;
* ``"skip"``: failed documents land in the :class:`QuarantineQueue` with
  their error, stage and retry history; the rest of the batch survives;
* ``"degrade"``: like ``"skip"``, but a document whose transformer
  extraction fails irrecoverably walks the degradation ladder — the CRF
  fallback extractor first, flagged-empty records last — so every
  document still yields records (``ExtractedRecord.status`` says how).

The clean path stays the single corpus-batched run of PR 1; per-document
isolation (with retries, per-stage circuit breakers, deadlines and NaN
guards) only engages after the batched run fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.core.base import DetailExtractor
from repro.core.schema import SUSTAINABILITY_FIELDS
from repro.core.segmentation import segment_objectives
from repro.datasets.reports import SustainabilityReport
from repro.goalspotter.detector import ObjectiveDetector
from repro.nn.module import numeric_guard
from repro.runtime.errors import InputError, ReproError
from repro.runtime.profiling import PerfCounters
from repro.runtime.resilience import (
    ON_ERROR_POLICIES,
    CircuitBreaker,
    FaultInjector,
    QuarantineQueue,
    RetryPolicy,
    run_stage,
    sanitize_report,
    validate_report,
)

#: ``ExtractedRecord.status`` values, in degradation-ladder order.
STATUS_OK = "ok"  # transformer extraction succeeded
STATUS_DEGRADED = "degraded"  # CRF fallback extraction
STATUS_FAILED = "failed"  # flagged-empty details

#: The fast path's per-report counters (``last_run_stats["per_report"]``).
_PER_REPORT_KEYS = ("blocks", "detected_blocks", "extraction_units")


@dataclasses.dataclass(frozen=True)
class ExtractedRecord:
    """One structured row for the objectives database."""

    company: str
    report_id: str
    page: int
    objective: str
    details: dict[str, str]
    score: float  # detector confidence
    status: str = STATUS_OK  # ok | degraded | failed (degradation ladder)
    reporting_year: int | None = None  # year provenance (multi-year panels)

    def as_row(self, fields: Sequence[str]) -> list[str]:
        return [self.company, self.objective] + [
            self.details.get(field, "") for field in fields
        ]


def record_to_payload(record: ExtractedRecord) -> dict:
    """JSON-ready view of a record for the run journal.

    Field order and value types survive a compact-JSON round trip
    exactly (``details`` keeps insertion order, ``score`` uses Python's
    shortest-repr float coding), so
    ``record_from_payload(json.loads(json.dumps(record_to_payload(r))))``
    equals ``r`` — the property the durable-run bitwise guarantee rests
    on. An explicit copy of the fields, in declaration order: the same
    dict ``dataclasses.asdict`` builds, without its recursive deep copy.
    """
    return {
        "company": record.company,
        "report_id": record.report_id,
        "page": record.page,
        "objective": record.objective,
        "details": dict(record.details),
        "score": record.score,
        "status": record.status,
        "reporting_year": record.reporting_year,
    }


def record_from_payload(payload: dict) -> ExtractedRecord:
    """Rebuild a record persisted by :func:`record_to_payload`."""
    return ExtractedRecord(
        company=payload["company"],
        report_id=payload["report_id"],
        page=int(payload["page"]),
        objective=payload["objective"],
        details=dict(payload["details"]),
        score=float(payload["score"]),
        status=payload.get("status", STATUS_OK),
        reporting_year=payload.get("reporting_year"),
    )


class GoalSpotter:
    """Detection + detail extraction over sustainability reports.

    With ``segment=True`` the paper's future-work *objective segmentation*
    is enabled: each detected block is split into candidate objective
    clauses (:mod:`repro.core.segmentation`) and details are extracted per
    clause, yielding one record per clause.

    Resilience knobs (all optional; the defaults reproduce the strict
    pre-resilience behaviour):

    Args:
        fallback_extractor: degradation-ladder step for ``"degrade"`` mode
            (typically a trained :class:`repro.crf.CrfDetailExtractor`).
        retry_policy: per-stage retry/backoff/deadline policy.
        fault_injector: deterministic chaos hooks for the test suite; the
            pipeline checks in at the ``"detect"``/``"extract"`` stages.
        on_error: default policy for :meth:`process_reports`.
        breaker_threshold / breaker_recovery_time: per-stage circuit
            breaker configuration (consecutive failures to trip, seconds
            until a half-open trial).
        max_block_chars: input-validation bound on block length.
        workers: default process count for :meth:`process_reports`
            (``1`` = in-process; ``"auto"``/``None`` = one per CPU core).
            Parallel runs are bitwise-identical to sequential ones — see
            :mod:`repro.runtime.parallel`.
    """

    def __init__(
        self,
        detector: ObjectiveDetector,
        extractor: DetailExtractor,
        segment: bool = False,
        *,
        fallback_extractor: DetailExtractor | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        on_error: str = "raise",
        breaker_threshold: int = 8,
        breaker_recovery_time: float = 0.0,
        max_block_chars: int = 50_000,
        workers: int | str | None = 1,
    ) -> None:
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"unknown on_error {on_error!r}; use {ON_ERROR_POLICIES}"
            )
        self.detector = detector
        self.extractor = extractor
        self.segment = segment
        self.fallback_extractor = fallback_extractor
        self.retry_policy = retry_policy or RetryPolicy()
        self.fault_injector = fault_injector
        self.on_error = on_error
        self.max_block_chars = max_block_chars
        self.workers = workers
        #: Irrecoverably failed documents (persists across runs; drain()).
        self.quarantine = QuarantineQueue()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_threshold = breaker_threshold
        self._breaker_recovery_time = breaker_recovery_time
        #: Stage timings and counts from the last ``process_reports`` call.
        self.last_run_stats: dict | None = None

    @classmethod
    def from_task_model(
        cls, model, detector: ObjectiveDetector, **kwargs
    ) -> "GoalSpotter":
        """Build a pipeline whose extraction stage is a registry task model.

        Only extraction-kind task models fit the detail-extraction slot;
        classification models raise
        :class:`~repro.runtime.errors.TaskRegistryError`.
        """
        from repro.runtime.errors import TaskRegistryError

        if getattr(model, "kind", "extraction") != "extraction":
            raise TaskRegistryError(
                "GoalSpotter needs an extraction-kind task model; got "
                f"kind {getattr(model, 'kind', None)!r}"
            )
        return cls(detector, getattr(model, "backend", model), **kwargs)

    # -- public API ---------------------------------------------------------

    def process_report(
        self, report: SustainabilityReport, on_error: str | None = None
    ) -> list[ExtractedRecord]:
        """Run the full pipeline on one report."""
        return self.process_reports([report], on_error=on_error)

    def process_reports(
        self,
        reports: Sequence[SustainabilityReport],
        on_error: str | None = None,
        *,
        workers: int | str | None = None,
    ) -> list[ExtractedRecord]:
        """Run the full pipeline on a report corpus (batched inference).

        ``on_error`` overrides the instance default for this call; see the
        class docstring for the policy semantics. ``workers`` overrides
        the instance default: more than one worker dispatches to the
        sharded multiprocessing runtime (:mod:`repro.runtime.parallel`),
        which is bitwise-identical to the sequential path.
        """
        mode = on_error if on_error is not None else self.on_error
        if mode not in ON_ERROR_POLICIES:
            raise ValueError(
                f"unknown on_error {mode!r}; use {ON_ERROR_POLICIES}"
            )
        if workers is None:
            workers = self.workers
        if workers != 1:
            # Deferred import: repro.runtime.parallel needs this module.
            from repro.runtime.parallel import (
                process_reports_parallel,
                resolve_workers,
            )

            if resolve_workers(workers) > 1 and len(reports) > 1:
                return process_reports_parallel(
                    self, reports, workers=workers, on_error=mode
                )
        counters = PerfCounters()
        quarantined_before = len(self.quarantine)

        if mode == "raise":
            for report in reports:
                validate_report(report, self.max_block_chars)
            usable = list(reports)
        else:
            usable = []
            for report in reports:
                clean = sanitize_report(
                    report, self.max_block_chars, counters
                )
                if not any(page.blocks for page in clean.pages):
                    error = InputError(
                        "report has no usable text blocks",
                        stage="validate",
                        report_id=clean.report_id,
                    )
                    self.quarantine.put(clean, "validate", error)
                    continue
                usable.append(clean)

        fast_path, per_report = True, None
        with counters.timer("wall_seconds"):
            if mode == "raise":
                records, per_report = self._run_corpus(
                    usable, counters, guard=False
                )
            else:
                # Scratch counters: a fast path that dies mid-run must not
                # leak partial block/timing counts into the real stats.
                scratch = PerfCounters()
                try:
                    records, per_report = self._run_corpus(
                        usable, scratch, guard=True
                    )
                except Exception:
                    # Batched fast path died: re-run with per-document
                    # isolation, retries, and the degradation ladder.
                    fast_path = False
                    counters.add("fast_path_failures")
                    records = []
                    for report in usable:
                        records.extend(
                            self._process_document(report, mode, counters)
                        )
                else:
                    for name, value in scratch.as_dict().items():
                        counters.add(name, value)

        if mode == "raise" and not records and counters.get("blocks") == 0:
            self.last_run_stats = None
            return records
        self._finalize_stats(
            counters,
            mode=mode,
            records=records,
            fast_path=fast_path,
            quarantined=len(self.quarantine) - quarantined_before,
            per_report=per_report,
        )
        return records

    def process_reports_durable(
        self,
        reports: Sequence[SustainabilityReport],
        run_dir,
        *,
        on_error: str | None = None,
        workers: int = 1,
        resume: bool = True,
        segment_items: int = 4,
        **kwargs,
    ) -> list[ExtractedRecord]:
        """Journaled corpus run: crash-safe, exactly-once, resumable.

        Like :meth:`process_reports`, but every completed segment of
        ~``segment_items`` reports commits to a crash-safe run journal
        in ``run_dir`` (:mod:`repro.runtime.journal`); re-running with
        the same directory and ``resume=True`` skips committed work and
        produces records — and quarantine entries — bitwise-identical to
        an uninterrupted run. ``workers>1`` executes under the
        lease-supervised pool (:class:`repro.runtime.supervisor.
        RunSupervisor`); extra ``kwargs`` pass through to
        :func:`repro.runtime.supervisor.run_durable_reports`
        (``config``, ``fault_injector``, ``drain_event``, ...).

        ``last_run_stats`` afterwards is the merged summary of the
        segments this call executed (zero blocks when every segment
        replayed from the journal), with ``records`` counting the whole
        run's records, plus ``on_error`` and the journal's stats under
        ``durable``.
        """
        # Deferred import: repro.runtime.supervisor needs this module.
        from repro.runtime.supervisor import run_durable_reports

        result = run_durable_reports(
            self,
            reports,
            run_dir,
            on_error=on_error,
            workers=workers,
            resume=resume,
            segment_items=segment_items,
            **kwargs,
        )
        records = [
            record_from_payload(payload) for payload in result.payloads
        ]
        self.last_run_stats = {
            **self.last_run_stats,
            "records": len(records),
            "on_error": on_error if on_error is not None else self.on_error,
            "durable": result.stats,
        }
        return records

    # -- batched fast path --------------------------------------------------

    def _guard(self, guard: bool):
        return numeric_guard() if guard else contextlib.nullcontext()

    def _run_corpus(
        self,
        reports: Sequence[SustainabilityReport],
        counters: PerfCounters,
        guard: bool,
    ) -> tuple[list[ExtractedRecord], dict[str, list[int]]]:
        """The PR 1 corpus-batched run (one detect call, one extract call).

        Returns the records and, per report in ``reports`` order, its
        ``blocks``, ``detected_blocks`` and ``extraction_units`` (one
        record per unit, so these also say which records are whose).
        """
        block_texts: list[str] = []
        provenance: list[tuple[str, str, int, int | None]] = []
        block_report: list[int] = []
        for position, report in enumerate(reports):
            year = getattr(report, "reporting_year", None)
            for page_index, page in enumerate(report.pages):
                for block in page.blocks:
                    block_texts.append(block.text)
                    provenance.append(
                        (report.company, report.report_id, page_index, year)
                    )
                    block_report.append(position)
        if not block_texts:
            empty = [0] * len(reports)
            return [], dict.fromkeys(_PER_REPORT_KEYS, empty)
        counters.add("blocks", len(block_texts))
        with counters.timer("detect_seconds"), self._guard(guard):
            if self.fault_injector is not None:
                self.fault_injector.check("detect")
            scores = self.detector.predict_proba(block_texts)
        detected = scores >= self.detector.config.threshold
        counters.add("detected_blocks", int(detected.sum()))

        units, unit_block = self._segment_units(
            block_texts, np.nonzero(detected)[0]
        )
        counters.add("extraction_units", len(units))
        with counters.timer("extract_seconds"), self._guard(guard):
            if self.fault_injector is not None:
                self.fault_injector.check("extract")
            details_list = self.extractor.extract_batch(units)
        records: list[ExtractedRecord] = []
        for unit_text, block_index, details in zip(
            units, unit_block, details_list
        ):
            company, report_id, page_index, year = provenance[block_index]
            records.append(
                ExtractedRecord(
                    company=company,
                    report_id=report_id,
                    page=page_index,
                    objective=unit_text,
                    details=details,
                    score=float(scores[block_index]),
                    reporting_year=year,
                )
            )
        owner = np.asarray(block_report, dtype=np.intp)
        chosen = (
            owner,
            owner[detected],
            owner[np.asarray(unit_block, dtype=np.intp)],
        )
        per_report = {
            key: np.bincount(blocks, minlength=len(reports)).tolist()
            for key, blocks in zip(_PER_REPORT_KEYS, chosen)
        }
        return records, per_report

    # -- per-document resilient path -----------------------------------------

    def _breaker(self, stage: str) -> CircuitBreaker:
        if stage not in self._breakers:
            self._breakers[stage] = CircuitBreaker(
                failure_threshold=self._breaker_threshold,
                recovery_time=self._breaker_recovery_time,
            )
        return self._breakers[stage]

    def _segment_units(
        self, block_texts: Sequence[str], detected_indices
    ) -> tuple[list[str], list[int]]:
        """Segment detected blocks into extraction units in one pass
        (one clause per unit when segmentation is on, else the block)."""
        units: list[str] = []
        unit_block: list[int] = []
        for block_index in detected_indices:
            text = block_texts[block_index]
            clauses = segment_objectives(text) if self.segment else (text,)
            for clause in clauses:
                units.append(clause)
                unit_block.append(int(block_index))
        return units, unit_block

    def _schema_fields(self) -> tuple[str, ...]:
        config = getattr(self.extractor, "config", None)
        fields = getattr(config, "fields", None) or getattr(
            self.extractor, "fields", None
        )
        return tuple(fields) if fields else SUSTAINABILITY_FIELDS

    def _process_document(
        self,
        report: SustainabilityReport,
        mode: str,
        counters: PerfCounters,
    ) -> list[ExtractedRecord]:
        """Run one document through detect -> extract with full resilience.

        Failures here never propagate: the document either yields records
        (possibly degraded/flagged) or lands in the quarantine queue.
        """
        block_texts: list[str] = []
        pages: list[int] = []
        for page_index, page in enumerate(report.pages):
            for block in page.blocks:
                block_texts.append(block.text)
                pages.append(page_index)
        if not block_texts:
            return []
        counters.add("blocks", len(block_texts))
        counters.add("documents_isolated")

        try:
            with counters.timer("detect_seconds"), self._guard(True):
                scores = run_stage(
                    lambda: self.detector.predict_proba(block_texts),
                    stage="detect",
                    policy=self.retry_policy,
                    breaker=self._breaker("detect"),
                    injector=self.fault_injector,
                    counters=counters,
                    report_id=report.report_id,
                )
        except ReproError as error:
            # No detection fallback exists, so an irrecoverable detect
            # failure quarantines the document under every policy.
            self.quarantine.put(report, "detect", error)
            return []

        detected = scores >= self.detector.config.threshold
        counters.add("detected_blocks", int(detected.sum()))
        units, unit_block = self._segment_units(
            block_texts, np.nonzero(detected)[0]
        )
        counters.add("extraction_units", len(units))
        if not units:
            return []

        status = STATUS_OK
        try:
            with counters.timer("extract_seconds"), self._guard(True):
                details_list = run_stage(
                    lambda: self.extractor.extract_batch(units),
                    stage="extract",
                    policy=self.retry_policy,
                    breaker=self._breaker("extract"),
                    injector=self.fault_injector,
                    counters=counters,
                    report_id=report.report_id,
                )
        except ReproError as error:
            if mode == "skip":
                self.quarantine.put(report, "extract", error)
                return []
            details_list, status = self._degraded_extract(
                units, report, counters
            )

        return [
            ExtractedRecord(
                company=report.company,
                report_id=report.report_id,
                page=pages[block_index],
                objective=unit_text,
                details=details,
                score=float(scores[block_index]),
                status=status,
                reporting_year=getattr(report, "reporting_year", None),
            )
            for unit_text, block_index, details in zip(
                units, unit_block, details_list
            )
        ]

    def _degraded_extract(
        self,
        units: list[str],
        report: SustainabilityReport,
        counters: PerfCounters,
    ) -> tuple[list[dict[str, str]], str]:
        """The degradation ladder: CRF fallback, then flagged-empty."""
        if self.fallback_extractor is not None:
            try:
                with counters.timer("fallback_seconds"), self._guard(True):
                    details_list = run_stage(
                        lambda: self.fallback_extractor.extract_batch(units),
                        stage="fallback_extract",
                        policy=self.retry_policy,
                        breaker=self._breaker("fallback_extract"),
                        injector=self.fault_injector,
                        counters=counters,
                        report_id=report.report_id,
                    )
                counters.add("fallback_documents")
                return details_list, STATUS_DEGRADED
            except ReproError:
                pass
        fields = self._schema_fields()
        return (
            [{field: "" for field in fields} for __ in units],
            STATUS_FAILED,
        )

    # -- observability -------------------------------------------------------

    def _finalize_stats(
        self,
        counters: PerfCounters,
        *,
        mode: str,
        records: list[ExtractedRecord],
        fast_path: bool,
        quarantined: int,
        per_report: dict[str, list[int]] | None,
    ) -> None:
        wall = counters.get("wall_seconds")
        blocks = int(counters.get("blocks"))
        extractor_stats = getattr(self.extractor, "last_run_stats", None)
        self.last_run_stats = {
            "wall_seconds": wall,
            "detect_seconds": counters.get("detect_seconds"),
            "extract_seconds": counters.get("extract_seconds"),
            "blocks": blocks,
            "detected_blocks": int(counters.get("detected_blocks")),
            "extraction_units": int(counters.get("extraction_units")),
            "records": len(records),
            "blocks_per_second": blocks / wall if wall > 0 else 0.0,
            # Robustness observability:
            "on_error": mode,
            "fast_path": fast_path,
            "retries": int(counters.get("retries")),
            "failures": int(counters.get("stage_failures")),
            "degraded_records": sum(
                1 for r in records if r.status == STATUS_DEGRADED
            ),
            "failed_records": sum(
                1 for r in records if r.status == STATUS_FAILED
            ),
            "fallback_documents": int(counters.get("fallback_documents")),
            "quarantined_documents": quarantined,
            "sanitized_blocks": int(counters.get("sanitized_blocks")),
            "extractor": (
                extractor_stats.as_dict() if extractor_stats else None
            ),
            # Per report the fast path ran (None after isolation).
            "per_report": per_report,
        }

    @staticmethod
    def top_records_per_company(
        records: Sequence[ExtractedRecord], top_k: int = 2
    ) -> dict[str, list[ExtractedRecord]]:
        """The paper's Table 6 view: top-k objectives by detector score."""
        by_company: dict[str, list[ExtractedRecord]] = {}
        for record in records:
            by_company.setdefault(record.company, []).append(record)
        return {
            company: sorted(
                company_records, key=lambda r: r.score, reverse=True
            )[:top_k]
            for company, company_records in sorted(by_company.items())
        }
