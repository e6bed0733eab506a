"""Fault-tolerant stage execution: retries, breakers, quarantine, chaos.

The deployment story (Tables 5-7) pushes tens of thousands of heterogeneous
report pages through detect -> extract -> store. At that scale one malformed
block or NaN logit must not abort the batch. This module provides the
building blocks the pipeline wires together:

* :class:`RetryPolicy` — seeded exponential backoff with deterministic
  jitter and a per-stage deadline budget (:class:`~repro.runtime.errors.StageTimeout`);
* :class:`CircuitBreaker` — per-stage closed/open/half-open breaker so a
  persistently failing stage stops being hammered;
* :func:`run_stage` — executes one stage callable under a policy, breaker
  and fault injector, classifying foreign exceptions into the taxonomy and
  attaching attempt history;
* :class:`QuarantineQueue` — failed documents with error, stage and retry
  history, instead of a dead batch;
* :class:`FaultInjector` — deterministic (seeded, rate- or nth-call
  targeted) error injection into named stages, for the chaos suite;
* :func:`validate_report` / :func:`sanitize_report` — pipeline-entry input
  validation with report/page provenance.

Everything is deterministic under a fixed seed: backoff jitter comes from a
seeded per-stage RNG, and injection decisions from a seeded per-spec RNG
advanced once per call.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.datasets.reports import Page, SustainabilityReport, TextBlock
from repro.runtime.errors import (
    ERROR_CLASSES,
    CircuitOpenError,
    InputError,
    ReproError,
    classify_error,
)
from repro.runtime.profiling import PerfCounters


def _stage_rng(seed: int, stage: str) -> np.random.Generator:
    """A deterministic RNG keyed on (seed, stage name)."""
    return np.random.default_rng([seed & 0x7FFFFFFF, *stage.encode("utf-8")])


#: Valid ``on_error`` policies, shared by every corpus path: abort the
#: run, drop a failed input, or stand an empty result in for it.
ON_ERROR_POLICIES = ("raise", "skip", "degrade")


# -- retry policy -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with a per-stage deadline budget.

    ``delays(stage)`` is a pure function of ``(policy, stage)``: the jitter
    RNG is reseeded per call, so the same policy produces the same backoff
    schedule for the same stage every time — retries are reproducible.

    Attributes:
        max_retries: retry attempts *after* the first try (0 = no retries).
        base_delay: first backoff delay in seconds.
        max_delay: cap on any single delay.
        jitter: fraction of each delay drawn uniformly at random on top of
            the deterministic exponential (0 disables jitter).
        deadline: wall-clock budget in seconds for one stage call across
            all of its attempts (None = unbounded); exceeding it raises
            :class:`~repro.runtime.errors.StageTimeout`.
        seed: jitter RNG seed.
    """

    max_retries: int = 2
    base_delay: float = 0.01
    max_delay: float = 1.0
    jitter: float = 0.5
    deadline: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")

    def delays(self, stage: str = "") -> list[float]:
        """The deterministic backoff schedule for ``stage``."""
        rng = _stage_rng(self.seed, stage)
        delays: list[float] = []
        for attempt in range(self.max_retries):
            base = min(self.base_delay * (2.0**attempt), self.max_delay)
            delays.append(base * (1.0 + self.jitter * float(rng.random())))
        return delays


# -- circuit breaker --------------------------------------------------------

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """Per-stage circuit breaker with closed/open/half-open states.

    Closed: calls pass through; ``failure_threshold`` *consecutive*
    failures trip the breaker open. Open: calls fail fast with
    :class:`~repro.runtime.errors.CircuitOpenError` until ``recovery_time``
    seconds pass, then one trial call is admitted (half-open). A half-open
    success closes the breaker; a half-open failure re-opens it.

    ``clock`` is injectable for deterministic tests (defaults to
    ``time.monotonic``). Thread-safe: serving workers share one breaker
    per stage, so state transitions happen under an internal lock.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if recovery_time < 0:
            raise ValueError("recovery_time must be non-negative")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self._clock = clock
        self._lock = threading.RLock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    @property
    def state(self) -> str:
        # An open breaker whose cooldown elapsed is reported (and behaves)
        # as half-open: the next allow() admits one trial call.
        with self._lock:
            if (
                self._state == OPEN
                and self._clock() - self._opened_at >= self.recovery_time
            ):
                return HALF_OPEN
            return self._state

    def allow(self) -> bool:
        """Whether a call may proceed right now."""
        with self._lock:
            state = self.state
            if state == CLOSED:
                return True
            if state == HALF_OPEN:
                self._state = HALF_OPEN
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        with self._lock:
            self._state = OPEN
            self._consecutive_failures = 0
            self._opened_at = self._clock()

    def reset(self) -> None:
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._opened_at = 0.0


# -- fault injection ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One injection rule: which stage, which error, how often.

    ``rate`` triggers Bernoulli(rate) per call from a seeded per-spec RNG;
    ``nth_calls`` triggers on exact 1-based call ordinals of the stage.
    Either (or both) may be set; both are deterministic under the
    injector's seed.
    """

    stage: str
    error: str = "model"
    rate: float = 0.0
    nth_calls: tuple[int, ...] = ()
    message: str = ""

    def __post_init__(self) -> None:
        if self.error not in ERROR_CLASSES:
            raise ValueError(
                f"unknown error kind {self.error!r}; "
                f"use {sorted(ERROR_CLASSES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if any(n <= 0 for n in self.nth_calls):
            raise ValueError("nth_calls are 1-based ordinals")


class FaultInjector:
    """Deterministic error injection into named pipeline stages.

    Stages call :meth:`check` on entry (or wrap callables via
    :meth:`wrap`); when a spec triggers, the corresponding taxonomy error
    is raised with ``injected=True``. Same seed + same call sequence =>
    same fault pattern, which is what makes the chaos suite reproducible.

    Established crash sites: ``tokenize``/``forward`` (extract_batch),
    ``store``/``store_commit`` (atomic record stores), ``save``/
    ``save_commit`` (extractor directory saves), and — for the durable
    training runtime — ``train_step`` (every optimizer-step boundary),
    ``checkpoint`` (checkpoint save entry), and ``checkpoint_commit``
    (between a fully-written temp checkpoint and its publication).
    Durable corpus runs add ``journal_commit`` (segment-commit entry,
    before anything reaches the WAL) and ``journal_publish`` (between
    the journal append and its fsync — the torn-tail window).

    Fleet-level sites (checked by :class:`repro.serve.FleetRouter`)
    exercise its two jobs, failover and blue-green model swap:
    ``replica_crash`` (at dispatch — the selected replica dies mid-flight
    and its in-flight work must fail over), ``replica_stall`` (the
    selected replica stops making progress and takes a health strike
    instead of the request), and ``swap_abort`` (between a fully-loaded,
    gate-passed new model generation and the atomic cutover — the swap
    must abort and leave the old fleet serving).
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._injected: dict[str, int] = {}
        self._rngs: dict[int, np.random.Generator] = {}
        self.reset()

    def __getstate__(self) -> dict:
        # Only the configuration crosses a process boundary; the receiver
        # starts with fresh call counters and RNG streams (the parallel
        # runtime reseeds per shard via :func:`shard_seed`).
        return {"specs": self.specs, "seed": self.seed}

    def __setstate__(self, state: dict) -> None:
        self.specs = state["specs"]
        self.seed = state["seed"]
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Restart call counters and RNG streams (same pattern replays)."""
        with self._lock:
            self._calls = {}
            self._injected = {}
            self._rngs = {
                index: _stage_rng(self.seed + index, spec.stage)
                for index, spec in enumerate(self.specs)
            }

    def calls(self, stage: str) -> int:
        """How many times ``stage`` checked in (including faulted calls)."""
        with self._lock:
            return self._calls.get(stage, 0)

    def injected(self, stage: str) -> int:
        """How many faults were injected into ``stage``."""
        with self._lock:
            return self._injected.get(stage, 0)

    def check(
        self,
        stage: str,
        *,
        report_id: str | None = None,
        page: int | None = None,
    ) -> None:
        """Count a call of ``stage`` and raise if any spec triggers.

        Thread-safe: concurrent serving workers check in on the same
        stage; call ordinals and RNG draws advance atomically (which call
        of a concurrent pair gets a given ordinal is scheduler-dependent,
        but the fault *pattern over ordinals* stays deterministic).
        """
        with self._lock:
            ordinal = self._calls.get(stage, 0) + 1
            self._calls[stage] = ordinal
            triggered: FaultSpec | None = None
            for index, spec in enumerate(self.specs):
                if spec.stage != stage:
                    continue
                # Always advance the rate RNG so the draw sequence depends
                # only on the stage call ordinal, not on which call
                # triggered.
                draw = (
                    float(self._rngs[index].random())
                    if spec.rate > 0
                    else 1.0
                )
                if triggered is None and (
                    ordinal in spec.nth_calls or draw < spec.rate
                ):
                    triggered = spec
                    self._injected[stage] = (
                        self._injected.get(stage, 0) + 1
                    )
        if triggered is not None:
            error = ERROR_CLASSES[triggered.error](
                triggered.message
                or f"injected {triggered.error} fault (call #{ordinal})",
                stage=stage,
                report_id=report_id,
                page=page,
            )
            error.injected = True
            raise error

    def wrap(self, stage: str, fn: Callable) -> Callable:
        """A callable that checks in with the injector, then calls ``fn``."""

        def wrapped(*args, **kwargs):
            self.check(stage)
            return fn(*args, **kwargs)

        return wrapped


# -- quarantine --------------------------------------------------------------


@dataclasses.dataclass
class QuarantineEntry:
    """One irrecoverably failed document and why it failed."""

    report_id: str
    company: str
    stage: str
    error: ReproError

    def as_dict(self) -> dict:
        payload = self.error.context()
        payload.update(
            {
                "report_id": self.report_id,
                "company": self.company,
                "stage": self.stage,
            }
        )
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "QuarantineEntry":
        """Rebuild an entry persisted by :meth:`as_dict`.

        The run-journal replay path: quarantined documents survive
        restarts with their full typed failure provenance (class,
        message, attempts, history) instead of being retried — minus the
        original ``__cause__`` traceback, which is not persisted.
        ``entry.from_dict(entry.as_dict()).as_dict()`` round-trips
        exactly.
        """
        from repro.runtime.errors import error_from_context

        return cls(
            report_id=str(payload.get("report_id") or ""),
            company=str(payload.get("company") or ""),
            stage=str(payload.get("stage") or ""),
            error=error_from_context(payload),
        )


class QuarantineQueue:
    """Documents the pipeline gave up on, with full failure provenance."""

    def __init__(self) -> None:
        self._entries: list[QuarantineEntry] = []

    def put(
        self, report: SustainabilityReport, stage: str, error: ReproError
    ) -> None:
        self._entries.append(
            QuarantineEntry(
                report_id=report.report_id,
                company=report.company,
                stage=stage,
                error=error,
            )
        )

    def extend(self, entries: Iterable[QuarantineEntry]) -> None:
        """Append already-built entries (shard results merging back)."""
        self._entries.extend(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[QuarantineEntry]:
        return iter(self._entries)

    def report_ids(self) -> list[str]:
        return [entry.report_id for entry in self._entries]

    def as_dicts(self) -> list[dict]:
        """JSON-ready dump (what an operator would page through)."""
        return [entry.as_dict() for entry in self._entries]

    def drain(self) -> list[QuarantineEntry]:
        """Return and clear all entries."""
        entries, self._entries = self._entries, []
        return entries


# -- stage execution ---------------------------------------------------------


def run_stage(
    fn: Callable[[], object],
    *,
    stage: str,
    policy: RetryPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    injector: FaultInjector | None = None,
    counters: PerfCounters | None = None,
    report_id: str | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run one stage callable under retry/breaker/injection policies.

    Foreign exceptions are classified into the taxonomy
    (:func:`~repro.runtime.errors.classify_error`); non-retryable errors
    and exhausted retries re-raise with ``attempts``/``history`` filled.
    The ``deadline`` budget covers all attempts of this one call; blowing
    it raises :class:`~repro.runtime.errors.StageTimeout` carrying the
    history so far.
    """
    policy = policy or RetryPolicy(max_retries=0)
    delays = policy.delays(stage)
    history: list[str] = []
    started = clock()
    for attempt in range(policy.max_retries + 1):
        if breaker is not None and not breaker.allow():
            error: ReproError = CircuitOpenError(
                f"circuit breaker open for stage {stage!r}",
                stage=stage,
                report_id=report_id,
            )
            error.attempts = attempt
            error.history = history
            raise error
        try:
            if injector is not None:
                injector.check(stage, report_id=report_id)
            result = fn()
        except Exception as raw:
            wrapped = classify_error(raw, stage=stage)
            if wrapped.report_id is None:
                wrapped.report_id = report_id
            history.append(f"{type(wrapped).__name__}: {wrapped}")
            if breaker is not None:
                breaker.record_failure()
            if counters is not None:
                counters.add("stage_failures")
            out_of_attempts = attempt >= policy.max_retries
            if not wrapped.retryable or out_of_attempts:
                wrapped.attempts = attempt + 1
                wrapped.history = history
                raise wrapped from wrapped.__cause__
            elapsed = clock() - started
            delay = delays[attempt]
            if policy.deadline is not None and (
                elapsed + delay > policy.deadline
            ):
                timeout = _timeout_error(
                    stage, policy.deadline, attempt + 1, history, report_id
                )
                raise timeout from wrapped
            if counters is not None:
                counters.add("retries")
            if delay > 0:
                sleep(delay)
        else:
            if breaker is not None:
                breaker.record_success()
            return result
    raise AssertionError("unreachable")  # pragma: no cover


def _timeout_error(
    stage: str,
    deadline: float,
    attempts: int,
    history: list[str],
    report_id: str | None,
):
    from repro.runtime.errors import StageTimeout

    error = StageTimeout(
        f"stage {stage!r} exhausted its {deadline:.3f}s deadline "
        f"after {attempts} attempt(s)",
        stage=stage,
        report_id=report_id,
    )
    error.attempts = attempts
    error.history = history
    return error


# -- input validation --------------------------------------------------------

#: Blocks longer than this are considered corrupt input (a well-formed
#: report block is a paragraph, not a megabyte of extraction residue).
MAX_BLOCK_CHARS = 50_000


def validate_report(
    report: SustainabilityReport, max_block_chars: int = MAX_BLOCK_CHARS
) -> None:
    """Strict pipeline-entry validation; raises :class:`InputError`.

    Rejects empty reports (no pages, or no blocks on any page), ``None``
    or non-``str`` block texts, and absurd block lengths — each error
    carries report/page provenance instead of surfacing as a deep
    ``AttributeError`` inside the tokenizer.
    """
    if not isinstance(report, SustainabilityReport):
        raise InputError(
            f"expected SustainabilityReport, got {type(report).__name__}",
            stage="validate",
        )
    if not report.pages:
        raise InputError(
            "report has no pages",
            stage="validate",
            report_id=report.report_id,
        )
    saw_block = False
    for page_index, page in enumerate(report.pages):
        for block in page.blocks:
            saw_block = True
            text = getattr(block, "text", None)
            if not isinstance(text, str):
                raise InputError(
                    f"block text must be str, got {type(text).__name__}",
                    stage="validate",
                    report_id=report.report_id,
                    page=page_index,
                )
            if len(text) > max_block_chars:
                raise InputError(
                    f"block of {len(text)} chars exceeds the "
                    f"{max_block_chars}-char limit",
                    stage="validate",
                    report_id=report.report_id,
                    page=page_index,
                )
    if not saw_block:
        raise InputError(
            "report has no text blocks",
            stage="validate",
            report_id=report.report_id,
        )


def sanitize_report(
    report: SustainabilityReport,
    max_block_chars: int = MAX_BLOCK_CHARS,
    counters: PerfCounters | None = None,
) -> SustainabilityReport:
    """Lenient pipeline-entry cleanup for skip/degrade modes.

    Drops ``None``/non-``str`` blocks, truncates absurdly long ones, and
    returns the report unchanged (same object) when nothing needed fixing.
    Dropped/truncated counts accumulate into ``counters`` as
    ``sanitized_blocks``.
    """
    dirty = False
    pages: list[Page] = []
    sanitized = 0
    for page in report.pages:
        blocks: list[TextBlock] = []
        for block in page.blocks:
            text = getattr(block, "text", None)
            if not isinstance(text, str) or not text.strip():
                sanitized += 1
                dirty = True
                continue
            if len(text) > max_block_chars:
                block = dataclasses.replace(
                    block, text=text[:max_block_chars]
                )
                sanitized += 1
                dirty = True
            blocks.append(block)
        pages.append(Page(blocks=blocks))
    if counters is not None and sanitized:
        counters.add("sanitized_blocks", sanitized)
    if not dirty:
        return report
    return SustainabilityReport(
        company=report.company,
        report_id=report.report_id,
        pages=pages,
        reporting_year=getattr(report, "reporting_year", None),
    )
