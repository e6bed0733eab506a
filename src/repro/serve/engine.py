"""The online serving engine: submit -> Future over the batch runtime.

``ServingEngine`` turns the corpus-at-a-time pipeline into a request-level
service (pure stdlib: threads + condition variables, no network deps):

* :meth:`~ServingEngine.submit` validates a request, runs it through the
  :class:`~repro.serve.admission.AdmissionController` (bounded per-priority
  queues, typed :class:`~repro.runtime.errors.OverloadedError` shedding)
  and returns a :class:`concurrent.futures.Future`;
* worker threads lease requests and coalesce them into **dynamic
  micro-batches** (flush on ``max_batch_tokens`` or ``max_wait_ms``,
  whichever first) that run through the existing length-bucketed
  scheduler — the PR 1 width-invariance guarantee makes a request's
  results bitwise-identical no matter which micro-batch it rides in;
* every model call runs under :func:`repro.runtime.resilience.run_stage`
  (retries, per-stage circuit breakers, fault injection), and a batch that
  fails irrecoverably is re-run request-by-request so one poisoned request
  degrades (fallback extractor) or lands in the engine quarantine instead
  of failing its batch-mates;
* :meth:`~ServingEngine.metrics_snapshot` exposes the SLO view: per-stage
  latency histograms (p50/p95/p99), queue-wait vs. compute split,
  throughput, and rejection/degradation counts.

Requests may be submitted before :meth:`~ServingEngine.start` — they queue
up (within the admission bounds) and run once workers exist, which is also
what makes the overload tests deterministic.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from collections.abc import Mapping, Sequence
from concurrent.futures import Future

from repro.runtime.errors import (
    InputError,
    OverloadedError,
    ReproError,
    classify_error,
)
from repro.runtime.rescache import ResultCache, result_key
from repro.runtime.resilience import (
    CircuitBreaker,
    FaultInjector,
    RetryPolicy,
    run_stage,
)
from repro.serve.admission import PRIORITIES, AdmissionController
from repro.serve.metrics import SloMetrics

#: Request kinds the engine can serve.
KIND_DETECT = "detect"
KIND_EXTRACT = "extract"

#: ``ServeResult.status`` values (mirrors the pipeline degradation ladder).
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"

#: Engine lifecycle states.
NEW, RUNNING, DRAINING, STOPPED = "new", "running", "draining", "stopped"


@dataclasses.dataclass(frozen=True)
class ServeRequest:
    """One unit of online work: score or extract a handful of texts."""

    kind: str  # "detect" | "extract"
    texts: tuple[str, ...]
    priority: str = "interactive"

    def __post_init__(self) -> None:
        if self.kind not in (KIND_DETECT, KIND_EXTRACT):
            raise InputError(
                f"unknown request kind {self.kind!r}; "
                f"use {KIND_DETECT!r} or {KIND_EXTRACT!r}",
                stage="admission",
            )
        if self.priority not in PRIORITIES:
            raise InputError(
                f"unknown priority {self.priority!r}; use {PRIORITIES}",
                stage="admission",
            )
        if not self.texts:
            raise InputError("request has no texts", stage="admission")
        for text in self.texts:
            if not isinstance(text, str) or not text.strip():
                raise InputError(
                    "request texts must be non-empty strings",
                    stage="admission",
                )


@dataclasses.dataclass(frozen=True)
class ServeResult:
    """What a request's Future resolves to."""

    kind: str
    #: Detection: one ``float`` score per text. Extraction: one
    #: ``dict[str, str]`` detail record per text.
    values: tuple
    status: str  # ok | degraded
    queue_wait_seconds: float
    compute_seconds: float
    total_seconds: float
    batch_size: int  # rows in the micro-batch that served this request


class _QueuedRequest:
    """Internal queue entry: request + future + timing provenance."""

    __slots__ = ("request", "future", "cost", "admitted_at")

    def __init__(self, request: ServeRequest, cost: int, admitted_at: float):
        self.request = request
        self.future: Future = Future()
        self.cost = cost
        self.admitted_at = admitted_at

    @property
    def priority(self) -> str:
        return self.request.priority


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Engine tuning knobs.

    Attributes:
        num_workers: threads executing micro-batches.
        max_batch_requests: row cap per micro-batch (1 = no coalescing,
            the batch-size-1 baseline the serving bench compares against).
        max_batch_tokens: estimated-token cap per micro-batch; the batcher
            flushes when the next compatible request would exceed it.
        max_wait_ms: how long a leased request waits for batch-mates
            before flushing — the latency the engine trades for batching.
        queue_depth: per-priority admission bound (int, or mapping
            ``{"interactive": n, "bulk": m}``).
        breaker_threshold / breaker_recovery_time: per-stage circuit
            breaker configuration.
        quarantine_limit: how many failed-request records to retain.
        result_cache_capacity: entries in the content-addressed result
            cache probed at submit time (0 — the default — disables it).
            Hits resolve immediately: they bypass admission, queueing,
            and the batch-token budget entirely (``batch_size=0`` marks
            them in the :class:`ServeResult`).
        result_cache_seed: seed of the cache's deterministic eviction.
    """

    num_workers: int = 2
    max_batch_requests: int = 8
    max_batch_tokens: int = 2048
    max_wait_ms: float = 2.0
    queue_depth: int | Mapping[str, int] = 64
    breaker_threshold: int = 8
    breaker_recovery_time: float = 0.0
    quarantine_limit: int = 256
    result_cache_capacity: int = 0
    result_cache_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.max_batch_requests <= 0:
            raise ValueError("max_batch_requests must be positive")
        if self.max_batch_tokens <= 0:
            raise ValueError("max_batch_tokens must be positive")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.quarantine_limit <= 0:
            raise ValueError("quarantine_limit must be positive")
        if self.result_cache_capacity < 0:
            raise ValueError("result_cache_capacity must be >= 0")


def _estimate_tokens(texts: Sequence[str]) -> int:
    """Cheap token-cost estimate for admission/batching (words, min 1)."""
    return max(1, sum(len(text.split()) for text in texts))


class ServingEngine:
    """Request-level serving over a detector and/or extractor backend.

    Args:
        detector: anything with ``predict_proba(texts) -> array`` (serves
            ``kind="detect"``).
        extractor: anything with ``extract_batch(texts) -> list[dict]``
            (serves ``kind="extract"``).
        fallback_extractor: degradation-ladder step for poisoned extract
            requests (results come back with ``status="degraded"``).
        config: :class:`ServingConfig` tuning knobs.
        retry_policy: per-stage retry policy for
            :func:`~repro.runtime.resilience.run_stage`.
        fault_injector: deterministic chaos hooks; the engine checks in at
            the ``"detect"``/``"extract"``/``"fallback_extract"`` stages.
    """

    def __init__(
        self,
        detector=None,
        extractor=None,
        *,
        fallback_extractor=None,
        config: ServingConfig | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        clock=time.monotonic,
    ) -> None:
        if detector is None and extractor is None:
            raise ValueError(
                "a ServingEngine needs a detector and/or an extractor"
            )
        self.detector = detector
        self.extractor = extractor
        self.fallback_extractor = fallback_extractor
        self.config = config or ServingConfig()
        self.retry_policy = retry_policy or RetryPolicy(
            max_retries=1, base_delay=0.0, jitter=0.0
        )
        self.fault_injector = fault_injector
        self._clock = clock
        self.metrics = SloMetrics(clock=clock)
        self.admission = AdmissionController(
            self.config.queue_depth, metrics=self.metrics, clock=clock
        )
        self._breakers = {
            stage: CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                recovery_time=self.config.breaker_recovery_time,
            )
            for stage in (KIND_DETECT, KIND_EXTRACT, "fallback_extract")
        }
        #: Content-addressed request-result cache (None while disabled).
        self.result_cache: ResultCache | None = (
            ResultCache(
                capacity=self.config.result_cache_capacity,
                seed=self.config.result_cache_seed,
            )
            if self.config.result_cache_capacity > 0
            else None
        )
        #: Failed requests with full error provenance (bounded).
        self.quarantine: deque[dict] = deque(
            maxlen=self.config.quarantine_limit
        )
        self._workers: list[threading.Thread] = []
        self._state = NEW
        self._state_lock = threading.Lock()

    @classmethod
    def from_pipeline(cls, pipeline, **kwargs) -> "ServingEngine":
        """Build an engine over a :class:`~repro.goalspotter.GoalSpotter`."""
        kwargs.setdefault(
            "fallback_extractor", getattr(pipeline, "fallback_extractor", None)
        )
        kwargs.setdefault(
            "fault_injector", getattr(pipeline, "fault_injector", None)
        )
        return cls(
            detector=pipeline.detector,
            extractor=pipeline.extractor,
            **kwargs,
        )

    @classmethod
    def from_task_model(cls, model, **kwargs) -> "ServingEngine":
        """Build an engine over a fitted :class:`repro.tasks.models.TaskModel`.

        The task's kind picks the slot: classification backends serve as
        the detector (``kind="detect"`` requests return per-text
        probability rows), extraction backends as the extractor.
        """
        backend = getattr(model, "backend", model)
        if getattr(model, "serving_kind", "extract") == "detect":
            return cls(detector=backend, **kwargs)
        return cls(extractor=backend, **kwargs)

    # -- lifecycle -----------------------------------------------------------

    @property
    def state(self) -> str:
        with self._state_lock:
            return self._state

    def start(self) -> "ServingEngine":
        """Spawn the worker pool; idempotent while running."""
        with self._state_lock:
            if self._state == RUNNING:
                return self
            if self._state in (DRAINING, STOPPED):
                raise RuntimeError(
                    f"cannot start a {self._state} engine"
                )
            self._state = RUNNING
            for index in range(self.config.num_workers):
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-serve-worker-{index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        return self

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, finish queued + in-flight work; True if idle.

        New submissions are shed with :class:`OverloadedError` the moment
        drain begins. Requires a started engine (an unstarted engine has
        nobody to drain the queue).
        """
        with self._state_lock:
            if self._state == NEW:
                raise RuntimeError("cannot drain an engine never started")
            if self._state == STOPPED:
                return True
            self._state = DRAINING
        self.admission.shed()
        return self.admission.wait_idle(timeout)

    def shutdown(
        self, drain: bool = True, timeout: float | None = None
    ) -> None:
        """Stop the engine; with ``drain`` finish queued work first.

        With ``drain``, queued futures *complete* instead of being
        abandoned — an engine that was never started but holds queued
        submissions spins up its workers just to run them down, so no
        accepted request is ever left unresolved by a drain shutdown.
        Without ``drain`` (abort), queued-but-unstarted requests fail
        with :class:`OverloadedError`; in-flight batches still complete.
        """
        with self._state_lock:
            if self._state == STOPPED:
                return
            started = self._state in (RUNNING, DRAINING)
        if drain and not started and self.admission.pending() > 0:
            self.start()
            started = True
        if drain and started:
            self.drain(timeout)
        self.admission.close()
        abandoned = self.admission.pop_all()
        for entry in abandoned:
            error = OverloadedError(
                "engine shut down before the request ran",
                stage="admission",
            )
            self.metrics.count("rejected")
            entry.future.set_exception(error)
        for worker in self._workers:
            worker.join(timeout=5.0)
        with self._state_lock:
            self._state = STOPPED

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        request: ServeRequest | None = None,
        *,
        kind: str | None = None,
        texts: Sequence[str] | str | None = None,
        priority: str = "interactive",
    ) -> Future:
        """Admit one request; returns a Future resolving to a ServeResult.

        Either pass a prebuilt :class:`ServeRequest` or the
        ``kind``/``texts``/``priority`` fields. Raises
        :class:`~repro.runtime.errors.InputError` on malformed input and
        :class:`~repro.runtime.errors.OverloadedError` when the request's
        priority queue is at its bound (load shedding — never blocks).
        """
        if request is None:
            if kind is None or texts is None:
                raise InputError(
                    "submit() needs a ServeRequest or kind= and texts=",
                    stage="admission",
                )
            if isinstance(texts, str):
                texts = (texts,)
            request = ServeRequest(
                kind=kind, texts=tuple(texts), priority=priority
            )
        if request.kind == KIND_DETECT and self.detector is None:
            raise InputError(
                "engine has no detector backend", stage="admission"
            )
        if request.kind == KIND_EXTRACT and self.extractor is None:
            raise InputError(
                "engine has no extractor backend", stage="admission"
            )
        self.metrics.count("submitted")
        if self.result_cache is not None:
            fast = self._serve_from_cache(request)
            if fast is not None:
                return fast
        entry = _QueuedRequest(
            request, _estimate_tokens(request.texts), self._clock()
        )
        self.admission.admit(entry)  # raises OverloadedError when shedding
        return entry.future

    def _cache_key(self, request: ServeRequest) -> str | None:
        """Content key of a request, or None when it cannot be pinned.

        The key hashes the request payload (kind + texts) with the
        backend model's weight fingerprint, so a hot-swapped checkpoint
        can never be served another model's records. Unfitted backends
        get no key.
        """
        backend = (
            self.detector if request.kind == KIND_DETECT else self.extractor
        )
        model = getattr(backend, "model", None)
        if model is None or not hasattr(model, "fingerprint"):
            return None
        payload = request.kind + "\x00" + "\x00".join(request.texts)
        return result_key(payload, model.fingerprint())

    def _serve_from_cache(self, request: ServeRequest) -> Future | None:
        """Resolve a submit immediately on a cache hit (else None).

        Hits never enter admission: they cost no queue slot, no worker
        lease, and no batch-token budget — which is the point of probing
        before :meth:`AdmissionController.admit`.
        """
        key = self._cache_key(request)
        if key is None:
            return None
        values = self.result_cache.get(key)
        if values is None:
            self.metrics.count(f"cache.misses.{request.priority}")
            return None
        self.metrics.count(f"cache.hits.{request.priority}")
        self.metrics.count("cache_fast_path")
        self.metrics.count("completed")
        self.metrics.observe(f"{request.kind}.total", 0.0)
        future: Future = Future()
        future.set_result(
            ServeResult(
                kind=request.kind,
                # Detail records are mutable dicts; hand out copies so a
                # caller's edits cannot corrupt the cached entry.
                values=tuple(
                    dict(value) if isinstance(value, dict) else value
                    for value in values
                ),
                status=STATUS_OK,
                queue_wait_seconds=0.0,
                compute_seconds=0.0,
                total_seconds=0.0,
                batch_size=0,
            )
        )
        return future

    def detect(self, texts, priority: str = "interactive") -> Future:
        """Convenience: submit a detection request."""
        return self.submit(kind=KIND_DETECT, texts=texts, priority=priority)

    def extract(self, texts, priority: str = "interactive") -> Future:
        """Convenience: submit an extraction request."""
        return self.submit(kind=KIND_EXTRACT, texts=texts, priority=priority)

    # -- observability -------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """The SLO view: latency histograms, throughput, queue state."""
        snapshot = self.metrics.snapshot()
        snapshot["engine"] = {
            "state": self.state,
            "workers": len(self._workers),
            "queue_depth": {
                priority: self.admission.depth(priority)
                for priority in PRIORITIES
            },
            "pending": self.admission.pending(),
            "quarantined": len(self.quarantine),
            "breakers": {
                stage: breaker.state
                for stage, breaker in self._breakers.items()
            },
        }
        return snapshot

    # -- worker side ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            entry = self.admission.pop(timeout=0.05)
            if entry is None:
                if self.admission.closed:
                    return
                continue
            batch = self.admission.gather(
                entry,
                max_requests=self.config.max_batch_requests,
                max_tokens=self.config.max_batch_tokens,
                max_wait_seconds=self.config.max_wait_ms / 1000.0,
            )
            try:
                self._execute_batch(batch)
            except Exception as raw:  # noqa: BLE001 — workers must survive
                # A worker that dies takes every future it holds (and the
                # whole queue behind it) to an unresolved grave. Classify
                # whatever escaped the stage machinery, fail the batch's
                # futures with it, and keep the worker alive.
                error = classify_error(raw, stage=batch[0].request.kind)
                self.metrics.count("worker_faults")
                for entry in batch:
                    if not entry.future.done():
                        self.metrics.count("failed")
                        entry.future.set_exception(error)
            finally:
                self.admission.release(len(batch))

    def _backend(self, kind: str):
        if kind == KIND_DETECT:
            return lambda texts: list(self.detector.predict_proba(texts))
        return lambda texts: self.extractor.extract_batch(texts)

    def _execute_batch(self, batch: list) -> None:
        kind = batch[0].request.kind
        texts: list[str] = []
        for entry in batch:
            texts.extend(entry.request.texts)
        compute_start = self._clock()
        self.metrics.count("batches")
        self.metrics.count("batched_requests", len(batch))
        self.metrics.observe(f"{kind}.batch_rows", float(len(batch)))
        backend = self._backend(kind)
        try:
            values = run_stage(
                lambda: backend(texts),
                stage=kind,
                policy=self.retry_policy,
                breaker=self._breakers[kind],
                injector=self.fault_injector,
                counters=self.metrics.counters,
            )
        except ReproError as error:
            if len(batch) == 1:
                self._fail_or_degrade(batch[0], error, compute_start)
                return
            # Isolation: one poisoned request must not fail its
            # batch-mates — re-run each request alone.
            self.metrics.count("batch_isolations")
            for entry in batch:
                self._execute_single(entry)
            return
        compute_seconds = self._clock() - compute_start
        cursor = 0
        for entry in batch:
            span = len(entry.request.texts)
            self._resolve(
                entry,
                values[cursor : cursor + span],
                status=STATUS_OK,
                compute_start=compute_start,
                compute_seconds=compute_seconds,
                batch_size=len(batch),
            )
            cursor += span

    def _execute_single(self, entry) -> None:
        kind = entry.request.kind
        compute_start = self._clock()
        backend = self._backend(kind)
        try:
            values = run_stage(
                lambda: backend(list(entry.request.texts)),
                stage=kind,
                policy=self.retry_policy,
                breaker=self._breakers[kind],
                injector=self.fault_injector,
                counters=self.metrics.counters,
            )
        except ReproError as error:
            self._fail_or_degrade(entry, error, compute_start)
            return
        self._resolve(
            entry,
            values,
            status=STATUS_OK,
            compute_start=compute_start,
            compute_seconds=self._clock() - compute_start,
            batch_size=1,
        )

    def _fail_or_degrade(self, entry, error: ReproError, compute_start):
        """The per-request degradation ladder: fallback, then quarantine."""
        if (
            entry.request.kind == KIND_EXTRACT
            and self.fallback_extractor is not None
        ):
            try:
                values = run_stage(
                    lambda: self.fallback_extractor.extract_batch(
                        list(entry.request.texts)
                    ),
                    stage="fallback_extract",
                    policy=self.retry_policy,
                    breaker=self._breakers["fallback_extract"],
                    injector=self.fault_injector,
                    counters=self.metrics.counters,
                )
            except ReproError:
                pass
            else:
                self.metrics.count("degraded")
                self._resolve(
                    entry,
                    values,
                    status=STATUS_DEGRADED,
                    compute_start=compute_start,
                    compute_seconds=self._clock() - compute_start,
                    batch_size=1,
                )
                return
        self.metrics.count("failed")
        self.quarantine.append(
            {
                "kind": entry.request.kind,
                "priority": entry.request.priority,
                "texts": list(entry.request.texts),
                **error.context(),
            }
        )
        entry.future.set_exception(error)

    def _resolve(
        self,
        entry,
        values,
        *,
        status: str,
        compute_start: float,
        compute_seconds: float,
        batch_size: int,
    ) -> None:
        now = self._clock()
        kind = entry.request.kind
        queue_wait = max(0.0, compute_start - entry.admitted_at)
        total = max(0.0, now - entry.admitted_at)
        if status == STATUS_OK and self.result_cache is not None:
            # Key recomputed *after* compute so the entry is pinned to
            # the weights that actually produced these values (a model
            # hot-swapped mid-flight lands under its own fingerprint).
            key = self._cache_key(entry.request)
            if key is not None:
                # Store copies of mutable detail records: the caller gets
                # the originals and may edit them freely.
                self.result_cache.put(
                    key,
                    tuple(
                        dict(value) if isinstance(value, dict) else value
                        for value in values
                    ),
                )
        self.metrics.count("completed")
        self.metrics.observe(f"{kind}.queue_wait", queue_wait)
        self.metrics.observe(f"{kind}.compute", compute_seconds)
        self.metrics.observe(f"{kind}.total", total)
        entry.future.set_result(
            ServeResult(
                kind=kind,
                values=tuple(values),
                status=status,
                queue_wait_seconds=queue_wait,
                compute_seconds=compute_seconds,
                total_seconds=total,
                batch_size=batch_size,
            )
        )
