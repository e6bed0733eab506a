"""Batched inference runtime: scheduling, resilience, observability.

The production workload (detect -> extract -> store over tens of thousands
of report pages, Tables 5-7) is batch inference. This package makes that
path fast, fault-tolerant, and measurable:

* :mod:`repro.runtime.scheduler` — length-bucketed batch planning under a
  token budget, used by every prediction path;
* :mod:`repro.runtime.errors` — the structured failure taxonomy
  (``ReproError`` -> ``InputError``/``ModelError``/``NumericalError``/
  ``StageTimeout``);
* :mod:`repro.runtime.resilience` — retry policies with seeded backoff,
  per-stage circuit breakers and deadlines, quarantine, input validation,
  and a deterministic fault injector for the chaos suite;
* :mod:`repro.runtime.profiling` — perf counters, timers, tokens/sec,
  padding-waste, cache-hit-rate, and failure/retry/degradation reporting;
* :mod:`repro.runtime.parallel` — data-parallel sharded corpus entry
  points (one-shot model broadcast, balanced contiguous shards, merged
  stats/quarantine; bitwise-identical to sequential);
* :mod:`repro.runtime.checkpoint` — durable training: atomic, checksummed,
  bitwise-resumable checkpoints with manifests, a last-good pointer, and
  corruption rollback (typed ``ArtifactError`` on every load surface);
* :mod:`repro.runtime.rescache` — content-addressed cross-request result
  cache (keys pin token ids + weight fingerprint; bounded,
  seeded-deterministic eviction; hits are bitwise-identical to
  recomputation thanks to packing invariance);
* :mod:`repro.runtime.journal` — crash-safe run journal for corpus
  inference: manifest-bound, checksummed JSONL WAL with fsync'd atomic
  segment commits and exactly-once resume (resumed output is
  bitwise-identical to an uninterrupted run);
* :mod:`repro.runtime.supervisor` — the one corpus runner, journaled or
  not, with lease-based worker supervision for journaled runs (hung-worker
  reaping with re-grant, a run deadline, SIGINT/SIGTERM graceful drain)
  and the durable run drivers (``run_durable_rows``, ``run_durable_reports``);
* :func:`repro.nn.module.inference_mode` / :func:`repro.nn.module.numeric_guard`
  (re-exported here) — backward-cache-free prediction and opt-in NaN/inf
  guards.
"""

from repro.nn.module import (
    inference_mode,
    is_inference,
    numeric_guard,
    numeric_guard_active,
)
from repro.runtime.checkpoint import (
    CheckpointManager,
    TrainState,
    config_fingerprint,
    verify_manifest,
    write_manifest,
)
from repro.runtime.errors import (
    ArtifactError,
    CircuitOpenError,
    InputError,
    ModelError,
    NumericalError,
    OverloadedError,
    ReplicaCrashError,
    ReproError,
    RunInterrupted,
    StageTimeout,
    TaskRegistryError,
    classify_error,
    error_from_context,
)
from repro.runtime.journal import (
    JournalSegment,
    RunJournal,
    input_digest,
    rows_digest,
)
from repro.runtime.parallel import (
    PipelineBroadcast,
    Shard,
    broadcast_pipeline,
    estimate_report_cost,
    estimate_text_cost,
    extract_batch_parallel,
    map_shards,
    plan_shards,
    process_reports_parallel,
    resolve_workers,
    restore_pipeline,
    shard_seed,
)
from repro.runtime.profiling import PerfCounters, RunStats
from repro.runtime.rescache import CacheStats, ResultCache, result_key
from repro.runtime.resilience import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    QuarantineEntry,
    QuarantineQueue,
    RetryPolicy,
    run_stage,
    sanitize_report,
    validate_report,
)
from repro.runtime.scheduler import BatchPlan, Microbatch, plan_batches
from repro.runtime.supervisor import (
    DurableRunResult,
    GracefulShutdown,
    Lease,
    PoolTransport,
    RunSupervisor,
    SegmentOutcome,
    SegmentWork,
    SupervisorConfig,
    plan_segments,
    run_durable_reports,
    run_durable_rows,
)

__all__ = [
    "ArtifactError",
    "BatchPlan",
    "CacheStats",
    "CheckpointManager",
    "CircuitBreaker",
    "CircuitOpenError",
    "DurableRunResult",
    "FaultInjector",
    "FaultSpec",
    "GracefulShutdown",
    "InputError",
    "JournalSegment",
    "Lease",
    "Microbatch",
    "ModelError",
    "NumericalError",
    "OverloadedError",
    "PerfCounters",
    "PipelineBroadcast",
    "PoolTransport",
    "QuarantineEntry",
    "QuarantineQueue",
    "ReplicaCrashError",
    "ReproError",
    "ResultCache",
    "RetryPolicy",
    "RunInterrupted",
    "RunJournal",
    "RunStats",
    "RunSupervisor",
    "SegmentOutcome",
    "SegmentWork",
    "Shard",
    "StageTimeout",
    "SupervisorConfig",
    "TaskRegistryError",
    "TrainState",
    "broadcast_pipeline",
    "classify_error",
    "config_fingerprint",
    "error_from_context",
    "estimate_report_cost",
    "estimate_text_cost",
    "extract_batch_parallel",
    "inference_mode",
    "input_digest",
    "is_inference",
    "map_shards",
    "numeric_guard",
    "numeric_guard_active",
    "plan_batches",
    "plan_segments",
    "plan_shards",
    "process_reports_parallel",
    "resolve_workers",
    "restore_pipeline",
    "result_key",
    "rows_digest",
    "run_durable_reports",
    "run_durable_rows",
    "run_stage",
    "sanitize_report",
    "shard_seed",
    "validate_report",
    "verify_manifest",
    "write_manifest",
]
