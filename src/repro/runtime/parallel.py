"""Data-parallel sharded corpus runtime: planning, broadcast, entry points.

A corpus is split into contiguous *shards* balanced by estimated token
count (the same whitespace-word length proxy the scheduler and serving
engine budget by), and the fitted host is broadcast to worker processes
exactly **once** at spawn — model weights travel as compact ``.npz``
payloads via :mod:`repro.nn.serialize`, never re-pickled per document.
Execution itself lives in :mod:`repro.runtime.supervisor`: a non-journaled
``workers=N`` run is a journaled run with an in-memory sink and no leases,
so both go through the same segment executor (per-shard ``on_error``
semantics, deterministic per-shard fault-injector seeds, quarantine
shipped back and merged).

**Correctness contract**: ``workers=N`` is bitwise-identical to
``workers=1``. Three properties underwrite this:

* shards are contiguous index ranges, so concatenating shard results in
  shard order restores exact input order (records *and* quarantine);
* a sequence's logits are bitwise-invariant to microbatch packing (the
  PR 1/PR 3 width-invariance guarantees), so per-shard batched detection
  and extraction produce the same scores as one corpus-wide batch;
* caches (BPE, normalize, and the content-addressed result cache of
  :mod:`repro.runtime.rescache`) are value-transparent and every worker's
  RNG state derives deterministically from the broadcast — a pickled
  :class:`~repro.runtime.rescache.ResultCache` arrives *empty* with fresh
  stats, and the single-worker path restores from the same broadcast, so
  ``workers=1`` and ``workers=N`` stay bitwise-identical with caching on.

Per-shard ``RunStats`` merge back through :meth:`RunStats.merge`, so
fleet-wide counters equal the sum of per-shard counters exactly.

Entry points: :func:`process_reports_parallel` (the GoalSpotter corpus
path — also reachable as ``GoalSpotter(..., workers=N)`` or
``process_reports(..., workers=N)``) and :func:`extract_batch_parallel`
(the bulk extractor path, wired to ``repro extract --workers``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.nn.module import Module
from repro.nn.precision import pin_blas_threads
from repro.nn.serialize import state_from_bytes, state_to_bytes
from repro.runtime.resilience import (
    FaultSpec,
    QuarantineEntry,
    QuarantineQueue,
)

if TYPE_CHECKING:  # avoid an import cycle through repro.runtime.__init__
    from repro.core.extractor import WeakSupervisionExtractor
    from repro.datasets.reports import SustainabilityReport
    from repro.goalspotter.pipeline import ExtractedRecord, GoalSpotter

__all__ = [
    "PipelineBroadcast",
    "Shard",
    "broadcast_pipeline",
    "estimate_report_cost",
    "estimate_text_cost",
    "extract_batch_parallel",
    "map_shards",
    "plan_shards",
    "process_reports_parallel",
    "resolve_workers",
    "restore_pipeline",
    "shard_seed",
]


# -- worker-count resolution --------------------------------------------------


def resolve_workers(workers: int | str | None) -> int:
    """Resolve a worker-count knob to a concrete positive integer.

    ``None``, ``0`` and ``"auto"`` mean "one worker per CPU core"; any
    other value must be a positive integer.
    """
    if workers in (None, 0, "auto"):
        return max(1, os.cpu_count() or 1)
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    return count


# -- shard planning -----------------------------------------------------------


def estimate_text_cost(text: str) -> int:
    """Cheap token-cost estimate for one text (words, min 1).

    The same length proxy the serving engine budgets micro-batches by;
    exact BPE lengths would cost a tokenizer pass per block, which is the
    work we are trying to parallelize.
    """
    return max(1, len(text.split()))


def estimate_report_cost(report: "SustainabilityReport") -> int:
    """Estimated token count of one report (the shard-balancing weight)."""
    return max(
        1,
        sum(
            estimate_text_cost(block.text)
            for page in report.pages
            for block in page.blocks
            if isinstance(getattr(block, "text", None), str)
        ),
    )


@dataclasses.dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, stop)`` of the input corpus."""

    index: int
    start: int
    stop: int
    cost: int  # summed estimated token count of the slice

    @property
    def size(self) -> int:
        return self.stop - self.start


def _shards_needed(costs: Sequence[int], capacity: int) -> int:
    """How many contiguous shards a greedy split needs under ``capacity``."""
    shards, load = 1, 0
    for cost in costs:
        if load and load + cost > capacity:
            shards += 1
            load = 0
        load += cost
    return shards


def plan_shards(costs: Sequence[int], num_shards: int) -> list[Shard]:
    """Partition ``costs`` into at most ``num_shards`` contiguous shards.

    Minimizes the maximum shard cost (binary search over the capacity, then
    one greedy split), which is the makespan under perfectly parallel
    workers. Contiguity is what makes order restoration exact: shard
    results concatenated in shard order *are* input order.

    Returns non-empty shards only; with fewer items than shards, every
    item gets its own shard.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if not costs:
        return []
    if any(cost < 0 for cost in costs):
        raise ValueError("costs must be non-negative")
    low, high = max(costs), sum(costs)
    while low < high:
        middle = (low + high) // 2
        if _shards_needed(costs, middle) <= num_shards:
            high = middle
        else:
            low = middle + 1
    capacity = low
    shards: list[Shard] = []
    start, load = 0, 0
    for position, cost in enumerate(costs):
        if position > start and load + cost > capacity:
            shards.append(Shard(len(shards), start, position, load))
            start, load = position, 0
        load += cost
    shards.append(Shard(len(shards), start, len(costs), load))
    return shards


def shard_seed(seed: int, shard_index: int) -> int:
    """Deterministic per-shard fault-injector seed."""
    return (seed * 1_000_003 + 7_919 * (shard_index + 1)) & 0x7FFFFFFF


# -- model broadcast ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _ModelState:
    """One fitted model detached from the broadcast skeleton."""

    component: str  # attribute name on the host object ("" = the object)
    encoder_config: Any  # the fitted model's actual EncoderConfig
    payload: bytes  # npz bytes from repro.nn.serialize.state_to_bytes


@dataclasses.dataclass(frozen=True)
class PipelineBroadcast:
    """Everything a worker needs, shipped once at spawn.

    ``skeleton`` is the host object pickled with its fitted models
    detached (configs, tokenizers, policies — small); ``states`` carries
    each model's parameters as one compact npz payload produced by
    :func:`repro.nn.serialize.state_to_bytes`.
    """

    skeleton: bytes
    states: tuple[_ModelState, ...]

    @property
    def num_bytes(self) -> int:
        return len(self.skeleton) + sum(
            len(state.payload) for state in self.states
        )


def _component(host: Any, path: str) -> Any:
    return host if path == "" else getattr(host, path, None)


def _broadcast(host: Any, components: Sequence[str]) -> PipelineBroadcast:
    """Detach fitted models, pickle the skeleton, restore the host."""
    states: list[_ModelState] = []
    detached: list[tuple[Any, Module]] = []
    try:
        for name in components:
            owner = _component(host, name)
            model = getattr(owner, "model", None)
            if owner is None or not isinstance(model, Module):
                continue
            states.append(
                _ModelState(
                    component=name,
                    encoder_config=getattr(model, "config", None),
                    payload=state_to_bytes(model),
                )
            )
            detached.append((owner, model))
            owner.model = None
        skeleton = pickle.dumps(host, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        for owner, model in detached:
            owner.model = model
    return PipelineBroadcast(skeleton=skeleton, states=tuple(states))


_PIPELINE_COMPONENTS = ("detector", "extractor", "fallback_extractor")


def broadcast_pipeline(pipeline: "GoalSpotter") -> PipelineBroadcast:
    """Package a fitted :class:`GoalSpotter` for worker processes.

    Run-scoped state (quarantine, breakers, stats) is excluded so every
    worker starts clean; the caller's pipeline is left untouched.
    """
    saved = (
        pipeline.quarantine,
        pipeline._breakers,
        pipeline.last_run_stats,
    )
    pipeline.quarantine = QuarantineQueue()
    pipeline._breakers = {}
    pipeline.last_run_stats = None
    try:
        return _broadcast(pipeline, _PIPELINE_COMPONENTS)
    finally:
        (
            pipeline.quarantine,
            pipeline._breakers,
            pipeline.last_run_stats,
        ) = saved


def restore_pipeline(broadcast: PipelineBroadcast) -> Any:
    """Rebuild the broadcast host: unpickle the skeleton, reload weights.

    Each detached model is rebuilt from its owner's ``build_model`` (with
    the fitted model's actual encoder config, so pretrained or distilled
    geometries restore exactly) and its parameters loaded via
    :func:`repro.nn.serialize.state_from_bytes`.
    """
    host = pickle.loads(broadcast.skeleton)
    for state in broadcast.states:
        owner = _component(host, state.component)
        owner.model = owner.build_model(state.encoder_config)
        state_from_bytes(owner.model, state.payload)
    return host


# -- worker pools -------------------------------------------------------------


def _pinned_initializer(initializer: Any, *initargs: Any) -> None:
    """Pin BLAS in a spawned worker, then run the pool's own initializer."""
    pin_blas_threads()
    if initializer is not None:
        initializer(*initargs)


def _open_pool(processes: int, initializer: Any = None, initargs: tuple = ()):
    """The runtime's one process-pool constructor (fork where available).

    Forked workers inherit the parent's BLAS thread pin; spawned ones
    start a fresh OpenBLAS and are pinned again before any work.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform
        context = multiprocessing.get_context("spawn")
        initializer, initargs = _pinned_initializer, (initializer, *initargs)
    return context.Pool(
        processes=processes, initializer=initializer, initargs=initargs
    )


def map_shards(
    tasks: Sequence[Any], func: Any, *, workers: int | str | None = None
) -> list[Any]:
    """Map a picklable module-level function over shard task payloads.

    For shard work that needs no model broadcast (e.g. knowledge-graph
    ingestion): results come back in input order, and one worker (or one
    task) runs in-process through the same ``func``.
    """
    tasks = list(tasks)
    count = min(resolve_workers(workers), len(tasks))
    if count <= 1:
        return [func(task) for task in tasks]
    with _open_pool(count) as pool:
        return pool.map(func, tasks, chunksize=1)


# -- entry points -------------------------------------------------------------


def process_reports_parallel(
    pipeline: "GoalSpotter",
    reports: Sequence["SustainabilityReport"],
    *,
    workers: int | str | None = None,
    on_error: str | None = None,
    num_shards: int | None = None,
    shard_faults: Mapping[int, Sequence[FaultSpec]] | None = None,
) -> list["ExtractedRecord"]:
    """Run ``pipeline.process_reports`` data-parallel over shards.

    Bitwise-identical to the sequential call (records, scores,
    quarantine) for any ``workers``/``num_shards`` split; see the module
    docstring for why. Results are restored to exact input order;
    quarantine entries merge into ``pipeline.quarantine`` in input order;
    ``pipeline.last_run_stats`` becomes a merged view whose counters are
    the exact sums of the per-shard counters (kept under ``"shards"``).

    Args:
        workers: process count (``None``/``"auto"`` = CPU count).
        on_error: overrides the pipeline's policy for this call.
        num_shards: shard count (default ``workers``); may exceed
            ``workers`` for finer balancing, or pin the shard layout
            while varying ``workers`` (the determinism suite does this).
        shard_faults: extra :class:`FaultSpec` lists keyed by shard
            index — chaos testing of exactly one shard. Specs on
            ``pipeline.fault_injector`` apply to *every* shard, each
            under its own :func:`shard_seed`.
    """
    # Deferred imports: both modules import this one.
    from repro.goalspotter.pipeline import record_from_payload
    from repro.runtime.supervisor import KIND_PIPELINE, _run_corpus

    mode = on_error if on_error is not None else pipeline.on_error
    reports = list(reports)
    if not reports:
        return pipeline.process_reports([], on_error=mode, workers=1)
    outcomes = _run_corpus(
        pipeline,
        KIND_PIPELINE,
        reports,
        workers=resolve_workers(workers),
        num_shards=num_shards,
        mode=mode,
        shard_faults=shard_faults,
    )
    pipeline.quarantine.extend(
        QuarantineEntry.from_dict(payload)
        for outcome in outcomes
        for payload in outcome.quarantine
    )
    return [
        record_from_payload(payload)
        for outcome in outcomes
        for payload in outcome.rows
    ]


def extract_batch_parallel(
    extractor: "WeakSupervisionExtractor",
    texts: Sequence[str],
    *,
    workers: int | str | None = None,
    num_shards: int | None = None,
) -> list[dict[str, str]]:
    """Shard ``extractor.extract_batch`` across worker processes.

    Bitwise-identical to the sequential call and restored to input
    order (contiguous shards, packing-invariant logits). The merged
    per-shard :class:`~repro.runtime.profiling.RunStats` lands in
    ``extractor.last_run_stats`` and folds into
    ``extractor.total_run_stats``.

    With ``result_cache_capacity`` set on the extractor config, each
    shard worker runs its own *fresh* cache (the broadcast pickles the
    cache as empty): repeats within one worker's shards hit, repeats
    split across workers miss (a single worker therefore sees more hits
    than a wide pool), and the per-shard ``result_cache_*`` stats merge
    back additively. Values never depend on cache state, so caching
    keeps ``workers=N`` bitwise-identical to ``workers=1``.

    A failing shard raises its own error, the lowest-indexed one first.
    It is typed: a foreign exception arrives as the
    :class:`~repro.runtime.errors.ModelError` that
    :func:`~repro.runtime.resilience.run_stage` classifies it into, with
    the original as ``__cause__`` when the shard ran in-process (a
    worker process's error crosses back without its cause).
    """
    from repro.runtime.supervisor import KIND_EXTRACTION, _run_corpus

    outcomes = _run_corpus(
        extractor,
        KIND_EXTRACTION,
        texts,
        workers=resolve_workers(workers),
        num_shards=num_shards,
    )
    return [payload["row"] for outcome in outcomes for payload in outcome.rows]
