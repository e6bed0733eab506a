"""The corpus runner: segment execution, worker supervision, run drivers.

Every corpus run — journaled or not, sequential or pooled — executes
through :func:`_run_segments`, and each segment (:class:`SegmentWork`)
runs through one executor: on the caller's live host for a sequential
run that is journaled or has one segment, in :class:`PoolTransport`
workers forked from that host for a pooled run, and otherwise on a copy
restored from a once-per-run broadcast (a sequential multi-shard run,
or a pooled run where fork is unavailable). A non-journaled run is a
journaled run with an in-memory sink and no leases (DESIGN §6c). A
sequential journaled pipeline run computes consecutive segments as one
window and still commits them one by one.

:mod:`repro.runtime.journal` makes committed work crash-safe; for
journaled pooled runs a :class:`RunSupervisor` claims pending segments
under leases and enforces the failure model batch runs never had:

* **hung-worker reaping** — a lease whose worker stops heartbeating (or
  never completes within ``lease_timeout``) is reaped and re-granted to
  a fresh worker, up to ``max_regrants`` times. Re-executed segments are
  bitwise-identical (deterministic per-segment seeds + packing-invariant
  logits, the PR 7 at-least-once argument), and the journal's
  first-write-wins commit discards any late duplicate from the reaped
  worker.
* **global run deadline** — a wall-clock budget for the whole run; on
  expiry the transport is force-closed and :class:`StageTimeout` raised
  with every committed segment still durable (the run resumes).
* **graceful drain** — SIGINT/SIGTERM (via :class:`GracefulShutdown`)
  stops granting new leases, waits up to ``drain_timeout`` for in-flight
  segments to commit, then raises
  :class:`~repro.runtime.errors.RunInterrupted`; the CLI maps it to the
  documented partial-success exit code.

Run drivers: :func:`_run_corpus` (non-journaled, one shard per worker by
default; behind :mod:`repro.runtime.parallel`'s entry points and
``TaskModel.run_batch_parallel``/``run_resilient``),
:func:`run_durable_rows` (journaled bulk text→row inference for any
registered task, extraction or classification) and
:func:`run_durable_reports` (the journaled GoalSpotter corpus path, with
quarantine entries persisted into the journal so poison documents are
not retried on resume). Rows kinds take one degradation ladder,
:func:`_rows_segment`, on every path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import pickle
import signal
import threading
import time
from collections import deque
from typing import Any, Callable, Mapping, Sequence

from repro.runtime.checkpoint import config_fingerprint
from repro.runtime.errors import (
    InputError,
    ReproError,
    RunInterrupted,
    StageTimeout,
    error_from_context,
)
from repro.runtime.journal import RunJournal, input_digest
from repro.runtime.parallel import (
    PipelineBroadcast,
    _broadcast,
    _component,
    _fresh_run_state,
    _open_pool,
    _renew_locks,
    broadcast_pipeline,
    estimate_report_cost,
    estimate_text_cost,
    plan_shards,
    restore_pipeline,
    shard_seed,
)
from repro.runtime.resilience import (
    ON_ERROR_POLICIES,
    FaultInjector,
    FaultSpec,
    QuarantineEntry,
    QuarantineQueue,
    RetryPolicy,
    run_stage,
)
from repro.runtime.profiling import RunStats

__all__ = [
    "DEFAULT_SEGMENT_ITEMS",
    "DurableRunResult",
    "GracefulShutdown",
    "Lease",
    "PoolTransport",
    "RunSupervisor",
    "SegmentOutcome",
    "SegmentWork",
    "SupervisorConfig",
    "plan_segments",
    "run_durable_reports",
    "run_durable_rows",
]

#: Default documents/texts per journal segment (the commit granularity).
DEFAULT_SEGMENT_ITEMS = 16

#: Work kinds understood by the segment executor.
KIND_EXTRACTION = "extraction"
KIND_CLASSIFICATION = "classification"
KIND_PIPELINE = "pipeline"


# -- graceful shutdown --------------------------------------------------------


class GracefulShutdown:
    """Context manager turning SIGINT/SIGTERM into a drain request.

    Installs handlers on entry (previous handlers are restored on exit)
    that set :attr:`event` instead of killing the process mid-write; the
    durable run loops check the event between segments / supervisor
    ticks and drain. A *second* signal restores default handling, so a
    stuck drain can still be interrupted the ordinary way.

    ``on_signal`` (optional) runs inside the handler after the event is
    set — e.g. ``CheckpointManager.request_drain`` for training loops
    that poll a checkpoint cadence instead of the event.
    """

    def __init__(
        self,
        signals: Sequence[int] = (),
        *,
        on_signal: Callable[[], None] | None = None,
    ) -> None:
        self._signals = tuple(signals) or (signal.SIGINT, signal.SIGTERM)
        self._previous: dict[int, Any] = {}
        self._on_signal = on_signal
        self.event = threading.Event()
        self.signal_name: str | None = None

    def _handle(self, signum, frame) -> None:
        self.signal_name = signal.Signals(signum).name
        self.event.set()
        if self._on_signal is not None:
            self._on_signal()
        # Escalation path: a second signal behaves like an un-handled one.
        signal.signal(signum, self._previous.get(signum, signal.SIG_DFL))

    def __enter__(self) -> "GracefulShutdown":
        for signum in self._signals:
            self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc) -> None:
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous.clear()

    @property
    def requested(self) -> bool:
        return self.event.is_set()


# -- work units ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SegmentWork:
    """One segment's worth of work, picklable for the pool."""

    index: int
    start: int
    stop: int
    kind: str  # extraction | classification | pipeline
    items: tuple  # texts (rows kinds) or SustainabilityReports (pipeline)
    mode: str  # on_error policy
    fields: tuple[str, ...]  # empty-row schema for skip/degrade
    specs: tuple[FaultSpec, ...] = ()  # host-level fault specs
    seed: int = 0  # per-segment injector seed
    policy: RetryPolicy | None = None  # per-call retries (None = none)


@dataclasses.dataclass
class SegmentOutcome:
    """What a segment execution sends back to the runner."""

    index: int
    rows: list
    quarantine: list  # list[dict] — QuarantineEntry.as_dict payloads
    error: dict | None = None  # ReproError.context() + {"retryable": bool}
    #: The live error behind ``error``; runs without a supervisor re-raise it.
    exception: ReproError | None = None
    stats: dict | None = None  # the pipeline's last_run_stats (pipeline kind)
    #: Per-component RunStats of this segment alone (see _stats_owners).
    model_stats: dict = dataclasses.field(default_factory=dict)


def _stats_owners(host: Any, kind: str) -> dict[str, Any]:
    """The host components whose ``RunStats`` a segment reports."""
    names = ("detector", "extractor") if kind == KIND_PIPELINE else ("",)
    owners = {name: _component(host, name) for name in names}
    return {n: o for n, o in owners.items() if hasattr(o, "total_run_stats")}


def _host_rows(host: Any, kind: str, texts: list[str]) -> list[dict]:
    """One raw row per text — must match ``TaskModel.run_batch`` exactly."""
    if kind == KIND_EXTRACTION:
        return host.extract_batch(list(texts))
    if kind == KIND_CLASSIFICATION:
        from repro.models.text_classifier import classification_rows

        return classification_rows(host.labels, host.predict_proba(list(texts)))
    raise ReproError(f"unknown durable row kind {kind!r}", stage="run")


def _rows_segment(host: Any, work: SegmentWork) -> list[dict]:
    """Resilient rows for one segment: the one rows degradation ladder.

    Optimistic whole-segment attempt first; under ``skip``/``degrade``
    each text is then retried in isolation so one poisoned input cannot
    take down its segment-mates. Every call retries under
    ``work.policy``. Statuses: ``ok``, ``skipped`` or ``degraded``.
    """
    texts = list(work.items)
    try:
        rows = run_stage(
            lambda: _host_rows(host, work.kind, texts),
            stage=work.kind,
            policy=work.policy,
        )
        return [{"row": row, "status": "ok"} for row in rows]
    except ReproError:
        if work.mode == "raise":
            raise
    payloads: list[dict] = []
    for text in texts:
        try:
            row = run_stage(
                lambda t=text: _host_rows(host, work.kind, [t])[0],
                stage=work.kind,
                policy=work.policy,
            )
            payloads.append({"row": row, "status": "ok"})
        except ReproError:
            status = "skipped" if work.mode == "skip" else "degraded"
            empty = {field: "" for field in work.fields}
            payloads.append({"row": empty, "status": status})
    return payloads


@contextlib.contextmanager
def _isolated_stats(host: Any, kind: str, isolate: bool):
    """Measure the block's model stats alone; yield them, filled on exit.

    Each component's ``RunStats`` are zeroed for the block and then put
    back, so :func:`_merge_stats` folds every segment in exactly once
    whether it ran on a copy or on the caller's host. ``isolate=False``
    leaves them to the host's own calls, which keep them current, and
    measures none.
    """
    owners = _stats_owners(host, kind) if isolate else {}
    saved = {
        name: (owner.last_run_stats, owner.total_run_stats)
        for name, owner in owners.items()
    }
    for owner in owners.values():
        owner.total_run_stats = RunStats()
        owner.last_run_stats = None
    measured: dict[str, RunStats] = {}
    try:
        yield measured
    finally:
        for name, owner in owners.items():
            measured[name] = owner.total_run_stats
            owner.last_run_stats, owner.total_run_stats = saved[name]


def _execute_segment(
    host: Any, work: SegmentWork, *, isolate: bool = True
) -> SegmentOutcome:
    """Run one segment on ``host``: a broadcast copy or the live host.

    Per-segment state is set first — a fault injector under the segment
    seed, a fresh quarantine for the pipeline kind — so a segment's
    outcome depends only on its inputs and the host's fitted state,
    never on pool scheduling or on which attempt produced it. Failures
    come back as typed payloads plus the live error. ``isolate`` is as
    in :func:`_isolated_stats`.
    """
    with _isolated_stats(host, work.kind, isolate) as model_stats:
        if hasattr(host, "fault_injector"):
            host.fault_injector = (
                FaultInjector(work.specs, seed=work.seed)
                if work.specs
                else None
            )
        try:
            if work.kind == KIND_PIPELINE:
                from repro.goalspotter.pipeline import record_to_payload

                host.quarantine = QuarantineQueue()
                records = host.process_reports(
                    list(work.items), on_error=work.mode, workers=1
                )
                rows = [record_to_payload(record) for record in records]
                quarantine = host.quarantine.as_dicts()
            else:
                rows, quarantine = _rows_segment(host, work), []
        except ReproError as error:
            payload = error.context()
            payload["retryable"] = error.retryable
            return SegmentOutcome(
                index=work.index,
                rows=[],
                quarantine=[],
                error=payload,
                exception=error,
            )
    return SegmentOutcome(
        index=work.index,
        rows=rows,
        quarantine=quarantine,
        stats=host.last_run_stats if work.kind == KIND_PIPELINE else None,
        model_stats=model_stats,
    )


# -- windows: one batched call over consecutive segments ----------------------

#: A window of consecutive segments closes at the segment boundary where
#: it first holds this many blocks. Chosen from a sweep on the scale-1.0
#: Table 5 corpus (DESIGN §6c): pass time falls until about this size and
#: is flat beyond it, while the compute a crash can lose keeps growing
#: with it.
WINDOW_BLOCKS = 16384


def _windows(works: Sequence[SegmentWork]) -> list[list[SegmentWork]]:
    """Consecutive pipeline ``works`` grouped into windows of about
    :data:`WINDOW_BLOCKS` blocks.

    One segment each when any work carries fault specs, so injected
    faults keep their per-segment seeds, and for the rows kinds, whose
    live runs leave ``last_run_stats`` describing the host's last call
    — one segment's.
    """
    if any(work.specs or work.kind != KIND_PIPELINE for work in works):
        return [[work] for work in works]
    windows: list[list[SegmentWork]] = []
    window: list[SegmentWork] = []
    blocks = 0
    for work in works:
        window.append(work)
        blocks += sum(
            len(page.blocks) for report in work.items for page in report.pages
        )
        if blocks >= WINDOW_BLOCKS:
            windows.append(window)
            window, blocks = [], 0
    if window:
        windows.append(window)
    return windows


def _window_stats(window: dict, tally: dict) -> dict:
    """One segment's share of a window's ``last_run_stats``: its own
    counters, and the window's timings in proportion to its blocks —
    what running the segment alone reports, but for the timings."""
    blocks = sum(tally["blocks"])
    share = blocks / window["blocks"]
    units = sum(tally["extraction_units"])
    return {
        **window,
        "wall_seconds": window["wall_seconds"] * share,
        "detect_seconds": window["detect_seconds"] * share,
        "extract_seconds": window["extract_seconds"] * share,
        "blocks": blocks,
        "detected_blocks": sum(tally["detected_blocks"]),
        "extraction_units": units,
        "records": units,
        "per_report": tally,
    }


def _pipeline_window(
    host: Any, works: Sequence[SegmentWork]
) -> list[SegmentOutcome] | None:
    """One ``process_reports`` call over the window, split per segment by
    report position (report ids may repeat); None unless it took the
    fast path with no quarantine and no sanitized block."""
    from repro.goalspotter.pipeline import record_to_payload

    mode = works[0].mode
    with _fresh_run_state(host):
        records = host.process_reports(
            [report for work in works for report in work.items],
            on_error=mode,
            workers=1,
        )
        stats, quarantined = host.last_run_stats, len(host.quarantine)
    # Every report that passes validation or sanitizing has a block, so
    # an accepted window has stats and every segment's share has blocks.
    if quarantined or not stats["fast_path"] or stats["sanitized_blocks"]:
        return None
    per_report = stats["per_report"]
    outcomes: list[SegmentOutcome] = []
    first_report = first_record = 0
    for work in works:
        stop = first_report + len(work.items)
        tally = {key: per_report[key][first_report:stop] for key in per_report}
        count = sum(tally["extraction_units"])
        segment_stats = _window_stats(stats, tally)
        if outcomes:
            # The extractor's call stats are the window's; the first
            # segment carries them, as it carries the model stats.
            segment_stats["extractor"] = None
        outcomes.append(
            SegmentOutcome(
                index=work.index,
                rows=[
                    record_to_payload(record)
                    for record in records[first_record : first_record + count]
                ],
                quarantine=[],
                stats=segment_stats,
            )
        )
        first_report, first_record = stop, first_record + count
    return outcomes


def _execute_window(
    host: Any, works: Sequence[SegmentWork], *, isolate: bool = True
) -> list[SegmentOutcome] | None:
    """Run consecutive segments as one batched call, one outcome each.

    A single segment runs through :func:`_execute_segment`. A pipeline
    window is accepted only when every report came through the fast
    path with nothing quarantined or sanitized; otherwise — a failure
    of any kind included — it returns None and leaves no trace on the
    host's run state or model stats, and the caller runs its segments
    one by one, exactly as they ran before windows existed. An accepted
    window's model stats ride on its first outcome, so the merged stats
    sum them once.
    """
    if len(works) == 1:
        return [_execute_segment(host, works[0], isolate=isolate)]
    with _isolated_stats(host, KIND_PIPELINE, isolate) as model_stats:
        try:
            outcomes = _pipeline_window(host, works)
        except Exception:
            # Whatever failed fails again when the segments run alone,
            # where the ladder handles or raises it as it always has.
            outcomes = None
    if outcomes is not None:
        outcomes[0].model_stats = model_stats
    return outcomes


# -- the pool transport -------------------------------------------------------

_WORKER_HOST: Any = None
#: A forked worker's segments by index, inherited with the host.
_WORKER_WORKS: dict[int, SegmentWork] = {}


def _adopt_host(host: Any, works: dict[int, SegmentWork]) -> None:
    """Fork-pool initializer: run on the inherited host, with fresh locks."""
    global _WORKER_HOST, _WORKER_WORKS
    _renew_locks(host)
    _WORKER_HOST, _WORKER_WORKS = host, works


def _init_worker(payload: bytes) -> None:
    """Spawn-pool initializer: restore the broadcast host exactly once."""
    global _WORKER_HOST
    _WORKER_HOST = restore_pipeline(pickle.loads(payload))


def _run_segment_worker(work: SegmentWork | int) -> SegmentOutcome:
    if isinstance(work, int):  # a forked worker already holds its segments
        work = _WORKER_WORKS[work]
    return _execute_segment(_WORKER_HOST, work)


def _broadcast_host(host: Any, kind: str) -> PipelineBroadcast:
    # broadcast_pipeline is looked up in this module's namespace on
    # every call, so a wrapper installed there sees each broadcast.
    if kind == KIND_PIPELINE:
        return broadcast_pipeline(host)
    return _broadcast(host, ("",))


class PoolTransport:
    """Process pool over one host with an async submit surface.

    Where the platform can fork, the workers are forked from ``host``
    itself and run on it copy-on-write, caches warm; they inherit
    ``works`` too, so a submitted segment crosses the pipe as its index.
    Nothing is pickled or restored, and a worker the pool replaces later
    forks from the host as it is then, so the caller must leave it alone
    until :meth:`close`. Elsewhere the host is broadcast once, at spawn,
    to every worker and each segment is pickled to the worker that runs
    it; ``broadcast_seconds``/``broadcast_bytes`` say what the broadcast
    cost (0 on a fork). ``submit`` returns the pool's ``AsyncResult``
    handle; ``poll`` is non-blocking, so the :class:`RunSupervisor` can
    hold leases over the handles.
    Process-pool workers cannot heartbeat mid-segment (a segment is one
    call), so there is no ``heartbeat`` and lease expiry falls back to
    grant time + ``lease_timeout`` — size the timeout to cover a whole
    segment.
    """

    def __init__(
        self,
        host: Any,
        kind: str,
        works: Sequence[SegmentWork],
        *,
        workers: int,
    ) -> None:
        self.capacity = max(1, int(workers))
        self.broadcast_seconds, self.broadcast_bytes = 0.0, 0
        self._forked = True

        def spawn() -> tuple:
            self._forked = False
            started = time.perf_counter()
            broadcast = _broadcast_host(host, kind)
            self.broadcast_seconds = time.perf_counter() - started
            self.broadcast_bytes = broadcast.num_bytes
            payload = pickle.dumps(broadcast, protocol=pickle.HIGHEST_PROTOCOL)
            return _init_worker, (payload,)

        inherited = {work.index: work for work in works}
        self._pool = _open_pool(
            self.capacity, _adopt_host, (host, inherited), spawn=spawn
        )
        self._closed = False

    def submit(self, work: SegmentWork):
        task = work.index if self._forked else work
        return self._pool.apply_async(_run_segment_worker, (task,))

    def poll(self, handle) -> SegmentOutcome | None:
        if not handle.ready():
            return None
        try:
            return handle.get(timeout=0)
        except Exception as error:  # worker died un-caught (e.g. killed)
            wrapped = ReproError(
                f"segment worker failed: {type(error).__name__}: {error}",
                stage="run",
            )
            payload = wrapped.context()
            payload["retryable"] = True
            return SegmentOutcome(index=-1, rows=[], quarantine=[], error=payload)

    def close(self, *, force: bool = False) -> None:
        """Shut the pool down; ``force`` kills workers instead of waiting.

        ``force=True`` is the hung-worker/deadline path — a graceful
        close would join forever on a wedged process.
        """
        if self._closed:
            return
        self._closed = True
        if force:
            self._pool.terminate()
        else:
            self._pool.close()
        self._pool.join()


# -- the supervisor -----------------------------------------------------------


@dataclasses.dataclass
class SupervisorConfig:
    """Failure-model knobs for one supervised run."""

    lease_timeout: float = 60.0  # seconds a lease may run un-heartbeated
    max_regrants: int = 2  # re-grants per segment before giving up
    run_deadline: float | None = None  # wall-clock budget for the run
    poll_interval: float = 0.01  # supervisor tick when nothing progressed
    drain_timeout: float = 10.0  # grace window for in-flight segments


@dataclasses.dataclass
class Lease:
    """One segment's claim: who ran it, since when, how many grants."""

    work: SegmentWork
    handles: list  # newest last; stale handles from reaped grants kept
    granted_at: float
    generation: int = 0  # 0 = first grant


class RunSupervisor:
    """Drive pending segments through a transport under leases.

    Every completed segment commits to ``journal`` immediately (no
    end-of-run barrier), so the crash window never exceeds one segment.
    Stale results from reaped grants are welcome: whichever execution
    finishes first commits, the journal's first-write-wins dedupe
    absorbs the rest, and the bitwise guarantee makes the choice
    unobservable.
    """

    def __init__(
        self,
        journal: RunJournal,
        transport,
        *,
        config: SupervisorConfig | None = None,
        drain_event: threading.Event | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.journal = journal
        self.transport = transport
        self.config = config or SupervisorConfig()
        self._drain = drain_event or threading.Event()
        self._clock = clock
        self._sleep = sleep
        self.stats = {
            "leases_granted": 0,
            "reaped": 0,
            "regrants": 0,
            "worker_failures": 0,
            "drained": False,
        }
        #: Committed outcomes, in settle order (their stats merge back).
        self.settled: list[SegmentOutcome] = []

    def request_drain(self) -> None:
        """Stop granting; commit in-flight work; raise ``RunInterrupted``."""
        self._drain.set()

    # -- lease bookkeeping -------------------------------------------------

    def _grant(self, work: SegmentWork) -> Lease:
        handle = self.transport.submit(work)
        self.stats["leases_granted"] += 1
        return Lease(work=work, handles=[handle], granted_at=self._clock())

    def _regrant(self, lease: Lease, *, keep_stale: bool) -> None:
        if not keep_stale:
            lease.handles.clear()
        lease.handles.append(self.transport.submit(lease.work))
        lease.granted_at = self._clock()
        lease.generation += 1
        self.stats["leases_granted"] += 1
        self.stats["regrants"] += 1

    def _poll_lease(self, lease: Lease) -> SegmentOutcome | None:
        # First finisher wins — a reaped grant's late result is as good
        # as the re-grant's (bitwise-identical by construction).
        for handle in lease.handles:
            outcome = self.transport.poll(handle)
            if outcome is not None:
                return outcome
        return None

    def _expired(self, lease: Lease, now: float) -> bool:
        basis = lease.granted_at
        beat = getattr(self.transport, "heartbeat", lambda handle: None)(
            lease.handles[-1]
        )
        if beat is not None:
            basis = max(basis, beat)
        return now - basis > self.config.lease_timeout

    # -- the loop ----------------------------------------------------------

    def run(self, works: Sequence[SegmentWork]) -> None:
        """Execute and commit every segment in ``works``.

        Raises :class:`StageTimeout` on the run deadline or an exhausted
        segment (``max_regrants`` re-grants all hung/failed),
        :class:`RunInterrupted` on drain, and the reconstructed worker
        error when a segment fails non-retryably — in every case with
        all previously committed segments durable in the journal.
        """
        started = self._clock()
        pending = deque(sorted(works, key=lambda work: work.index))
        leases: dict[int, Lease] = {}
        capacity = max(1, int(getattr(self.transport, "capacity", 1)))
        while pending or leases:
            now = self._clock()
            deadline = self.config.run_deadline
            if deadline is not None and now - started > deadline:
                self.transport.close(force=True)
                raise StageTimeout(
                    f"run deadline of {deadline}s exceeded with "
                    f"{len(self.journal.segments)} segments committed; "
                    "the journal is intact — re-run with --resume",
                    stage="run",
                )
            if self._drain.is_set():
                self._drain_in_flight(leases)
            while pending and len(leases) < capacity:
                work = pending.popleft()
                leases[work.index] = self._grant(work)
            progressed = False
            for index in list(leases):
                lease = leases[index]
                outcome = self._poll_lease(lease)
                if outcome is not None:
                    progressed = True
                    if self._settle(lease, outcome):
                        del leases[index]
                elif self._expired(lease, self._clock()):
                    progressed = True
                    self._reap(lease)
            if not progressed:
                self._sleep(self.config.poll_interval)

    def _settle(self, lease: Lease, outcome: SegmentOutcome) -> bool:
        """Commit a finished segment (True) or retry a failed one (False)."""
        if outcome.error is None:
            self.journal.commit_segment(
                lease.work.index, outcome.rows, quarantine=outcome.quarantine
            )
            self.settled.append(outcome)
            return True
        self.stats["worker_failures"] += 1
        error = error_from_context(outcome.error)
        retryable = bool(outcome.error.get("retryable", error.retryable))
        if not retryable or lease.generation >= self.config.max_regrants:
            self.transport.close(force=True)
            raise error
        self._regrant(lease, keep_stale=False)
        return False

    def _reap(self, lease: Lease) -> None:
        """A lease ran past its timeout without a heartbeat: re-grant."""
        self.stats["reaped"] += 1
        if lease.generation >= self.config.max_regrants:
            self.transport.close(force=True)
            raise StageTimeout(
                f"segment {lease.work.index} hung through "
                f"{lease.generation + 1} grants of "
                f"{self.config.lease_timeout}s each",
                stage="run",
            )
        self._regrant(lease, keep_stale=True)

    def _drain_in_flight(self, leases: dict[int, Lease]) -> None:
        """Drain path: commit what finishes in the grace window, then stop."""
        self.stats["drained"] = True
        deadline = self._clock() + self.config.drain_timeout
        while leases and self._clock() < deadline:
            progressed = False
            for index in list(leases):
                outcome = self._poll_lease(leases[index])
                if outcome is None:
                    continue
                if outcome.error is None:
                    self.journal.commit_segment(
                        index, outcome.rows, quarantine=outcome.quarantine
                    )
                del leases[index]  # a failed in-flight segment is abandoned
                progressed = True
            if not progressed:
                self._sleep(self.config.poll_interval)
        self.transport.close(force=bool(leases))
        raise _drained(self.journal)


def _drained(journal: RunJournal) -> RunInterrupted:
    committed = len(journal.segments)
    total = len(journal.manifest["segments"])
    return RunInterrupted(
        f"run drained: {committed}/{total} segments committed; "
        "re-run with --resume to continue",
        stage="run",
    )


# -- segment planning ---------------------------------------------------------


def plan_segments(costs: Sequence[int], segment_items: int):
    """Token-balanced contiguous segments of ~``segment_items`` items.

    The segment count is fixed by the item count alone, so the plan —
    and therefore the journal identity — does not change with
    ``workers``; balancing within that count reuses the PR 4 makespan
    planner.
    """
    if segment_items < 1:
        raise ValueError("segment_items must be >= 1")
    if not costs:
        return []
    return plan_shards(costs, max(1, math.ceil(len(costs) / segment_items)))


# -- the runner ---------------------------------------------------------------


def _item_costs(kind: str, items: Sequence[Any]) -> list[int]:
    if kind == KIND_PIPELINE:
        return [estimate_report_cost(report) for report in items]
    return [estimate_text_cost(text) for text in items]


def _segment_works(
    host: Any,
    kind: str,
    items: Sequence[Any],
    segments: Sequence[Any],
    *,
    mode: str = "raise",
    fields: Sequence[str] = (),
    policy: RetryPolicy | None = None,
    shard_faults: Mapping[int, Sequence[FaultSpec]] | None = None,
) -> list[SegmentWork]:
    """One work unit per planned segment.

    The one place ``mode`` is checked (:class:`InputError`). The host's
    own fault specs apply to every segment, each under its own
    :func:`shard_seed`; ``shard_faults`` adds specs to single segments
    (chaos testing of exactly one shard).
    """
    if mode not in ON_ERROR_POLICIES:
        raise InputError(
            f"unknown on_error {mode!r}; use {ON_ERROR_POLICIES}", stage="run"
        )
    injector = getattr(host, "fault_injector", None)
    base_specs = tuple(injector.specs) if injector is not None else ()
    base_seed = injector.seed if injector is not None else 0
    extra = shard_faults or {}
    return [
        SegmentWork(
            index=segment.index,
            start=segment.start,
            stop=segment.stop,
            kind=kind,
            items=tuple(items[segment.start : segment.stop]),
            mode=mode,
            fields=tuple(fields),
            specs=base_specs + tuple(extra.get(segment.index, ())),
            seed=shard_seed(base_seed, segment.index),
            policy=policy,
        )
        for segment in segments
    ]


def _commit(
    outcome: SegmentOutcome, journal: RunJournal | None
) -> SegmentOutcome:
    """Re-raise a failed segment's live error; journal a finished one."""
    if outcome.error is not None:
        raise outcome.exception
    if journal is not None:
        journal.commit_segment(
            outcome.index, outcome.rows, quarantine=outcome.quarantine
        )
    return outcome


def _run_in_order(
    host: Any,
    works: Sequence[SegmentWork],
    journal: RunJournal | None,
    drain_event: threading.Event | None,
    *,
    isolate: bool = True,
) -> list[SegmentOutcome]:
    """Execute ``works`` in-process, in order, settling each segment.

    A journaled run computes consecutive segments as one window
    (:func:`_windows`, :func:`_execute_window`) and then commits them one
    by one, so the journal — its plan, identity, commit order and commit
    sites — is the same as when every segment ran alone; only the
    compute is batched. A window that is not accepted falls back to its
    segments one at a time. A drain request is checked before each
    window: a window already computed commits its segments first. A run
    without a journal has no commit unit to batch across and runs its
    segments one by one.
    """
    pending = deque(
        _windows(works) if journal is not None else [[w] for w in works]
    )
    settled = []
    while pending:
        window = pending.popleft()
        if drain_event is not None and drain_event.is_set():
            raise _drained(journal)
        outcomes = _execute_window(host, window, isolate=isolate)
        if outcomes is None:
            pending.extendleft([work] for work in reversed(window))
            continue
        settled.extend(_commit(outcome, journal) for outcome in outcomes)
    return settled


def _run_segments(
    works: list[SegmentWork],
    host: Any,
    kind: str,
    *,
    workers: int,
    journal: RunJournal | None = None,
    config: SupervisorConfig | None = None,
    drain_event: threading.Event | None = None,
) -> tuple[list[SegmentOutcome], dict]:
    """Execute ``works``: the one code path that runs corpus work.

    Every segment runs through :func:`_execute_segment`, or as part of a
    window (:func:`_execute_window`). A sequential run that is journaled
    or has a single segment runs on the caller's live host; a journaled
    one computes consecutive pipeline segments in windows of about
    :data:`WINDOW_BLOCKS` blocks, one ``process_reports`` call each, and
    commits them segment by segment (:func:`_run_in_order`). A pooled
    run (``workers>1``, more than one segment) runs in a
    :class:`PoolTransport` whose workers fork from that host, or,
    where fork is unavailable, restore a copy from a once-per-run
    broadcast. A sequential multi-shard run broadcasts and runs on one
    restored copy in-process. With a ``journal``, each segment commits
    as it settles, and pooled runs go through the lease-supervised
    :class:`RunSupervisor`. Without one, the returned outcomes are the
    only sink; there is nothing to re-grant into, so there are no
    leases, and results settle in segment order — under
    ``on_error="raise"`` the lowest-indexed failure surfaces, as in a
    sequential run, and it is the live error the segment raised.

    The live host, in-process or forked, is safe because serialized
    state restores bitwise-identically, so skipping the broadcast
    round-trip cannot change output; it saves the round-trip and keeps
    the host's BPE, normalize and result caches warm. A sequential rows
    run leaves the host's stats to its own calls. A pipeline run on the
    live host gets a fresh run-scoped state (quarantine, circuit
    breakers, ``last_run_stats``, fault injector) once for the whole
    run, exactly what a broadcast copy starts with; forked workers are
    forked inside it, and it is held until the pool has closed, so a
    replacement worker forks from the same clean state. The caller's
    own state comes back afterwards.

    Returns the settled outcomes in segment order plus execution stats;
    apart from a live sequential rows run, the outcomes' stats are
    merged back into ``host`` (:func:`_merge_stats`).
    """
    pooled = workers > 1 and len(works) > 1
    live = not pooled and (journal is not None or len(works) == 1)
    run = {"workers": 1, "supervised": False}
    if live and kind != KIND_PIPELINE:
        saved_injector = getattr(host, "fault_injector", None)
        try:
            settled = _run_in_order(
                host, works, journal, drain_event, isolate=False
            )
        finally:
            if hasattr(host, "fault_injector"):
                host.fault_injector = saved_injector
        return settled, run
    started = time.perf_counter()
    broadcast_seconds, broadcast_bytes = 0.0, 0
    if live:
        with _fresh_run_state(host):
            settled = _run_in_order(host, works, journal, drain_event)
    elif pooled:
        run_state = (
            _fresh_run_state(host)
            if kind == KIND_PIPELINE
            else contextlib.nullcontext()
        )
        with run_state:
            transport = PoolTransport(
                host, kind, works, workers=min(workers, len(works))
            )
            try:
                if journal is not None:
                    supervisor = RunSupervisor(
                        journal,
                        transport,
                        config=config,
                        drain_event=drain_event,
                    )
                    supervisor.run(works)
                    settled = supervisor.settled
                    run = {"workers": workers, "supervised": True}
                    run.update(supervisor.stats)
                else:
                    handles = [transport.submit(work) for work in works]
                    settled = [
                        _commit(handle.get(), None) for handle in handles
                    ]
                    run = {"workers": workers, "supervised": False}
            finally:
                transport.close(force=True)
        broadcast_seconds = transport.broadcast_seconds
        broadcast_bytes = transport.broadcast_bytes
    else:
        broadcast = _broadcast_host(host, kind)
        broadcast_seconds = time.perf_counter() - started
        broadcast_bytes = broadcast.num_bytes
        local = restore_pipeline(broadcast)
        settled = _run_in_order(local, works, journal, drain_event)
    settled.sort(key=lambda outcome: outcome.index)
    _merge_stats(
        host,
        kind,
        settled,
        mode=works[0].mode,
        workers=workers,
        wall=time.perf_counter() - started,
        broadcast_seconds=broadcast_seconds,
        broadcast_bytes=broadcast_bytes,
    )
    return settled, run


#: Pipeline last_run_stats keys summed across segments by the merge.
_SUMMED_STAT_KEYS = (
    "detect_seconds",
    "extract_seconds",
    "blocks",
    "detected_blocks",
    "extraction_units",
    "retries",
    "failures",
    "degraded_records",
    "failed_records",
    "fallback_documents",
    "quarantined_documents",
    "sanitized_blocks",
)


def _merge_stats(
    host: Any,
    kind: str,
    outcomes: Sequence[SegmentOutcome],
    *,
    mode: str,
    workers: int,
    wall: float,
    broadcast_seconds: float,
    broadcast_bytes: int,
) -> None:
    """Fold the segments' stats back into ``host``: the one stats merge.

    Each component's per-segment ``RunStats`` sum once into its
    ``last_run_stats`` and ``total_run_stats``, with ``wall_seconds``
    set to the run's wall clock; summing the segments' walls would
    count worker-seconds, and ``tokens_per_second`` would read per
    worker-second. A pipeline host also gets a ``last_run_stats`` dict
    whose counters sum the per-segment counters exactly (the
    per-segment dicts are kept under ``"shards"``).
    """
    merged: dict[str, RunStats] = {}
    for name, owner in _stats_owners(host, kind).items():
        stats = RunStats()
        for outcome in outcomes:
            if name in outcome.model_stats:
                stats = stats.merge(outcome.model_stats[name])
        stats.wall_seconds = wall
        with getattr(owner, "_stats_lock", contextlib.nullcontext()):
            owner.last_run_stats = stats
            owner.total_run_stats = owner.total_run_stats.merge(stats)
        merged[name] = stats
    if kind != KIND_PIPELINE:
        return
    shards = [outcome.stats for outcome in outcomes]
    summary: dict = {
        name: sum((stats or {}).get(name, 0) for stats in shards)
        for name in _SUMMED_STAT_KEYS
    }
    blocks = int(summary["blocks"])
    summary.update(
        {
            "wall_seconds": wall,
            "blocks_per_second": blocks / wall if wall > 0 else 0.0,
            "records": sum(len(outcome.rows) for outcome in outcomes),
            "on_error": mode,
            "fast_path": all(
                (stats or {}).get("fast_path", True) for stats in shards
            ),
            "extractor": merged.get("extractor", RunStats()).as_dict(),
            "workers": workers,
            "num_shards": len(outcomes),
            "shard_wall_seconds": sum(
                (stats or {}).get("wall_seconds", 0.0) for stats in shards
            ),
            "broadcast_seconds": broadcast_seconds,
            "broadcast_bytes": broadcast_bytes,
            "shards": shards,
        }
    )
    host.last_run_stats = summary


def _run_corpus(
    host: Any,
    kind: str,
    items: Sequence[Any],
    *,
    workers: int,
    num_shards: int | None = None,
    **plan: Any,
) -> list[SegmentOutcome]:
    """A non-journaled run: outcomes of token-balanced shards, in order.

    The shard count is ``min(num_shards or workers, len(items))`` — one
    big batch per worker by default, not journal-sized segments. The
    ``plan`` keywords (``mode``, ``fields``, ``policy``,
    ``shard_faults``) reach :func:`_segment_works`.
    """
    items = list(items)
    count = max(1, min(num_shards or workers, len(items)))
    shards = plan_shards(_item_costs(kind, items), count)
    works = _segment_works(host, kind, items, shards, **plan)
    if not works:
        return []
    return _run_segments(works, host, kind, workers=workers)[0]


# -- durable run drivers ------------------------------------------------------


@dataclasses.dataclass
class DurableRunResult:
    """Rows + provenance from a journaled run."""

    payloads: list  # raw journal row payloads, corpus order
    journal: RunJournal
    stats: dict

    @property
    def pairs(self) -> list[tuple[dict, str]]:
        """``(row, status)`` pairs (rows kinds), mirroring run_resilient."""
        return [
            (payload["row"], payload["status"]) for payload in self.payloads
        ]

    @property
    def rows(self) -> list[dict]:
        return [payload["row"] for payload in self.payloads]


def _run_journaled(
    host: Any,
    kind: str,
    items: list,
    run_dir,
    *,
    identity: dict,
    digest: str,
    workers: int,
    resume: bool,
    segment_items: int,
    config: SupervisorConfig | None,
    fault_injector: FaultInjector | None,
    drain_event: threading.Event | None,
    **plan: Any,
) -> DurableRunResult:
    """Plan, bind the journal to the run's identity, run what is pending."""
    segments = plan_segments(_item_costs(kind, items), segment_items)
    # Planned first: a rejected ``mode`` leaves nothing in ``run_dir``.
    works = _segment_works(host, kind, items, segments, **plan)
    journal = RunJournal(run_dir, resume=resume, fault_injector=fault_injector)
    journal.begin(
        kind=kind,
        config_hash=config_fingerprint(kind=kind, **identity),
        input_digest=digest,
        num_items=len(items),
        segments=[(segment.start, segment.stop) for segment in segments],
    )
    run_stats: dict = {"workers": workers, "supervised": False}
    pending = set(journal.pending())
    if pending:
        __, run_stats = _run_segments(
            [work for work in works if work.index in pending],
            host,
            kind,
            workers=workers,
            journal=journal,
            config=config,
            drain_event=drain_event,
        )
    elif kind == KIND_PIPELINE:
        # A fully replayed run executes nothing, and its summary says so.
        _merge_stats(
            host,
            kind,
            [],
            mode=plan["mode"],
            workers=workers,
            wall=0.0,
            broadcast_seconds=0.0,
            broadcast_bytes=0,
        )
    journal.mark_complete()
    return DurableRunResult(
        payloads=journal.rows(),
        journal=journal,
        stats={**journal.stats(), **run_stats},
    )


def run_durable_rows(
    host: Any,
    kind: str,
    texts: Sequence[str],
    run_dir,
    *,
    workers: int = 1,
    resume: bool = True,
    segment_items: int = DEFAULT_SEGMENT_ITEMS,
    on_error: str = "raise",
    fields: Sequence[str] | None = None,
    policy: RetryPolicy | None = None,
    config: SupervisorConfig | None = None,
    fault_injector: FaultInjector | None = None,
    drain_event: threading.Event | None = None,
) -> DurableRunResult:
    """Journaled bulk inference: texts in, ``(row, status)`` pairs out.

    The durable sibling of ``TaskModel.run_resilient``, on the same
    ladder (:func:`_rows_segment`) and statuses: output is
    bitwise-identical to an uninterrupted (or non-durable) run no matter
    how many times the process was killed and resumed in between,
    because segments are contiguous, per-segment results equal the
    full-corpus results (packing invariance), and committed rows replay
    byte-exactly from the WAL.

    Args:
        host: a *fitted* backend — extractor (``kind="extraction"``) or
            text classifier (``kind="classification"``).
        texts: the corpus, order-significant.
        run_dir: journal directory; pass the same directory with
            ``resume=True`` to continue an interrupted run.
        on_error: ``raise``/``skip``/``degrade``; anything else raises
            :class:`InputError` before ``run_dir`` is touched.
        fields: empty-row schema for skip/degrade (defaults to the
            host's configured fields / the classification row schema).
        policy: per-call retry policy for the ladder (None = no retries).
        fault_injector: journal-site injector (``journal_commit`` /
            ``journal_publish``) for crash testing.
        drain_event: external drain signal (see :class:`GracefulShutdown`).
    """
    texts = [str(text) for text in texts]
    if fields is None:
        if kind == KIND_CLASSIFICATION:
            fields = ("Label", "Score")
        else:
            fields = tuple(getattr(host.config, "fields", ()))
    return _run_journaled(
        host,
        kind,
        texts,
        run_dir,
        identity={
            "fingerprint": _model_fingerprint(host),
            "fields": list(fields),
            "on_error": on_error,
        },
        digest=input_digest(texts),
        mode=on_error,
        fields=fields,
        policy=policy,
        workers=workers,
        resume=resume,
        segment_items=segment_items,
        config=config,
        fault_injector=fault_injector,
        drain_event=drain_event,
    )


def run_durable_reports(
    pipeline: Any,
    reports: Sequence[Any],
    run_dir,
    *,
    workers: int = 1,
    resume: bool = True,
    segment_items: int = 4,
    on_error: str | None = None,
    config: SupervisorConfig | None = None,
    fault_injector: FaultInjector | None = None,
    drain_event: threading.Event | None = None,
) -> DurableRunResult:
    """Journaled GoalSpotter corpus run: reports in, record payloads out.

    Quarantine entries commit alongside their segment's records, so
    poison documents survive restarts with full typed provenance and a
    resume never retries an already-settled segment. The caller's
    ``pipeline.quarantine`` is extended with the (replayed or fresh)
    entries after the run completes.
    """
    mode = on_error if on_error is not None else pipeline.on_error
    reports = list(reports)
    result = _run_journaled(
        pipeline,
        KIND_PIPELINE,
        reports,
        run_dir,
        identity={
            "detector": _model_fingerprint(pipeline.detector),
            "extractor": _model_fingerprint(pipeline.extractor),
            "on_error": mode,
        },
        digest=_reports_digest(reports),
        mode=mode,
        workers=workers,
        resume=resume,
        segment_items=segment_items,
        config=config,
        fault_injector=fault_injector,
        drain_event=drain_event,
    )
    pipeline.quarantine.extend(
        QuarantineEntry.from_dict(payload)
        for payload in result.journal.quarantine_payloads()
    )
    return result


def _model_fingerprint(owner: Any) -> str:
    model = getattr(owner, "model", None)
    if model is None or not hasattr(model, "fingerprint"):
        return ""
    return model.fingerprint()


def _reports_digest(reports: Sequence[Any]) -> str:
    """Order-sensitive content address of a report corpus."""
    parts: list[str] = []
    for report in reports:
        parts.append(
            "\x1d".join(
                [
                    report.company,
                    report.report_id,
                    str(report.reporting_year),
                ]
                + [
                    block.text
                    for page in report.pages
                    for block in page.blocks
                    if isinstance(getattr(block, "text", None), str)
                ]
            )
        )
    return input_digest(parts)
