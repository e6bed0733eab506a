"""Fleet serving: a replicated router with failover and hot-swap.

:class:`FleetRouter` composes N :class:`~repro.serve.engine.ServingEngine`
replicas behind one ``submit() -> Future`` front door (same signature and
shedding semantics as a single engine, so the load generator and CLI
drive either interchangeably). Replicas are a unit of failure and of
model generation, not of capacity: in-process replicas share one model
and one GIL, so throughput scales with the engine's worker threads, not
with the replica count. The fleet's jobs are:

* **routing** — a pluggable :class:`~repro.serve.router.RoutingPolicy`
  (round-robin, least-loaded, token-cost-aware) picks among replicas
  that per-replica :class:`~repro.serve.router.ReplicaHealth` admits
  (consecutive-failure ejection, probationary re-admission, terminal
  ``dead``);
* **at-least-once failover** — a request the router accepted is never
  lost to a replica death: every replica sees the shared model through a
  crash-aware proxy, so a killed replica's in-flight and queued work
  fails fast with :class:`~repro.runtime.errors.ReplicaCrashError` and
  the router re-dispatches it to a healthy replica. Results are bitwise
  identical no matter which replica serves (all replicas of a generation
  share one set of weights, and the PR 1/PR 3 width-invariance guarantee
  makes batching composition irrelevant);
* **blue-green hot-swap** — :meth:`FleetRouter.swap_model` loads a new
  checkpoint through the manifest/SHA-256-verified
  :meth:`~repro.core.extractor.WeakSupervisionExtractor.load` path,
  checks a config-hash gate and a probe-based equivalence gate, builds
  fully-started fresh replicas, checks the ``swap_abort`` fault site,
  atomically cuts routing over, and drains the old generation with the
  router's lease-exact per-replica in-flight counters
  (``loading → gating → starting → cutover → draining → retired``). Any
  failure before cutover aborts the swap and leaves the old fleet
  untouched; a swap never causes a rejection — the old generation keeps
  serving until the instant the new one takes over;
* **chaos sites** — the router checks the fleet-level
  :class:`~repro.runtime.resilience.FaultInjector` sites
  ``replica_crash`` (kill the selected replica mid-dispatch),
  ``replica_stall`` (health strike + reroute), and ``swap_abort``.

See DESIGN.md §6f and the README "Fleet serving" section.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Sequence
from concurrent.futures import Future
from pathlib import Path

from repro.runtime.errors import (
    InputError,
    OverloadedError,
    ReplicaCrashError,
    ReproError,
)
from repro.serve.engine import (
    ServeRequest,
    ServingConfig,
    ServingEngine,
    _estimate_tokens,
)
from repro.serve.metrics import SloMetrics, fleet_cache_view, merge_counters
from repro.serve.router import ReplicaHealth, make_policy

#: Swap state-machine states, in happy-path order.
SWAP_STATES = (
    "loading",
    "gating",
    "starting",
    "cutover",
    "draining",
    "retired",
)
SWAP_COMPLETED = "completed"
SWAP_ABORTED = "aborted"


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Fleet tuning knobs.

    Attributes:
        replicas: replicas to start with; a hot-swap rebuilds as many
            as are live at the time.
        policy: routing policy name (see
            :data:`repro.serve.router.ROUTING_POLICIES`).
        engine: per-replica :class:`ServingConfig`.
        failure_threshold: consecutive replica-attributable failures
            before a replica is ejected from routing.
        readmission_seconds: ejection cooldown before a replica is
            re-admitted on probation.
        max_redispatch: failover re-dispatch attempts per request before
            the router gives up and fails the request.
        drain_timeout: seconds to wait for an old generation to finish
            its in-flight work.
        probe_texts: default probe inputs for the hot-swap equivalence
            gate (empty = gate records ``skipped`` unless the caller
            passes probes).
    """

    replicas: int = 2
    policy: str = "least-loaded"
    engine: ServingConfig = dataclasses.field(default_factory=ServingConfig)
    failure_threshold: int = 3
    readmission_seconds: float = 0.25
    max_redispatch: int = 3
    drain_timeout: float = 30.0
    probe_texts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("a fleet needs at least one replica")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if self.readmission_seconds < 0:
            raise ValueError("readmission_seconds must be non-negative")
        if self.max_redispatch < 1:
            raise ValueError("max_redispatch must be positive")
        if self.drain_timeout <= 0:
            raise ValueError("drain_timeout must be positive")


@dataclasses.dataclass
class SwapReport:
    """What one :meth:`FleetRouter.swap_model` attempt did.

    ``states`` is the path actually traversed through the swap state
    machine; an aborted swap's last entry names where it stopped.
    """

    status: str  # completed | aborted
    from_generation: int
    to_generation: int
    states: list[str]
    reason: str = ""
    config_hash_checked: bool = False
    gate: dict = dataclasses.field(default_factory=dict)
    replicas: int = 0
    drained_requests: int = 0
    rejections_during_swap: int = 0

    @property
    def ok(self) -> bool:
        return self.status == SWAP_COMPLETED

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class _Generation:
    """One model generation: the shared backends every replica proxies."""

    index: int
    detector: object | None
    extractor: object | None
    fallback: object | None


class _ReplicaBackend:
    """Crash-aware view of a shared backend, one per replica.

    All replicas of a generation serve the *same* model object (which is
    what makes results bitwise identical across replicas); the proxy is
    what lets one replica die without touching its siblings: after
    :meth:`crash`, every call raises
    :class:`~repro.runtime.errors.ReplicaCrashError`, so the dead
    replica's in-flight batches fail fast and the router fails them over.
    """

    __slots__ = ("_replica_id", "_target", "_crashed")

    def __init__(self, replica_id: str, target) -> None:
        self._replica_id = replica_id
        self._target = target
        self._crashed = threading.Event()

    @property
    def model(self):
        # The engine's result-cache key path reads ``backend.model``.
        return getattr(self._target, "model", None)

    def crash(self) -> None:
        self._crashed.set()

    def _guard(self, stage: str) -> None:
        if self._crashed.is_set():
            raise ReplicaCrashError(
                f"replica {self._replica_id} crashed mid-flight",
                stage=stage,
            )

    def predict_proba(self, texts):
        self._guard("replica_crash")
        return self._target.predict_proba(texts)

    def extract_batch(self, texts):
        self._guard("replica_crash")
        return self._target.extract_batch(texts)


class Replica:
    """One serving replica: engine + health + router-side lease counters.

    ``inflight``/``outstanding_tokens`` count requests the router
    dispatched here and has not yet seen resolve — the lease-exact
    counters the hot-swap drain and the token-cost policy read.
    """

    def __init__(
        self,
        replica_id: str,
        generation: int,
        engine: ServingEngine,
        backends: list[_ReplicaBackend],
        health: ReplicaHealth,
        idle_cond: threading.Condition,
    ) -> None:
        self.replica_id = replica_id
        self.generation = generation
        self.engine = engine
        self.health = health
        self._backends = backends
        self._idle_cond = idle_cond
        self._inflight = 0
        self._tokens = 0

    @property
    def dead(self) -> bool:
        return self.health.dead

    @property
    def inflight(self) -> int:
        with self._idle_cond:
            return self._inflight

    def load(self) -> int:
        with self._idle_cond:
            return self._inflight

    def outstanding_tokens(self) -> int:
        with self._idle_cond:
            return self._tokens

    def begin(self, cost: int) -> None:
        with self._idle_cond:
            self._inflight += 1
            self._tokens += cost

    def finish(self, cost: int) -> None:
        with self._idle_cond:
            self._inflight -= 1
            self._tokens -= cost
            self._idle_cond.notify_all()

    def crash_backends(self) -> None:
        for backend in self._backends:
            backend.crash()


class FleetRouter:
    """Distribute submissions over N serving replicas with failover.

    Args:
        detector / extractor / fallback_extractor: the shared backends
            (same contract as :class:`ServingEngine`); every replica
            serves them through its own crash-aware proxy.
        config: :class:`FleetConfig` knobs.
        retry_policy: per-stage retry policy handed to every replica.
        fault_injector: deterministic chaos hooks — shared with the
            replica engines (``detect``/``extract`` sites) and checked by
            the router at ``replica_crash``/``replica_stall``/
            ``swap_abort``.
        clock: injectable monotonic clock.
    """

    def __init__(
        self,
        detector=None,
        extractor=None,
        *,
        fallback_extractor=None,
        config: FleetConfig | None = None,
        retry_policy=None,
        fault_injector=None,
        clock=time.monotonic,
    ) -> None:
        if detector is None and extractor is None:
            raise ValueError("a fleet needs a detector and/or an extractor")
        self.config = config or FleetConfig()
        self.policy = make_policy(self.config.policy)
        self.fault_injector = fault_injector
        self.metrics = SloMetrics(clock=clock)
        self._retry_policy = retry_policy
        self._clock = clock
        self._lock = threading.RLock()
        self._idle_cond = threading.Condition(threading.RLock())
        self._generation = _Generation(
            index=0,
            detector=detector,
            extractor=extractor,
            fallback=fallback_extractor,
        )
        self._replicas: list[Replica] = []
        self._graveyard: list[Replica] = []  # crashed replicas
        self._retired: list[Replica] = []  # drained out by a swap
        self._next_replica = 0
        self._started = False
        self._stopped = False
        self._swap_lock = threading.Lock()
        for _ in range(self.config.replicas):
            self._replicas.append(self._build_replica(self._generation))

    # -- replica construction ------------------------------------------------

    def _build_replica(self, generation: _Generation) -> Replica:
        with self._lock:
            replica_id = f"r{self._next_replica:03d}"
            self._next_replica += 1
        backends: list[_ReplicaBackend] = []

        def proxy(target):
            if target is None:
                return None
            wrapped = _ReplicaBackend(replica_id, target)
            backends.append(wrapped)
            return wrapped

        engine = ServingEngine(
            detector=proxy(generation.detector),
            extractor=proxy(generation.extractor),
            fallback_extractor=proxy(generation.fallback),
            config=self.config.engine,
            retry_policy=self._retry_policy,
            fault_injector=self.fault_injector,
            clock=self._clock,
        )
        health = ReplicaHealth(
            failure_threshold=self.config.failure_threshold,
            readmission_seconds=self.config.readmission_seconds,
            clock=self._clock,
        )
        return Replica(
            replica_id,
            generation.index,
            engine,
            backends,
            health,
            self._idle_cond,
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation.index

    def start(self) -> "FleetRouter":
        """Start every replica engine; idempotent while running."""
        with self._lock:
            if self._stopped:
                raise RuntimeError("cannot start a stopped fleet")
            self._started = True
            replicas = list(self._replicas)
        for replica in replicas:
            replica.engine.start()
        return self

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the fleet; with ``drain`` every queued future completes."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            replicas = list(self._replicas)
        for replica in replicas:
            replica.engine.shutdown(drain=drain, timeout=timeout)

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # -- introspection -------------------------------------------------------

    def live_replicas(self) -> list[str]:
        with self._lock:
            return [replica.replica_id for replica in self._replicas]

    def health_states(self) -> dict[str, str]:
        """Every replica the fleet has ever run, by current health state."""
        with self._lock:
            replicas = self._replicas + self._graveyard + self._retired
            retired = set(id(replica) for replica in self._retired)
        return {
            replica.replica_id: (
                "retired"
                if id(replica) in retired and not replica.dead
                else replica.health.state
            )
            for replica in replicas
        }

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

        Same contract as :meth:`ServingEngine.submit` — raises
        :class:`InputError` on malformed input and
        :class:`OverloadedError` when no admissible replica can accept
        the request (every replica ejected/dead, or every queue at its
        bound). A request this method *accepts* is covered by the
        at-least-once failover guarantee: replica death after admission
        re-dispatches it instead of losing it.
        """
        if request is None:
            if kind is None or texts is None:
                raise InputError(
                    "submit() needs a ServeRequest or kind= and texts=",
                    stage="router",
                )
            if isinstance(texts, str):
                texts = (texts,)
            request = ServeRequest(
                kind=kind, texts=tuple(texts), priority=priority
            )
        with self._lock:
            generation = self._generation
        if request.kind == "detect" and generation.detector is None:
            raise InputError("fleet has no detector backend", stage="router")
        if request.kind == "extract" and generation.extractor is None:
            raise InputError("fleet has no extractor backend", stage="router")
        self.metrics.count("submitted")
        routed: Future = Future()
        self._dispatch(
            request,
            routed,
            submitted_at=self._clock(),
            redispatches=0,
            excluded=frozenset(),
            initial=True,
        )
        return routed

    def detect(self, texts, priority: str = "interactive") -> Future:
        return self.submit(kind="detect", texts=texts, priority=priority)

    def extract(self, texts, priority: str = "interactive") -> Future:
        return self.submit(kind="extract", texts=texts, priority=priority)

    # -- dispatch + failover -------------------------------------------------

    def _select(self, request: ServeRequest, excluded: frozenset):
        with self._lock:
            candidates = [
                replica
                for replica in self._replicas
                if replica.replica_id not in excluded
                and replica.health.admissible()
                and replica.engine.state in ("new", "running")
            ]
            if not candidates:
                return None
            if len(candidates) == 1:
                return candidates[0]
            return self.policy.select(
                candidates, _estimate_tokens(request.texts)
            )

    def _dispatch(
        self,
        request: ServeRequest,
        routed: Future,
        *,
        submitted_at: float,
        redispatches: int,
        excluded: frozenset,
        initial: bool,
    ) -> None:
        cost = _estimate_tokens(request.texts)
        while True:
            replica = self._select(request, excluded)
            if replica is None:
                error = OverloadedError(
                    "no admissible replica can accept this request",
                    stage="router",
                )
                self.metrics.count("rejected")
                if initial:
                    raise error
                routed.set_exception(error)
                return
            if self.fault_injector is not None:
                # Fleet chaos sites. ``replica_crash``: the replica the
                # policy just picked dies this instant — kill it and route
                # around. ``replica_stall``: it stops making progress —
                # health strike, exclude, route around.
                try:
                    self.fault_injector.check("replica_crash")
                except ReproError:
                    self.metrics.count("chaos.replica_crash")
                    self.kill_replica(replica.replica_id)
                    continue
                try:
                    self.fault_injector.check("replica_stall")
                except ReproError:
                    self.metrics.count("chaos.replica_stall")
                    replica.health.record_failure()
                    excluded = excluded | {replica.replica_id}
                    continue
            replica.begin(cost)
            try:
                inner = replica.engine.submit(request)
            except OverloadedError as error:
                replica.finish(cost)
                if replica.dead or replica.engine.state in (
                    "draining",
                    "stopped",
                ):
                    # Not a load signal — the replica is going away.
                    excluded = excluded | {replica.replica_id}
                    continue
                self.metrics.count("rejected")
                self.metrics.count(f"rejected.{request.priority}")
                if initial:
                    raise
                routed.set_exception(error)
                return
            self.metrics.count("dispatched")
            inner.add_done_callback(
                lambda inner_future, rep=replica: self._on_replica_done(
                    inner_future,
                    rep,
                    request,
                    routed,
                    submitted_at,
                    redispatches,
                    cost,
                )
            )
            return

    def _on_replica_done(
        self,
        inner: Future,
        replica: Replica,
        request: ServeRequest,
        routed: Future,
        submitted_at: float,
        redispatches: int,
        cost: int,
    ) -> None:
        replica.finish(cost)
        error = inner.exception()
        if error is None:
            replica.health.record_success()
            result = inner.result()
            self.metrics.count("completed")
            now = self._clock()
            self.metrics.observe("fleet.total", max(0.0, now - submitted_at))
            self.metrics.observe(
                "fleet.queue_wait", result.queue_wait_seconds
            )
            routed.set_result(result)
            return
        # Replica death (crash error, or any failure surfaced by a dead /
        # retiring replica, e.g. OverloadedError from its abort-shutdown)
        # triggers failover; everything else is a request-level failure
        # that also strikes the replica's health.
        if replica.dead or isinstance(error, ReplicaCrashError):
            if redispatches < self.config.max_redispatch:
                self.metrics.count("failover.redispatched")
                self._dispatch(
                    request,
                    routed,
                    submitted_at=submitted_at,
                    redispatches=redispatches + 1,
                    excluded=frozenset({replica.replica_id}),
                    initial=False,
                )
                return
            self.metrics.count("failover.exhausted")
        else:
            replica.health.record_failure()
        self.metrics.count("failed")
        routed.set_exception(error)

    # -- replica death -------------------------------------------------------

    def kill_replica(self, replica_id: str) -> bool:
        """Simulate a replica crash (the chaos tier's kill switch).

        The replica's backends start raising
        :class:`ReplicaCrashError`, so its in-flight batches fail fast
        and fail over; its queue is aborted (those requests fail over
        too); it leaves the routing candidate set permanently. Returns
        False when the replica is unknown or already dead.
        """
        with self._lock:
            replica = next(
                (
                    r
                    for r in self._replicas
                    if r.replica_id == replica_id
                ),
                None,
            )
            if replica is None or replica.dead:
                return False
            replica.health.mark_dead()
            self._replicas.remove(replica)
            self._graveyard.append(replica)
        self.metrics.count("replicas_killed")
        replica.crash_backends()
        # Abort the dead engine off-thread: its queued entries fail with
        # OverloadedError, which the done-callbacks fail over because the
        # replica is marked dead. Joining its workers must not block the
        # (possibly dispatching) caller.
        threading.Thread(
            target=replica.engine.shutdown,
            kwargs={"drain": False},
            name=f"repro-fleet-reaper-{replica_id}",
            daemon=True,
        ).start()
        return True

    # -- blue-green hot-swap -------------------------------------------------

    def swap_model(
        self,
        checkpoint_dir: str | Path | None = None,
        *,
        extractor=None,
        detector=None,
        probe_texts: Sequence[str] | None = None,
        drain_timeout: float | None = None,
    ) -> SwapReport:
        """Blue-green swap to a new model generation, under live traffic.

        Either pass ``checkpoint_dir`` (loaded through the
        manifest/SHA-256-verified extractor load path) or already-built
        ``extractor``/``detector`` backends. The old generation serves
        every request until the atomic cutover; a failed gate, a load
        error, or an injected ``swap_abort`` aborts with the old fleet
        untouched. Returns a :class:`SwapReport`; never raises for
        swap-level failures (``report.ok`` tells the caller), only for
        caller errors (no new model given, fleet not started).
        """
        if checkpoint_dir is None and extractor is None and detector is None:
            raise InputError(
                "swap_model() needs a checkpoint_dir or new backends",
                stage="swap",
            )
        with self._swap_lock:
            if self._stopped:
                raise RuntimeError("cannot swap a stopped fleet")
            if not self._started:
                raise RuntimeError(
                    "cannot swap a fleet never started (nothing would "
                    "drain the old generation)"
                )
            with self._lock:
                old_generation = self._generation
                replica_target = max(1, len(self._replicas))
            rejected_before = self.metrics.counters.snapshot().get(
                "rejected", 0.0
            )
            report = SwapReport(
                status=SWAP_ABORTED,
                from_generation=old_generation.index,
                to_generation=old_generation.index + 1,
                states=[],
                replicas=replica_target,
            )

            # -- loading: checksum-verified checkpoint load ------------------
            report.states.append("loading")
            new_extractor = extractor
            new_detector = detector
            if checkpoint_dir is not None:
                from repro.core.extractor import WeakSupervisionExtractor

                try:
                    new_extractor = WeakSupervisionExtractor.load(
                        checkpoint_dir
                    )
                except ReproError as error:
                    return self._abort_swap(report, "loading", error)
            new_generation = _Generation(
                index=old_generation.index + 1,
                detector=new_detector or old_generation.detector,
                extractor=new_extractor or old_generation.extractor,
                fallback=old_generation.fallback,
            )

            # -- gating: config hash + probe equivalence ---------------------
            report.states.append("gating")
            gate_error = self._check_swap_gates(
                report, old_generation, new_generation, probe_texts
            )
            if gate_error is not None:
                return self._abort_swap(report, "gating", gate_error)

            # -- starting: fully-started fresh replicas ----------------------
            report.states.append("starting")
            new_replicas = [
                self._build_replica(new_generation)
                for _ in range(replica_target)
            ]
            for replica in new_replicas:
                replica.engine.start()
            if self.fault_injector is not None:
                try:
                    self.fault_injector.check("swap_abort")
                except ReproError as error:
                    for replica in new_replicas:
                        replica.engine.shutdown(drain=False)
                    self.metrics.count("chaos.swap_abort")
                    return self._abort_swap(report, "starting", error)

            # -- cutover: atomic flip ----------------------------------------
            report.states.append("cutover")
            with self._lock:
                old_replicas = self._replicas
                self._replicas = new_replicas
                self._generation = new_generation
            self.metrics.count("swaps")

            # -- draining: lease-exact old-generation drain ------------------
            report.states.append("draining")
            timeout = (
                self.config.drain_timeout
                if drain_timeout is None
                else drain_timeout
            )
            report.drained_requests = self._drain_replicas(
                old_replicas, timeout
            )
            with self._lock:
                self._retired.extend(
                    r for r in old_replicas if not r.dead
                )

            report.states.append("retired")
            report.status = SWAP_COMPLETED
            report.rejections_during_swap = int(
                self.metrics.counters.snapshot().get("rejected", 0.0)
                - rejected_before
            )
            return report

    def _check_swap_gates(
        self,
        report: SwapReport,
        old: _Generation,
        new: _Generation,
        probe_texts: Sequence[str] | None,
    ) -> ReproError | None:
        """Config-hash and probe-equivalence gates; None means both passed."""
        old_config = getattr(old.extractor, "config", None)
        new_config = getattr(new.extractor, "config", None)
        if (
            new.extractor is not old.extractor
            and old_config is not None
            and new_config is not None
        ):
            from repro.runtime.checkpoint import config_fingerprint

            report.config_hash_checked = True
            old_hash = config_fingerprint(**dataclasses.asdict(old_config))
            new_hash = config_fingerprint(**dataclasses.asdict(new_config))
            if old_hash != new_hash:
                return InputError(
                    f"config hash mismatch: fleet serves {old_hash[:12]}, "
                    f"checkpoint was trained under {new_hash[:12]}",
                    stage="swap",
                )
        probes = tuple(
            probe_texts if probe_texts is not None else self.config.probe_texts
        )
        if not probes:
            report.gate = {"status": "skipped", "probes": 0}
            return None
        expected_fields = (
            tuple(old_config.fields)
            if old_config is not None and hasattr(old_config, "fields")
            else None
        )
        try:
            if new.extractor is not None and new.extractor is not old.extractor:
                records = new.extractor.extract_batch(list(probes))
                if len(records) != len(probes):
                    raise InputError(
                        f"probe gate: {len(probes)} probes produced "
                        f"{len(records)} records",
                        stage="swap",
                    )
                for record in records:
                    fields = tuple(record)
                    if expected_fields is not None and (
                        fields != expected_fields
                    ):
                        raise InputError(
                            f"probe gate: record fields {fields} != "
                            f"serving schema {expected_fields}",
                            stage="swap",
                        )
            if new.detector is not None and new.detector is not old.detector:
                scores = list(new.detector.predict_proba(list(probes)))
                if len(scores) != len(probes):
                    raise InputError(
                        "probe gate: detector score count mismatch",
                        stage="swap",
                    )
        except ReproError as error:
            report.gate = {
                "status": "failed",
                "probes": len(probes),
                "error": str(error),
            }
            return error
        except Exception as error:  # noqa: BLE001 — gate must not crash swap
            report.gate = {
                "status": "failed",
                "probes": len(probes),
                "error": f"{type(error).__name__}: {error}",
            }
            return InputError(
                f"probe gate raised {type(error).__name__}: {error}",
                stage="swap",
            )
        report.gate = {"status": "passed", "probes": len(probes)}
        return None

    def _abort_swap(
        self, report: SwapReport, state: str, error: ReproError
    ) -> SwapReport:
        self.metrics.count("swaps_aborted")
        report.status = SWAP_ABORTED
        report.reason = f"[{state}] {type(error).__name__}: {error}"
        return report

    def _drain_replicas(
        self, replicas: list[Replica], timeout: float
    ) -> int:
        """Wait for router leases to return, then drain + stop each engine."""
        drained = sum(replica.inflight for replica in replicas)
        deadline = self._clock() + timeout
        with self._idle_cond:
            while any(replica._inflight > 0 for replica in replicas):
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._idle_cond.wait(min(remaining, 0.05))
        for replica in replicas:
            if replica.dead:
                continue
            replica.engine.shutdown(
                drain=True, timeout=max(0.0, deadline - self._clock())
            )
        return drained

    # -- observability -------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Router, per-replica, and fleet-aggregate views in one snapshot.

        ``fleet.cache`` merges every replica's submit-time cache counters
        *and* raw :class:`~repro.runtime.rescache.ResultCache` stats, so
        hit-rate is observable fleet-wide (per-engine rates undercount:
        a request that hits on one replica misses on its siblings).
        """
        router = self.metrics.snapshot()
        with self._lock:
            live = list(self._replicas)
            generation = self._generation.index
        per_replica: dict[str, dict] = {}
        counter_snaps: list[dict] = []
        cache_stats: list[dict] = []
        for replica in live:
            snapshot = replica.engine.metrics_snapshot()
            counter_snaps.append(snapshot["counters"])
            if replica.engine.result_cache is not None:
                cache_stats.append(
                    replica.engine.result_cache.stats.snapshot()
                )
            per_replica[replica.replica_id] = {
                "generation": replica.generation,
                "health": replica.health.state,
                "engine_state": replica.engine.state,
                "load": replica.load(),
                "outstanding_tokens": replica.outstanding_tokens(),
                "counters": snapshot["counters"],
                "cache": snapshot["cache"],
                "latency": snapshot["latency"],
            }
        return {
            "router": {
                "generation": generation,
                "policy": self.policy.name,
                "replicas": len(live),
                "counters": router["counters"],
                "latency": router["latency"],
                "throughput": router["throughput"],
                "health": self.health_states(),
            },
            "replicas": per_replica,
            "fleet": {
                "pending": sum(replica.load() for replica in live),
                "counters": merge_counters(counter_snaps),
                "cache": fleet_cache_view(counter_snaps, cache_stats),
            },
        }
