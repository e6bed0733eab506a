"""Structured exception taxonomy for the fault-tolerant runtime.

Every failure the pipeline can survive is classified into one of four
:class:`ReproError` subclasses so policies (retry, degrade, skip,
quarantine) can dispatch on *what went wrong* instead of string-matching
tracebacks:

* :class:`InputError` — the caller's data is malformed (``None`` blocks,
  empty reports, absurd block lengths). Deterministic: never retried.
* :class:`ModelError` — a model stage failed (missing weights, shape
  mismatch, anything unexpected raised inside a stage). Retryable.
* :class:`NumericalError` — NaN/inf escaped a forward pass (raised by the
  opt-in guards in :mod:`repro.nn.module`). Retryable.
* :class:`StageTimeout` — a stage exhausted its deadline budget across
  retry attempts. Terminal for that stage call.

Errors carry provenance (``stage``, ``report_id``, ``page``) and, once a
:class:`~repro.runtime.resilience.RetryPolicy` has handled them, the
attempt count and per-attempt history — which is what lands in the
:class:`~repro.runtime.resilience.QuarantineQueue`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of the runtime failure taxonomy.

    Attributes:
        stage: pipeline stage that failed (``"detect"``, ``"extract"``, ...).
        report_id: offending document, when known.
        page: offending page index within the document, when known.
        attempts: how many attempts were made before giving up (filled by
            the retry machinery).
        history: one short string per failed attempt.
        injected: True when raised by a :class:`FaultInjector` (testing).
    """

    retryable = True

    def __init__(
        self,
        message: str,
        *,
        stage: str | None = None,
        report_id: str | None = None,
        page: int | None = None,
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.report_id = report_id
        self.page = page
        self.attempts: int = 0
        self.history: list[str] = []
        self.injected: bool = False

    def context(self) -> dict:
        """JSON-ready provenance view (quarantine / logging)."""
        return {
            "error": type(self).__name__,
            "message": str(self),
            "stage": self.stage,
            "report_id": self.report_id,
            "page": self.page,
            "attempts": self.attempts,
            "history": list(self.history),
            "injected": self.injected,
        }


class InputError(ReproError):
    """Malformed caller data; deterministic, so never retried."""

    retryable = False


class ModelError(ReproError):
    """A model stage failed (wraps unexpected in-stage exceptions)."""


class NumericalError(ModelError):
    """NaN/inf detected in a forward pass (see ``repro.nn.module``)."""


class StageTimeout(ReproError):
    """A stage exhausted its per-stage deadline budget."""

    retryable = False


class TaskRegistryError(InputError):
    """The task registry rejected a lookup or registration.

    Raised by :mod:`repro.tasks` when an unknown task name is requested
    (CLI ``--task`` maps this to exit code 2 through the usual
    :class:`InputError` handling) or when a registration collides with an
    already-registered or reserved builtin task name. Deterministic — the
    registry will not change under retry.
    """


class ArtifactError(InputError):
    """A persisted artifact failed integrity verification at load time.

    Raised by every load surface (``nn.serialize.load_state``, extractor /
    CRF / tokenizer / vocabulary loads, and the checkpoint manager) when
    bytes on disk are truncated, corrupted, missing, or belong to a
    different configuration — instead of a bare ``zipfile``/``numpy``/
    ``KeyError`` escaping from deep inside a parser. Deterministic (the
    bytes will not fix themselves), so never retried; the checkpoint
    manager reacts by rolling back to the previous last-good checkpoint.

    Attributes:
        path: the offending file, when known.
        expected: expected content digest (or schema detail), when known.
        actual: actual digest observed on disk, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        expected: str | None = None,
        actual: str | None = None,
        stage: str | None = None,
        report_id: str | None = None,
        page: int | None = None,
    ) -> None:
        super().__init__(
            message, stage=stage, report_id=report_id, page=page
        )
        self.path = path
        self.expected = expected
        self.actual = actual

    def context(self) -> dict:
        payload = super().context()
        payload.update(
            {
                "path": self.path,
                "expected": self.expected,
                "actual": self.actual,
            }
        )
        return payload


class CircuitOpenError(ModelError):
    """A stage's circuit breaker is open; the call was not attempted."""

    retryable = False


class OverloadedError(ReproError):
    """The serving engine shed this request instead of queueing it.

    Raised by :meth:`repro.serve.ServingEngine.submit` when admission
    control finds the request's priority queue at its depth bound (or the
    engine draining/stopped). Not retryable *inside* the engine — the
    whole point of load shedding is to fail fast; the caller decides
    whether to back off and resubmit.
    """

    retryable = False


class ReplicaCrashError(ModelError):
    """A serving replica died (or was chaos-killed) with work in flight.

    Raised by a crashed replica's backend proxy for every call after the
    crash instant. Not retryable *in place* — retrying on a dead replica
    can never succeed; the :class:`repro.serve.FleetRouter` instead
    re-dispatches the request to a healthy replica (the at-least-once
    failover guarantee).
    """

    retryable = False


class RunInterrupted(ReproError):
    """A durable run drained after SIGINT/SIGTERM (or an explicit drain).

    Raised *after* all in-flight work has been committed — training by
    :meth:`CheckpointManager.maybe_save` once the forced checkpoint is on
    disk, journaled extraction by the :class:`RunSupervisor` once every
    in-flight segment has either committed or been abandoned at the drain
    deadline. The journal/checkpoint left behind is a valid resume point;
    the CLI maps this to the documented partial-success exit code 4.
    Deterministic (the signal will not un-arrive), so never retried.
    """

    retryable = False


#: Short names used by the fault injector and CLI to pick an error class.
ERROR_CLASSES: dict[str, type[ReproError]] = {
    "input": InputError,
    "model": ModelError,
    "numerical": NumericalError,
    "timeout": StageTimeout,
    "overloaded": OverloadedError,
    "artifact": ArtifactError,
    "crash": ReplicaCrashError,
}

#: Taxonomy classes by their ``__name__`` — the inverse of the tag each
#: error writes into ``context()["error"]``. Used to rebuild typed errors
#: from persisted quarantine payloads when a journaled run resumes.
_TAXONOMY_BY_NAME: dict[str, type[ReproError]] = {
    cls.__name__: cls
    for cls in (
        ReproError,
        InputError,
        ModelError,
        NumericalError,
        StageTimeout,
        TaskRegistryError,
        ArtifactError,
        CircuitOpenError,
        OverloadedError,
        ReplicaCrashError,
        RunInterrupted,
    )
}


def error_from_context(payload: dict) -> ReproError:
    """Rebuild a typed :class:`ReproError` from a ``context()`` payload.

    The inverse of :meth:`ReproError.context` for journal persistence:
    class is resolved by name (unknown names fall back to
    :class:`ReproError`), and provenance / attempt metadata is restored so
    a quarantine entry replayed from a run journal is indistinguishable
    from the live one, minus ``__cause__`` (tracebacks are not persisted).
    """
    cls = _TAXONOMY_BY_NAME.get(str(payload.get("error")), ReproError)
    error = cls.__new__(cls)
    ReproError.__init__(
        error,
        str(payload.get("message", "")),
        stage=payload.get("stage"),
        report_id=payload.get("report_id"),
        page=payload.get("page"),
    )
    error.attempts = int(payload.get("attempts", 0))
    error.history = [str(item) for item in payload.get("history", [])]
    error.injected = bool(payload.get("injected", False))
    if isinstance(error, ArtifactError):
        error.path = payload.get("path")
        error.expected = payload.get("expected")
        error.actual = payload.get("actual")
    return error


def classify_error(
    error: BaseException, *, stage: str | None = None
) -> ReproError:
    """Fold an arbitrary exception into the taxonomy.

    :class:`ReproError` instances pass through (gaining ``stage`` if they
    did not record one); ``FloatingPointError`` becomes
    :class:`NumericalError`; everything else becomes :class:`ModelError`
    with the original exception chained as ``__cause__``.
    """
    if isinstance(error, ReproError):
        if error.stage is None:
            error.stage = stage
        return error
    if isinstance(error, FloatingPointError):
        wrapped: ReproError = NumericalError(str(error), stage=stage)
    else:
        wrapped = ModelError(
            f"{type(error).__name__}: {error}", stage=stage
        )
    wrapped.__cause__ = error
    return wrapped
