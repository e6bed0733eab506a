"""Spans around the program's public callables, kept in memory.

The benchmark traces from outside the program: :class:`Instrumentation`
swaps each callable listed in :func:`targets` for a wrapper that records
a span, and puts the original back on exit. Nothing under ``src/``
changes, and an untraced run executes the program's own code objects.
Spans stay in memory until :meth:`Tracer.write` stores them at the end.

A span's *self time* is its duration minus the part its child spans
cover, so the self times of one thread add up to the time that thread
spent inside traced calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict

import numpy as np

#: Attribute carried by every wrapper, so a test can prove none survives.
MARKER = "__perfbench_span__"


def _inside(start: float, end: float, windows) -> bool:
    return any(low <= start and end <= high for low, high in windows)


class Tracer:
    """Records spans ``(name, thread, start, end, self seconds, depth)``
    and counted events ``(name, time, amount)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, float, int]] = []
        self.events: list[tuple[str, float, float]] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> list:
        frame = [time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        self.spans.append(
            (
                name,
                threading.get_ident(),
                frame[0],
                end,
                duration - frame[1],
                len(stack),
            )
        )

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.events.append((name, time.perf_counter(), float(amount)))

    def wrap(self, function, name: str, probe=None):
        """``function`` inside a span named ``name``.

        ``probe(tracer, args, kwargs)`` runs before the call, outside the
        span, and may return a callback that receives the result.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            after = probe(self, args, kwargs) if probe is not None else None
            frame = self._open()
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(name, frame)
            if after is not None:
                after(result)
            return result

        setattr(traced, MARKER, name)
        return traced

    # -- views ---------------------------------------------------------------

    def self_times(self, windows, threads=None) -> dict[str, float]:
        """Self seconds per span name, over spans inside ``windows``."""
        totals: dict[str, float] = defaultdict(float)
        for name, thread, start, end, own, __ in self.spans:
            if (threads is None or thread in threads) and _inside(
                start, end, windows
            ):
                totals[name] += own
        return totals

    def durations(self, name: str, windows, min_depth: int = 0) -> list[float]:
        """Durations of the ``name`` spans inside ``windows``."""
        return [
            end - start
            for span_name, __, start, end, __, depth in self.spans
            if span_name == name
            and depth >= min_depth
            and _inside(start, end, windows)
        ]

    def threads(self, windows) -> set[int]:
        return {
            thread
            for __, thread, start, end, __, __ in self.spans
            if _inside(start, end, windows)
        }

    def counts(self, windows) -> dict[str, float]:
        """Summed event amounts per name, over events inside ``windows``."""
        totals: dict[str, float] = defaultdict(float)
        for name, moment, amount in self.events:
            if _inside(moment, moment, windows):
                totals[name] += amount
        return totals

    def write(self, path) -> None:
        """Store every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, thread, start, end, own, depth in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "thread": thread,
                            "start": start,
                            "end": end,
                            "self": own,
                            "depth": depth,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """What untraced code paths hold: spans and counts do nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, amount: float = 1.0) -> None:
        pass


NULL = NullTracer()


# -- probes: counts taken at the same boundaries as the spans ----------------

_BATCH_COUNTERS = ("microbatches", "total_tokens", "padded_tokens")


def _attention_context(tracer: Tracer, args, kwargs):
    """Real T x T context multiply-adds against the T x ctx_pad_to done."""
    attention = args[0]
    mask = np.asarray(args[2] if len(args) > 2 else kwargs["mask"])
    batch, width = mask.shape
    pad = attention.ctx_pad_to
    contraction = pad if pad is not None and width <= pad else width
    lengths = mask.sum(axis=1, dtype=np.float64)
    tracer.count("nn.context_useful", float((lengths * lengths).sum()))
    tracer.count("nn.context_computed", float(batch * width * contraction))
    return None


def _batch_counters(tracer: Tracer, args, kwargs):
    """Microbatch and token counts the call adds to its ``counters``."""
    counters = kwargs.get("counters")
    if counters is None:
        return None
    before = {key: counters.get(key) for key in _BATCH_COUNTERS}

    def after(result) -> None:
        for key in _BATCH_COUNTERS:
            tracer.count(f"models.{key}", counters.get(key) - before[key])

    return after


def _bpe_cache(tracer: Tracer, args, kwargs):
    """Word-cache hits and misses of one ``BpeTokenizer.encode`` call."""
    tokenizer = args[0]
    before = tokenizer.cache_info()

    def after(result) -> None:
        info = tokenizer.cache_info()
        tracer.count("text.bpe_hits", info["hits"] - before["hits"])
        tracer.count("text.bpe_misses", info["misses"] - before["misses"])

    return after


def _broadcast_size(tracer: Tracer, args, kwargs):
    return lambda broadcast: tracer.count(
        "runtime.broadcast_bytes", broadcast.num_bytes
    )


def _journal_commit(tracer: Tracer, args, kwargs):
    tracer.count("runtime.journal_commits")
    return None


def targets() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, probe)`` of every traced callable.

    Module-level functions are patched in the namespace of the module
    that calls them (``repro.nn.attention.masked_softmax``), because that
    is the name the caller looks up.
    """
    module = importlib.import_module
    attention = module("repro.nn.attention")
    encoder = module("repro.nn.encoder")
    layers = module("repro.nn.layers")
    token = module("repro.models.token_classifier").TokenClassifier
    sequence = module("repro.models.sequence_classifier").SequenceClassifier
    extractor = module("repro.core.extractor")
    parallel = module("repro.runtime.parallel")
    supervisor = module("repro.runtime.supervisor")
    return [
        # nn: inference layers, and the backward pass set-up trains with
        (attention.MultiHeadSelfAttention, "forward", "nn.attention",
         _attention_context),
        (attention, "masked_softmax", "nn.softmax", None),
        (layers.Linear, "forward", "nn.linear", None),
        (layers.LayerNorm, "forward", "nn.layernorm", None),
        (layers.Embedding, "forward", "nn.embedding", None),
        (encoder, "gelu", "nn.gelu", None),
        (encoder, "gelu_grad", "nn.gelu_grad", None),
        (token, "backward", "nn.backward", None),
        (sequence, "backward", "nn.backward", None),
        # models
        (token, "loss_and_backward", "models.train_step", None),
        (sequence, "loss_and_backward", "models.train_step", None),
        (token, "predict_logits", "models.extractor_forward",
         _batch_counters),
        (sequence, "predict_proba", "models.detector_forward",
         _batch_counters),
        # text
        (module("repro.text.normalize").TextNormalizer, "normalize",
         "text.normalize", None),
        (module("repro.text.words").WordTokenizer, "tokenize",
         "text.tokenize", None),
        (module("repro.text.words").WordTokenizer, "words",
         "text.tokenize", None),
        (module("repro.text.bpe").BpeTokenizer, "encode", "text.tokenize",
         _bpe_cache),
        (module("repro.text.bpe").BpeTokenizer, "train", "text.bpe_train",
         None),
        # core
        (extractor.WeakSupervisionExtractor, "prepare_weak_labels",
         "core.weak_label", None),
        (extractor, "constrained_decode", "core.constrained_decode", None),
        (extractor, "pieces_to_word_labels", "core.decode", None),
        (extractor, "decode_details", "core.decode", None),
        # goalspotter
        (module("repro.goalspotter.detector").ObjectiveDetector,
         "predict_proba", "goalspotter.detect", None),
        (extractor.WeakSupervisionExtractor, "extract_batch",
         "goalspotter.extract", None),
        (module("repro.goalspotter.pipeline").GoalSpotter,
         "process_reports", "goalspotter.pipeline", None),
        (module("repro.goalspotter.pipeline").GoalSpotter,
         "process_reports_durable", "goalspotter.pipeline", None),
        # runtime
        (parallel, "broadcast_pipeline", "runtime.broadcast",
         _broadcast_size),
        (parallel, "restore_pipeline", "runtime.broadcast", None),
        (supervisor, "broadcast_pipeline", "runtime.broadcast",
         _broadcast_size),
        (supervisor, "restore_pipeline", "runtime.broadcast", None),
        (module("repro.runtime.journal").RunJournal, "commit_segment",
         "runtime.journal_commit", _journal_commit),
        # storage
        (module("repro.storage.store").ObjectiveStore, "insert_records",
         "storage.insert", None),
    ]


class Instrumentation:
    """Context manager: wrappers in place inside, originals outside."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        for owner, attribute, name, probe in targets():
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                wrapper = classmethod(
                    self.tracer.wrap(original.__func__, name, probe)
                )
            else:
                wrapper = self.tracer.wrap(original, name, probe)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def installed() -> list[str]:
    """Span names of the wrappers currently in place (empty untraced)."""
    found = []
    for owner, attribute, name, __ in targets():
        value = vars(owner)[attribute]
        if hasattr(getattr(value, "__func__", value), MARKER):
            found.append(name)
    return found
