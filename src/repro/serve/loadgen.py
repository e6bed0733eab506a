"""Closed-loop load generation and demo backends for the serving tier.

:func:`run_load_level` drives a :class:`~repro.serve.engine.ServingEngine`
(or a :class:`~repro.serve.fleet.FleetRouter`, which shares its submit
contract) with ``concurrency`` synthetic clients that submit back-to-back
(each waits for its result before sending the next request), and reports
client-observed latency percentiles and throughput. Open-loop serving
measurements live in ``perfbench/loadgen.py``, which times each request
from its due time rather than from admission.

Also provides :func:`build_demo_backend`: a deterministic, *untrained*
detector + extractor pair (real tokenizers, real transformer forward
passes, seeded random weights) so the CLI ``serve-fleet`` subcommand and
the serving tests run the true compute path without minutes of
fine-tuning first.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future

import numpy as np

from repro.runtime.errors import OverloadedError
from repro.serve.engine import ServingEngine
from repro.serve.metrics import SLO_QUANTILES, nearest_rank


@dataclasses.dataclass(frozen=True)
class LoadLevel:
    """``concurrency`` closed-loop clients sending ``num_requests`` in all."""

    name: str
    concurrency: int
    num_requests: int

    def __post_init__(self) -> None:
        if self.concurrency <= 0 or self.num_requests <= 0:
            raise ValueError("concurrency and num_requests must be positive")


def build_demo_backend(seed: int = 0, num_objectives: int = 64):
    """A deterministic untrained detector + extractor pair for load tests.

    Both models run the genuine tokenize -> encode -> classify path with
    seeded random weights; outputs are meaningless but bit-deterministic,
    which is exactly what a serving benchmark needs.
    """
    from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
    from repro.datasets.generator import ObjectiveGenerator
    from repro.goalspotter.detector import DetectorConfig, ObjectiveDetector
    from repro.models.sequence_classifier import SequenceClassifier
    from repro.models.token_classifier import TokenClassifier
    from repro.nn.encoder import EncoderConfig
    from repro.text.bpe import BpeTokenizer

    objectives = ObjectiveGenerator(seed=seed).generate_many(num_objectives)
    corpus = [objective.text for objective in objectives]

    extractor = WeakSupervisionExtractor(
        ExtractorConfig(num_merges=200, max_len=48)
    )
    words = [
        token.text
        for text in corpus
        for token in extractor.word_tokenizer.tokenize(
            extractor.normalizer(text)
        )
    ]
    extractor.tokenizer = BpeTokenizer.train(words, num_merges=200)
    rng = np.random.default_rng(seed)
    extractor.model = TokenClassifier(
        EncoderConfig(
            vocab_size=len(extractor.tokenizer.vocab),
            dim=32,
            num_layers=2,
            num_heads=4,
            ffn_dim=64,
            max_len=48,
            dropout=0.0,
        ),
        num_labels=len(extractor.scheme),
        rng=rng,
    )

    detector = ObjectiveDetector(
        DetectorConfig(
            dim=32, num_layers=1, num_heads=4, ffn_dim=64,
            max_len=48, num_merges=200,
        )
    )
    detector_words = [
        word
        for text in corpus
        for word in detector.word_tokenizer.words(detector.normalizer(text))
    ]
    detector.tokenizer = BpeTokenizer.train(detector_words, num_merges=200)
    detector.model = SequenceClassifier(
        EncoderConfig(
            vocab_size=len(detector.tokenizer.vocab),
            dim=32,
            num_layers=1,
            num_heads=4,
            ffn_dim=64,
            max_len=48,
            dropout=0.0,
        ),
        2,
        np.random.default_rng(seed + 1),
    )
    return detector, extractor


def build_swappable_extractor(seed: int = 0, num_objectives: int = 24):
    """An untrained extractor whose ``save()``/``load()`` round-trips.

    :func:`build_demo_backend` hand-shrinks its encoder below the
    model-zoo geometry for speed, but :meth:`WeakSupervisionExtractor.load`
    rebuilds the model from the zoo spec — so demo-backend checkpoints do
    not round-trip. Hot-swap tests and the ``serve-fleet --swap`` CLI
    need a checkpoint that reloads bit-exactly; this builds the real
    (smallest) zoo geometry via :meth:`build_model`. Slower per request
    than the demo backend, so keep request counts modest.
    """
    from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
    from repro.datasets.generator import ObjectiveGenerator
    from repro.text.bpe import BpeTokenizer

    objectives = ObjectiveGenerator(seed=seed).generate_many(num_objectives)
    corpus = [objective.text for objective in objectives]
    extractor = WeakSupervisionExtractor(
        ExtractorConfig(
            model="distilroberta", num_merges=200, max_len=48, seed=seed
        )
    )
    words = [
        token.text
        for text in corpus
        for token in extractor.word_tokenizer.tokenize(
            extractor.normalizer(text)
        )
    ]
    extractor.tokenizer = BpeTokenizer.train(words, num_merges=200)
    extractor.model = extractor.build_model()
    return extractor


def build_request_texts(seed: int, num_texts: int) -> list[str]:
    """A deterministic stream of objective-like request texts."""
    from repro.datasets.generator import ObjectiveGenerator

    objectives = ObjectiveGenerator(seed=seed).generate_many(num_texts)
    return [objective.text for objective in objectives]


def _latency_summary(latencies: list[float]) -> dict[str, float]:
    if not latencies:
        return {
            "count": 0, "mean_seconds": 0.0, "max_seconds": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }
    ordered = sorted(latencies)
    summary = {
        "count": len(ordered),
        "mean_seconds": sum(ordered) / len(ordered),
        "max_seconds": ordered[-1],
    }
    for name, q in SLO_QUANTILES:
        summary[name] = nearest_rank(ordered, q)
    return summary


def _run_closed_loop(
    engine: ServingEngine,
    texts: list[str],
    concurrency: int,
    num_requests: int,
    kind: str,
) -> tuple[list[Future], float, int]:
    cursor_lock = threading.Lock()
    cursor = [0]
    futures: list[Future] = []
    rejected = [0]

    def client() -> None:
        while True:
            with cursor_lock:
                index = cursor[0]
                if index >= num_requests:
                    return
                cursor[0] = index + 1
            text = texts[index % len(texts)]
            try:
                future = engine.submit(kind=kind, texts=text)
            except OverloadedError:
                with cursor_lock:
                    rejected[0] += 1
                continue
            with cursor_lock:
                futures.append(future)
            try:
                future.result(timeout=60.0)
            except Exception:
                pass  # failures are tallied from the futures afterwards

    clients = [
        threading.Thread(target=client, name=f"loadgen-client-{i}")
        for i in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    elapsed = time.perf_counter() - started
    return futures, elapsed, rejected[0]


def run_load_level(
    engine: ServingEngine,
    texts: list[str],
    level: LoadLevel,
    *,
    kind: str = "extract",
) -> dict:
    """Drive one closed-loop level and summarize what the clients saw."""
    futures, elapsed, rejected = _run_closed_loop(
        engine, texts, level.concurrency, level.num_requests, kind
    )
    latencies: list[float] = []
    queue_waits: list[float] = []
    computes: list[float] = []
    batch_rows: list[int] = []
    failed = 0
    for future in futures:
        error = future.exception(timeout=0)
        if error is not None:
            failed += 1
            continue
        result = future.result()
        latencies.append(result.total_seconds)
        queue_waits.append(result.queue_wait_seconds)
        computes.append(result.compute_seconds)
        batch_rows.append(result.batch_size)
    completed = len(latencies)
    return {
        "level": level.name,
        "concurrency": level.concurrency,
        "requests": level.num_requests,
        "completed": completed,
        "rejected": rejected,
        "failed": failed,
        "wall_seconds": elapsed,
        "throughput_rps": completed / elapsed if elapsed > 0 else 0.0,
        "latency": _latency_summary(latencies),
        "queue_wait": _latency_summary(queue_waits),
        "compute": _latency_summary(computes),
        "mean_batch_rows": (
            sum(batch_rows) / len(batch_rows) if batch_rows else 0.0
        ),
    }
