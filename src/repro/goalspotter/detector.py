"""Objective detection: text classification over report blocks.

Follows GoalSpotter's formulation: each text block is classified as
*objective* or *noise* with a fine-tuned transformer sequence classifier
(mean-pooled encoder states + linear head on our substrate).
"""

from __future__ import annotations

import dataclasses
import threading
from collections.abc import Sequence

import numpy as np

from repro.models.sequence_classifier import SequenceClassifier
from repro.models.training import FineTuneConfig, fit_sequence_classifier
from repro.nn.encoder import EncoderConfig
from repro.runtime.profiling import PerfCounters, RunStats
from repro.runtime.rescache import ResultCache
from repro.text.bpe import BpeTokenizer
from repro.text.normalize import TextNormalizer
from repro.text.words import WordTokenizer

NOISE, OBJECTIVE = 0, 1


@dataclasses.dataclass(frozen=True)
class DetectorConfig:
    """Detector hyperparameters (small encoder; blocks are short)."""

    dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    max_len: int = 96
    dropout: float = 0.1
    num_merges: int = 500
    finetune: FineTuneConfig = dataclasses.field(
        default_factory=lambda: FineTuneConfig(epochs=4, learning_rate=1e-3)
    )
    threshold: float = 0.5
    seed: int = 13
    #: Content-addressed result cache over ``predict_proba`` (0 = off).
    result_cache_capacity: int = 0
    #: Seed of the cache's deterministic random-replacement eviction.
    result_cache_seed: int = 0

    def __post_init__(self) -> None:
        if self.result_cache_capacity < 0:
            raise ValueError("result_cache_capacity must be >= 0")


class ObjectiveDetector:
    """Binary classifier: does a text block contain an objective?"""

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config or DetectorConfig()
        self.normalizer = TextNormalizer()
        self.word_tokenizer = WordTokenizer()
        self.tokenizer: BpeTokenizer | None = None
        self.model: SequenceClassifier | None = None
        #: Runtime observability from the last *completed* ``predict_proba``
        #: call (last-writer-wins under concurrency; see total_run_stats).
        self.last_run_stats: RunStats | None = None
        #: Merged stats across every ``predict_proba`` call (lock-guarded).
        self.total_run_stats = RunStats()
        #: Content-addressed probability-row cache (None while capacity
        #: is 0). Built eagerly — DetectorConfig is fixed at construction.
        self.result_cache: ResultCache | None = (
            ResultCache(
                capacity=self.config.result_cache_capacity,
                seed=self.config.result_cache_seed,
            )
            if self.config.result_cache_capacity > 0
            else None
        )
        self._stats_lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_stats_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()

    def build_model(
        self, encoder_config: EncoderConfig | None = None
    ) -> SequenceClassifier:
        """A freshly initialized classifier shaped for this detector.

        Requires a fitted tokenizer (the vocabulary fixes the embedding
        shape). Used by :meth:`fit` and by the parallel runtime's model
        broadcast to rebuild the module skeleton before loading state;
        ``encoder_config`` overrides the config-derived encoder geometry.
        """
        if self.tokenizer is None:
            raise RuntimeError("tokenizer is not fitted; call fit() first")
        rng = np.random.default_rng(self.config.seed)
        if encoder_config is None:
            encoder_config = EncoderConfig(
                vocab_size=len(self.tokenizer.vocab),
                dim=self.config.dim,
                num_layers=self.config.num_layers,
                num_heads=self.config.num_heads,
                ffn_dim=self.config.ffn_dim,
                max_len=self.config.max_len,
                dropout=self.config.dropout,
            )
        return SequenceClassifier(encoder_config, 2, rng)

    def _encode(self, texts: Sequence[str]) -> list[list[int]]:
        """Id sequences for ``texts``; each distinct text is encoded once.

        Repeated texts share one (read-only) ids list.
        """
        assert self.tokenizer is not None
        ids_of: dict[str, list[int]] = {}
        sequences: list[list[int]] = []
        for text in texts:
            ids = ids_of.get(text)
            if ids is None:
                words = self.word_tokenizer.words(self.normalizer(text))
                ids = list(self.tokenizer.encode(words or ["."]).ids)
                ids_of[text] = ids
            sequences.append(ids)
        return sequences

    def fit(
        self, texts: Sequence[str], labels: Sequence[int]
    ) -> "ObjectiveDetector":
        """Train on blocks with binary labels (1 = objective)."""
        if len(texts) != len(labels):
            raise ValueError("texts and labels must be parallel")
        if not texts:
            raise ValueError("cannot fit a detector on no blocks")
        corpus = (
            word
            for text in texts
            for word in self.word_tokenizer.words(self.normalizer(text))
        )
        self.tokenizer = BpeTokenizer.train(
            corpus, num_merges=self.config.num_merges
        )
        self.model = self.build_model()
        fit_sequence_classifier(
            self.model,
            self._encode(texts),
            list(labels),
            self.config.finetune,
        )
        return self

    def predict_proba(self, texts: Sequence[str]) -> np.ndarray:
        """P(objective) for each block (length-bucketed scoring)."""
        if self.model is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        counters = PerfCounters()
        with counters.timer("wall_seconds"):
            with counters.timer("tokenize_seconds"):
                sequences = self._encode(texts)
            with counters.timer("model_seconds"):
                probabilities = self.model.predict_proba(
                    sequences, counters=counters, cache=self.result_cache
                )
        stats = RunStats.from_counters(
            counters, wall_seconds=counters.get("wall_seconds")
        )
        with self._stats_lock:
            self.last_run_stats = stats
            self.total_run_stats = self.total_run_stats.merge(stats)
        return probabilities[:, OBJECTIVE]

    def predict(self, texts: Sequence[str]) -> np.ndarray:
        """Boolean objective mask for each block."""
        return self.predict_proba(texts) >= self.config.threshold
