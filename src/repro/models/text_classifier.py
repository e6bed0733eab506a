"""N-way weak-label text classification over sustainability sentences.

The classification tenants of the task registry (ClimateBERT-NetZero-style
target classification, initiative sentence classification) need the same
substrate contracts as the extractor — bucketed batching, the
content-addressed result cache, checkpointed fine-tuning, model broadcast
for parallel shards, and manifest-verified persistence — but over a
sequence-level label head instead of token labels. This module is that
head: :class:`ObjectiveDetector` generalized from binary to N named
labels, with the extractor's save/load and fault-injection surfaces.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import threading
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.models.sequence_classifier import SequenceClassifier
from repro.models.training import FineTuneConfig, fit_sequence_classifier
from repro.nn.encoder import EncoderConfig
from repro.nn.serialize import load_state, save_state
from repro.runtime.checkpoint import (
    CheckpointManager,
    read_json,
    replace_dir,
    verify_manifest,
    write_manifest,
)
from repro.runtime.errors import ArtifactError
from repro.runtime.profiling import PerfCounters, RunStats
from repro.runtime.rescache import ResultCache
from repro.text.bpe import BpeTokenizer
from repro.text.normalize import TextNormalizer
from repro.text.words import WordTokenizer

MANIFEST_KIND = "text_label_classifier"


def classification_rows(
    labels: Sequence[str], probabilities: np.ndarray
) -> list[dict[str, str]]:
    """Fold probability rows into the registry's classification rows.

    One ``{"Label": name, "Score": repr(prob)}`` dict per input row —
    ``repr`` round-trips the winning probability exactly, so string
    equality of rows is bitwise equality of the scores. Shared by
    :class:`repro.tasks.models.ClassificationModel` and the durable-run
    segment workers, which must produce byte-identical rows from a
    broadcast-restored classifier.
    """
    rows: list[dict[str, str]] = []
    for row in probabilities:
        best = int(np.argmax(row))
        rows.append({"Label": labels[best], "Score": repr(float(row[best]))})
    return rows


@dataclasses.dataclass(frozen=True)
class TextClassifierConfig:
    """Configuration of :class:`TextLabelClassifier`.

    ``labels`` names the classes in id order — predictions, weak votes,
    and saved models all use this order, so it is part of the persisted
    configuration. The remaining knobs mirror the detector/extractor
    configs so the runtime contracts (bucketed batching under a token
    budget, content-addressed result caching) carry over unchanged.
    """

    labels: tuple[str, ...]
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
    seed: int = 13
    #: "bucketed" length-sorts sequences and cuts them into least-cost
    #: microbatches of at most ``token_budget`` padded tokens; "arrival"
    #: keeps fixed-row chunks.
    batching: str = "bucketed"
    token_budget: int = 4096
    #: Content-addressed result cache over ``predict_proba`` (0 = off).
    result_cache_capacity: int = 0
    #: Seed of the cache's deterministic random-replacement eviction.
    result_cache_seed: int = 0

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise ValueError("labels must name at least two classes")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if self.batching not in ("bucketed", "arrival"):
            raise ValueError(
                f"unknown batching {self.batching!r}; "
                "use 'bucketed' or 'arrival'"
            )
        if self.token_budget <= 0:
            raise ValueError("token_budget must be positive")
        if self.result_cache_capacity < 0:
            raise ValueError("result_cache_capacity must be >= 0")


class TextLabelClassifier:
    """Fine-tuned N-way sentence classifier with named labels.

    Carries the full substrate contract: bitwise packing-invariant
    ``predict_proba`` (so batched == sequential == sharded), an optional
    content-addressed result cache whose hits are bitwise-identical to
    recomputation, checkpointed training through
    :func:`fit_sequence_classifier`, ``build_model`` for the parallel
    runtime's model broadcast, and manifest-verified atomic ``save``.
    """

    def __init__(self, config: TextClassifierConfig) -> None:
        self.config = config
        self.normalizer = TextNormalizer()
        self.word_tokenizer = WordTokenizer()
        self.tokenizer: BpeTokenizer | None = None
        self.model: SequenceClassifier | None = None
        self.loss_history: list[float] = []
        #: Runtime observability from the last completed ``predict_proba``
        #: call (last-writer-wins); ``total_run_stats`` merges every call.
        self.last_run_stats: RunStats | None = None
        self.total_run_stats = RunStats()
        #: Optional chaos hooks (``repro.runtime.resilience.FaultInjector``):
        #: checked at the "tokenize" and "forward" stages.
        self.fault_injector = None
        #: Lazily resolved so config swaps (CLI overrides, cache tests)
        #: rebuild the cache against the current capacity/seed.
        self._result_cache: ResultCache | None = None
        self._result_cache_key: tuple[int, int] | None = None
        self._stats_lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_stats_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()

    @property
    def labels(self) -> tuple[str, ...]:
        return self.config.labels

    @property
    def result_cache(self) -> ResultCache | None:
        """The active result cache (``None`` while capacity is 0)."""
        return self._resolve_result_cache()

    def _resolve_result_cache(self) -> ResultCache | None:
        capacity = self.config.result_cache_capacity
        if capacity <= 0:
            self._result_cache = None
            self._result_cache_key = None
            return None
        wanted = (capacity, self.config.result_cache_seed)
        if self._result_cache is None or self._result_cache_key != wanted:
            self._result_cache = ResultCache(
                capacity=capacity, seed=self.config.result_cache_seed
            )
            self._result_cache_key = wanted
        return self._result_cache

    def build_model(
        self, encoder_config: EncoderConfig | None = None
    ) -> SequenceClassifier:
        """A freshly initialized classifier shaped for this config.

        Requires a fitted tokenizer (the vocabulary fixes the embedding
        shape). Used by :meth:`fit`, :meth:`load`, and the parallel
        runtime's broadcast restore; ``encoder_config`` overrides the
        config-derived geometry with the fitted model's actual config.
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
        return SequenceClassifier(encoder_config, len(self.labels), rng)

    def _encode(self, texts: Sequence[str]) -> list[list[int]]:
        assert self.tokenizer is not None
        sequences: list[list[int]] = []
        for text in texts:
            words = self.word_tokenizer.words(self.normalizer(text))
            if not words:
                words = ["."]
            sequences.append(list(self.tokenizer.encode(words).ids))
        return sequences

    def fit(
        self,
        texts: Sequence[str],
        label_ids: Sequence[int],
        checkpoint: CheckpointManager | None = None,
    ) -> "TextLabelClassifier":
        """Train on sentences with integer class labels (id order of
        ``config.labels``); supports the durable checkpoint contract."""
        if len(texts) != len(label_ids):
            raise ValueError("texts and label_ids must be parallel")
        if not texts:
            raise ValueError("cannot fit a classifier on no texts")
        for label in label_ids:
            if not 0 <= int(label) < len(self.labels):
                raise ValueError(
                    f"label id {label!r} outside 0..{len(self.labels) - 1}"
                )
        corpus = (
            word
            for text in texts
            for word in self.word_tokenizer.words(self.normalizer(text))
        )
        self.tokenizer = BpeTokenizer.train(
            corpus, num_merges=self.config.num_merges
        )
        self.model = self.build_model()
        self.loss_history = fit_sequence_classifier(
            self.model,
            self._encode(texts),
            [int(label) for label in label_ids],
            self.config.finetune,
            checkpoint=checkpoint,
        )
        return self

    def _predict_kwargs(self, counters: PerfCounters) -> dict:
        bucketed = self.config.batching == "bucketed"
        return {
            "token_budget": self.config.token_budget if bucketed else None,
            "sort_by_length": bucketed,
            "counters": counters,
            "cache": self._resolve_result_cache(),
        }

    def predict_proba(self, texts: Sequence[str]) -> np.ndarray:
        """``(len(texts), len(labels))`` class probabilities.

        Bitwise-invariant to batch composition and to cache state, which
        is what the cross-task conformance suite asserts.
        """
        if self.model is None:
            raise RuntimeError("classifier is not fitted; call fit() first")
        if not texts:
            return np.zeros((0, len(self.labels)))
        counters = PerfCounters()
        with counters.timer("wall_seconds"):
            with counters.timer("tokenize_seconds"):
                if self.fault_injector is not None:
                    self.fault_injector.check("tokenize")
                sequences = self._encode(texts)
            with counters.timer("model_seconds"):
                if self.fault_injector is not None:
                    self.fault_injector.check("forward")
                probabilities = self.model.predict_proba(
                    sequences, **self._predict_kwargs(counters)
                )
        stats = RunStats.from_counters(
            counters, wall_seconds=counters.get("wall_seconds")
        )
        with self._stats_lock:
            self.last_run_stats = stats
            self.total_run_stats = self.total_run_stats.merge(stats)
        return probabilities

    def predict_labels(self, texts: Sequence[str]) -> list[str]:
        """The argmax label name per text (first label wins exact ties)."""
        probabilities = self.predict_proba(texts)
        return [
            self.labels[int(np.argmax(row))] for row in probabilities
        ]

    # -- persistence -------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Persist config, tokenizer, and weights; atomic with manifest.

        Same contract as :meth:`WeakSupervisionExtractor.save` — full
        write to a sibling temp directory, checksum manifest, rename into
        place. Fault sites: ``save`` on entry, ``save_commit`` before the
        publish rename.
        """
        if self.model is None or self.tokenizer is None:
            raise RuntimeError("cannot save an unfitted classifier")
        if self.fault_injector is not None:
            self.fault_injector.check("save")
        directory = Path(directory)
        directory.parent.mkdir(parents=True, exist_ok=True)
        tmp = directory.with_name(directory.name + ".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        payload = dataclasses.asdict(self.config)
        payload["finetune"] = dataclasses.asdict(self.config.finetune)
        (tmp / "config.json").write_text(
            json.dumps(payload), encoding="utf-8"
        )
        self.tokenizer.save(tmp / "tokenizer.json")
        save_state(self.model, tmp / "model.npz")
        write_manifest(
            tmp,
            ["config.json", "tokenizer.json", "model.npz"],
            kind=MANIFEST_KIND,
        )
        if self.fault_injector is not None:
            self.fault_injector.check("save_commit")
        replace_dir(tmp, directory)

    @classmethod
    def load(cls, directory: str | Path) -> "TextLabelClassifier":
        """Restore a classifier saved with :meth:`save` (verified load)."""
        directory = Path(directory)
        manifest = verify_manifest(
            directory, kind=MANIFEST_KIND, required=False
        )
        artifacts = (manifest or {}).get("artifacts", {})
        payload = read_json(directory / "config.json")
        try:
            finetune = FineTuneConfig(**payload.pop("finetune"))
            payload["labels"] = tuple(payload["labels"])
            config = TextClassifierConfig(finetune=finetune, **payload)
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ArtifactError(
                f"classifier config is malformed: {error}",
                path=str(directory / "config.json"),
            ) from error
        classifier = cls(config)
        classifier.tokenizer = BpeTokenizer.load(directory / "tokenizer.json")
        classifier.model = classifier.build_model()
        load_state(
            classifier.model,
            directory / "model.npz",
            expected_sha256=artifacts.get("model.npz", {}).get("sha256"),
        )
        return classifier
