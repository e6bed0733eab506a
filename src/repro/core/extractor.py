"""The public weak-supervision detail extractor (the paper's system).

Development phase (``fit``): normalize → word-tokenize → Algorithm 1 weak
labels → BPE-encode → project labels to pieces → fine-tune the transformer.

Production phase (``extract``): normalize → word-tokenize → BPE-encode →
predict piece labels → fold to word labels → decode spans → field values.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import threading
from collections import OrderedDict
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.core.alignment import (
    pieces_to_word_labels,
    word_labels_to_piece_targets,
)
from repro.core.base import DetailExtractor
# Bound under the decode's public name: a per-call span or profiler
# hooked on ``repro.core.extractor.constrained_decode`` times the one
# batched decode each extract call makes.
from repro.core.constrained import (
    constrained_decode_batch as constrained_decode,
)
from repro.core.decoding import decode_details
from repro.core.iob import LabelScheme
from repro.core.matching import (
    ExactMatcher,
    FuzzyMatcher,
    LowercaseMatcher,
    TokenMatcher,
)
from repro.core.schema import SUSTAINABILITY_FIELDS, AnnotatedObjective
from repro.core.weak_labeling import WeakLabelingStats, weakly_label_objective
from repro.models.token_classifier import TokenClassifier
from repro.models.training import FineTuneConfig, fit_token_classifier
from repro.models.zoo import get_model_spec
from repro.nn.encoder import TransformerEncoder
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

_MATCHERS = {
    "exact": ExactMatcher,
    "lowercase": LowercaseMatcher,
    "fuzzy": FuzzyMatcher,
}


@dataclasses.dataclass(frozen=True)
class ExtractorConfig:
    """Configuration of :class:`WeakSupervisionExtractor`.

    Defaults mirror the paper's prototype (Section 3.3) plus the measured
    best recipe on this substrate: RoBERTa-style encoder, 10 epochs, Adam,
    batch size 16, exact matching in Algorithm 1, all-piece subword
    supervision, O-class down-weighting, and IOB-constrained decoding
    (each ablated in ``benchmarks/bench_ablation_weak_labeling.py``).
    """

    fields: tuple[str, ...] = SUSTAINABILITY_FIELDS
    model: str = "roberta"
    finetune: FineTuneConfig = dataclasses.field(default_factory=FineTuneConfig)
    matcher: str = "exact"
    subword_strategy: str = "all"
    span_policy: str = "longest"
    constrained_decoding: bool = True
    outside_weight: float = 0.35
    max_len: int = 96
    num_merges: int = 600
    normalize: bool = True
    seed: int = 13
    #: Production batching: "bucketed" length-sorts sequences and cuts
    #: them into least-cost microbatches of at most ``token_budget``
    #: padded tokens; "arrival" keeps the naive fixed-row chunking (the
    #: pre-runtime behaviour).
    batching: str = "bucketed"
    token_budget: int = 4096
    #: Content-addressed result cache over ``predict_logits``: 0 disables
    #: it (the default — identical behaviour to earlier releases), any
    #: positive value bounds the number of cached per-sequence results.
    result_cache_capacity: int = 0
    #: Seed of the cache's deterministic random-replacement eviction.
    result_cache_seed: int = 0

    def __post_init__(self) -> None:
        if not self.fields:
            raise ValueError("fields must be non-empty")
        if self.matcher not in _MATCHERS:
            raise ValueError(
                f"unknown matcher {self.matcher!r}; use {sorted(_MATCHERS)}"
            )
        if self.outside_weight <= 0:
            raise ValueError("outside_weight must be positive")
        if self.batching not in ("bucketed", "arrival"):
            raise ValueError(
                f"unknown batching {self.batching!r}; "
                "use 'bucketed' or 'arrival'"
            )
        if self.token_budget <= 0:
            raise ValueError("token_budget must be positive")
        if self.result_cache_capacity < 0:
            raise ValueError("result_cache_capacity must be >= 0")

    def build_matcher(self) -> TokenMatcher:
        return _MATCHERS[self.matcher]()


class WeakSupervisionExtractor(DetailExtractor):
    """Weakly supervised transformer extractor — the paper's contribution.

    Example:
        >>> extractor = WeakSupervisionExtractor()
        >>> extractor.fit(training_objectives)      # doctest: +SKIP
        >>> extractor.extract("Reduce waste by 20% by 2030")  # doctest: +SKIP
        {'Action': 'Reduce', 'Amount': '20%', 'Qualifier': 'waste',
         'Baseline': '', 'Deadline': '2030'}
    """

    name = "GoalSpotter"

    def __init__(
        self,
        config: ExtractorConfig | None = None,
        tokenizer: BpeTokenizer | None = None,
        pretrained_encoder: TransformerEncoder | None = None,
    ) -> None:
        self.config = config or ExtractorConfig()
        self.scheme = LabelScheme(self.config.fields)
        self.normalizer = TextNormalizer()
        self.word_tokenizer = WordTokenizer()
        self.matcher = self.config.build_matcher()
        self.tokenizer = tokenizer
        self._pretrained_encoder = pretrained_encoder
        self.model: TokenClassifier | None = None
        #: Weak-labeling coverage stats from the last ``fit`` call.
        self.weak_stats = WeakLabelingStats()
        self.loss_history: list[float] = []
        #: Runtime observability from the last *completed* ``extract_batch``
        #: call. Under concurrent serving workers overlapping calls each
        #: publish here last-writer-wins; ``total_run_stats`` below is the
        #: merge-safe aggregate that never loses a run.
        self.last_run_stats: RunStats | None = None
        #: Merged stats across every ``extract_batch`` call (lock-guarded).
        self.total_run_stats = RunStats()
        #: Optional chaos hooks (``repro.runtime.resilience.FaultInjector``):
        #: checked at the "tokenize" and "forward" stages of extract_batch.
        self.fault_injector = None
        self._normalize_cache: OrderedDict[str, str] = OrderedDict()
        self._normalize_cache_size = 4096
        #: Content-addressed result cache (lazily built from the config;
        #: the CLI replaces ``self.config`` after construction, so the
        #: cache resolves against the *current* capacity/seed per call).
        self._result_cache: ResultCache | None = None
        self._result_cache_key: tuple[int, int] | None = None
        # Shared by concurrent serving workers: the OrderedDict LRU
        # reorder/evict and hit/miss counters mutate under this lock.
        self._normalize_lock = threading.Lock()
        self._normalize_hits = 0
        self._normalize_misses = 0
        self._stats_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Parallel shard workers receive a copy of the extractor; locks
        # don't pickle and caches are value-transparent, so the copy
        # starts with fresh ones (results are unaffected).
        state = self.__dict__.copy()
        del state["_normalize_lock"]
        del state["_stats_lock"]
        state["_normalize_cache"] = OrderedDict()
        state["_normalize_hits"] = 0
        state["_normalize_misses"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._normalize_lock = threading.Lock()
        self._stats_lock = threading.Lock()

    def build_model(self, encoder_config=None) -> TokenClassifier:
        """A freshly initialized token classifier shaped for this config.

        Requires a fitted tokenizer (the vocabulary fixes the embedding
        shape). ``encoder_config`` overrides the model-zoo-derived encoder
        geometry — the parallel runtime's broadcast passes the fitted
        model's actual config so pretrained/distilled encoders rebuild
        with the right shapes. Used by :meth:`load` and the broadcast
        restore path; weights are expected to be loaded over the top.
        """
        if self.tokenizer is None:
            raise RuntimeError("tokenizer is not fitted; call fit() first")
        if encoder_config is None:
            spec = get_model_spec(self.config.model)
            encoder_config = spec.encoder_config(
                len(self.tokenizer.vocab), self.config.max_len
            )
        rng = np.random.default_rng(self.config.seed)
        return TokenClassifier(encoder_config, len(self.scheme), rng)

    # -- development phase -------------------------------------------------

    def _normalize(self, text: str) -> str:
        return self.normalizer(text) if self.config.normalize else text

    def _normalize_cached(self, text: str) -> str:
        """Production-path normalization with a bounded LRU memo.

        Report corpora repeat blocks (headers, boilerplate objectives), so
        the production path memoizes normalization; ``fit`` keeps the
        uncached :meth:`_normalize` since training corpora are seen once.
        """
        if not self.config.normalize:
            return text
        with self._normalize_lock:
            cached = self._normalize_cache.get(text)
            if cached is not None:
                self._normalize_cache.move_to_end(text)
                self._normalize_hits += 1
                return cached
        # Compute before counting/caching so a raised fault leaves the
        # cache and its hit/miss accounting untouched (and concurrent
        # duplicate misses write identical values — harmless).
        normalized = self.normalizer(text)
        with self._normalize_lock:
            self._normalize_misses += 1
            self._normalize_cache[text] = normalized
            if len(self._normalize_cache) > self._normalize_cache_size:
                self._normalize_cache.popitem(last=False)
        return normalized

    def _normalize_objective(
        self, objective: AnnotatedObjective
    ) -> AnnotatedObjective:
        if not self.config.normalize:
            return objective
        return AnnotatedObjective(
            text=self._normalize(objective.text),
            details={
                field: self._normalize(value)
                for field, value in objective.details.items()
            },
            company=objective.company,
            report_id=objective.report_id,
        )

    def prepare_weak_labels(
        self, objectives: Sequence[AnnotatedObjective]
    ) -> tuple[list[list[str]], list[list[str]]]:
        """Step 1+2 of the development phase (tokenize + Algorithm 1).

        Returns parallel lists of word sequences and IOB label sequences.
        Exposed publicly so the weak-labeling quality can be inspected and
        benchmarked independently of model training.
        """
        word_sequences: list[list[str]] = []
        label_sequences: list[list[str]] = []
        self.weak_stats = WeakLabelingStats()
        for objective in objectives:
            normalized = self._normalize_objective(objective)
            tokens, labels = weakly_label_objective(
                normalized,
                word_tokenizer=self.word_tokenizer,
                matcher=self.matcher,
                stats=self.weak_stats,
            )
            word_sequences.append([token.text for token in tokens])
            label_sequences.append(labels)
        return word_sequences, label_sequences

    def fit(
        self,
        objectives: Sequence[AnnotatedObjective],
        checkpoint: CheckpointManager | None = None,
    ) -> "WeakSupervisionExtractor":
        if not objectives:
            raise ValueError("cannot fit on an empty objective set")
        word_sequences, label_sequences = self.prepare_weak_labels(objectives)

        if self.tokenizer is None:
            corpus = (word for words in word_sequences for word in words)
            self.tokenizer = BpeTokenizer.train(
                corpus, num_merges=self.config.num_merges
            )

        piece_sequences: list[list[int]] = []
        target_sequences: list[list[int]] = []
        for words, labels in zip(word_sequences, label_sequences):
            encoding = self.tokenizer.encode(words)
            piece_sequences.append(list(encoding.ids))
            target_sequences.append(
                word_labels_to_piece_targets(
                    labels,
                    encoding.word_ids,
                    self.scheme,
                    self.config.subword_strategy,
                )
            )

        rng = np.random.default_rng(self.config.seed)
        spec = get_model_spec(self.config.model)
        encoder_config = spec.encoder_config(
            len(self.tokenizer.vocab), self.config.max_len
        )
        if self._pretrained_encoder is not None:
            if self._pretrained_encoder.config.vocab_size != len(
                self.tokenizer.vocab
            ):
                raise ValueError(
                    "pretrained encoder vocabulary does not match tokenizer"
                )
            encoder = self._pretrained_encoder
            encoder_config = encoder.config
        else:
            encoder = TransformerEncoder(encoder_config, rng)
        self.model = TokenClassifier(
            encoder_config, len(self.scheme), rng, encoder=encoder
        )
        class_weights = np.ones(len(self.scheme))
        class_weights[self.scheme.id_of("O")] = self.config.outside_weight
        self.loss_history = fit_token_classifier(
            self.model,
            piece_sequences,
            target_sequences,
            self.config.finetune,
            class_weights=class_weights,
            checkpoint=checkpoint,
        )
        return self

    # -- production phase -----------------------------------------------------

    def extract(self, text: str) -> dict[str, str]:
        return self.extract_batch([text])[0]

    @property
    def result_cache(self) -> ResultCache | None:
        """The active result cache (``None`` while capacity is 0)."""
        return self._resolve_result_cache()

    def _resolve_result_cache(self) -> ResultCache | None:
        """Build/rebuild the result cache to match the current config.

        Lazy because the CLI (and tests) swap ``self.config`` after
        construction; a capacity/seed change drops the old cache — stale
        entries under a different eviction stream would make statistics
        irreproducible.
        """
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

    def _predict_kwargs(self, counters: PerfCounters) -> dict:
        bucketed = self.config.batching == "bucketed"
        return {
            "token_budget": self.config.token_budget if bucketed else None,
            "sort_by_length": bucketed,
            "counters": counters,
            "cache": self._resolve_result_cache(),
        }

    def extract_batch(self, texts: Sequence[str]) -> list[dict[str, str]]:
        if self.model is None or self.tokenizer is None:
            raise RuntimeError("extractor is not fitted; call fit() first")
        counters = PerfCounters()
        cache_before = self.tokenizer.cache_info()
        with counters.timer("wall_seconds"):
            with counters.timer("normalize_seconds"):
                normalized = [self._normalize_cached(text) for text in texts]
            with counters.timer("tokenize_seconds"):
                if self.fault_injector is not None:
                    self.fault_injector.check("tokenize")
                token_lists = [
                    self.word_tokenizer.tokenize(text) for text in normalized
                ]
                encodings = [
                    self.tokenizer.encode([token.text for token in tokens])
                    if tokens
                    else None
                    for tokens in token_lists
                ]
            sequences = [
                list(encoding.ids) for encoding in encodings if encoding
            ]
            with counters.timer("model_seconds"):
                if self.fault_injector is not None:
                    self.fault_injector.check("forward")
                if self.config.constrained_decoding:
                    prediction_list = constrained_decode(
                        self.model.predict_logits(
                            sequences, **self._predict_kwargs(counters)
                        ),
                        self.scheme,
                    )
                else:
                    prediction_list = self.model.predict(
                        sequences, **self._predict_kwargs(counters)
                    )
            with counters.timer("decode_seconds"):
                predictions = iter(prediction_list)
                results: list[dict[str, str]] = []
                for text, tokens, encoding in zip(
                    normalized, token_lists, encodings
                ):
                    if encoding is None:
                        results.append(
                            {field: "" for field in self.config.fields}
                        )
                        continue
                    piece_labels = next(predictions)
                    word_labels = pieces_to_word_labels(
                        piece_labels,
                        encoding.word_ids[: len(piece_labels)],
                        self.scheme,
                        num_words=len(tokens),
                    )
                    results.append(
                        decode_details(
                            text,
                            tokens,
                            word_labels,
                            self.config.fields,
                            span_policy=self.config.span_policy,
                        )
                    )
        cache_after = self.tokenizer.cache_info()
        with self._normalize_lock:
            normalize_hits = float(self._normalize_hits)
            normalize_misses = float(self._normalize_misses)
        stats = RunStats.from_counters(
            counters,
            wall_seconds=counters.get("wall_seconds"),
            bpe_cache_hits=cache_after["hits"] - cache_before["hits"],
            bpe_cache_misses=cache_after["misses"] - cache_before["misses"],
            extra={
                "normalize_cache_hits": normalize_hits,
                "normalize_cache_misses": normalize_misses,
            },
        )
        with self._stats_lock:
            self.last_run_stats = stats
            self.total_run_stats = self.total_run_stats.merge(stats)
        return results

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Persist config, tokenizer, and model weights to a directory.

        Atomic end-to-end: everything (including a checksum manifest) is
        written to a sibling temp directory, fsynced, and renamed into
        place, so a crash mid-save never leaves a half-written model
        directory behind. Fault-injection sites: ``save`` on entry,
        ``save_commit`` between the full write and the publish rename.
        """
        if self.model is None or self.tokenizer is None:
            raise RuntimeError("cannot save an unfitted extractor")
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
            kind="weak_supervision_extractor",
        )
        if self.fault_injector is not None:
            self.fault_injector.check("save_commit")
        replace_dir(tmp, directory)

    @classmethod
    def load(cls, directory: str | Path) -> "WeakSupervisionExtractor":
        """Restore an extractor saved with :meth:`save`.

        Verifies integrity before trusting bytes: when the directory has a
        manifest every artifact is checksummed against it, and any missing,
        truncated, corrupt, or mismatched artifact raises a typed
        :class:`~repro.runtime.errors.ArtifactError` (directories from
        pre-manifest saves still load, with per-file checks only).
        """
        directory = Path(directory)
        manifest = verify_manifest(
            directory, kind="weak_supervision_extractor", required=False
        )
        artifacts = (manifest or {}).get("artifacts", {})
        payload = read_json(directory / "config.json")
        # Older saves carry a ``quantize`` key (null or "int8") from the
        # removed int8 path; their weights are the fp32 masters, so they
        # load as fp32.
        payload.pop("quantize", None)
        try:
            finetune = FineTuneConfig(**payload.pop("finetune"))
            payload["fields"] = tuple(payload["fields"])
            config = ExtractorConfig(finetune=finetune, **payload)
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ArtifactError(
                f"extractor config is malformed: {error}",
                path=str(directory / "config.json"),
            ) from error
        tokenizer = BpeTokenizer.load(directory / "tokenizer.json")
        extractor = cls(config, tokenizer=tokenizer)
        extractor.model = extractor.build_model()
        load_state(
            extractor.model,
            directory / "model.npz",
            expected_sha256=artifacts.get("model.npz", {}).get("sha256"),
        )
        return extractor
