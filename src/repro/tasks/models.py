"""Task model wrappers + kind-specific task base classes.

``TaskModel`` gives every workload one uniform fitted-model surface —
``fit``/``run_batch``/``run_batch_parallel``/``run_resilient``/``save``
— regardless of whether the backend is the paper's
:class:`~repro.core.extractor.WeakSupervisionExtractor` or a
:class:`~repro.models.text_classifier.TextLabelClassifier`. The
cross-task conformance suite (``tests/tasks/``) is written entirely
against this surface, which is what lets one parametrized test file gate
every registered task.

Rows are ``dict[str, str]`` keyed by the task's ``fields``:

* extraction rows are the extractor's detail dicts;
* classification rows are ``{"Label": name, "Score": repr(prob)}`` —
  ``repr`` round-trips floats exactly, so string equality of rows is
  bitwise equality of the underlying probabilities.

This module is heavy (numpy, encoders); it is imported lazily by the
task implementation modules, never by ``repro.tasks`` itself.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Sequence
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
from repro.datasets.base import Dataset
from repro.eval.classification import evaluate_classification
from repro.eval.metrics import evaluate_extractions
from repro.models.text_classifier import (
    TextClassifierConfig,
    TextLabelClassifier,
    classification_rows,
)
from repro.models.training import FineTuneConfig
from repro.runtime.errors import InputError
from repro.runtime.parallel import resolve_workers
from repro.runtime.resilience import RetryPolicy
from repro.tasks.base import KIND_CLASSIFICATION, KIND_EXTRACTION, Task
from repro.tasks.weak import KeywordRule, weak_vote

#: Output-row schema shared by every classification task.
CLASSIFICATION_FIELDS = ("Label", "Score")


class TaskModel(abc.ABC):
    """Uniform surface over a task's fitted model.

    Attributes:
        backend: the wrapped estimator (extractor or classifier); the
            escape hatch for backend-specific knobs (``fault_injector``,
            ``result_cache``, config swaps via ``dataclasses.replace``).
    """

    kind: ClassVar[str] = ""
    serving_kind: ClassVar[str] = ""

    def __init__(self, backend, fields: tuple[str, ...]):
        self.backend = backend
        self.fields = tuple(fields)

    # -- shared knobs ------------------------------------------------------

    @property
    def fault_injector(self):
        return self.backend.fault_injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        self.backend.fault_injector = injector

    def empty_row(self) -> dict[str, str]:
        """The degraded-output row: every field empty."""
        return {field: "" for field in self.fields}

    # -- the contract ------------------------------------------------------

    @abc.abstractmethod
    def fit(self, dataset: Dataset, checkpoint=None) -> "TaskModel":
        """Weak-label the dataset and train the backend; returns self."""

    @abc.abstractmethod
    def run_batch(self, texts: Sequence[str]) -> list[dict[str, str]]:
        """One output row per text, in order."""

    def run_batch_parallel(
        self,
        texts: Sequence[str],
        *,
        workers: int | str | None = None,
        num_shards: int | None = None,
    ) -> list[dict[str, str]]:
        """Multiprocess ``run_batch``; bitwise-identical to ``workers=1``."""
        from repro.runtime.supervisor import _run_corpus

        outcomes = _run_corpus(
            self.backend,
            self.kind,
            texts,
            workers=resolve_workers(workers),
            num_shards=num_shards,
        )
        return [
            payload["row"] for outcome in outcomes for payload in outcome.rows
        ]

    @abc.abstractmethod
    def save(self, directory: str | Path) -> None:
        """Atomic manifest-verified save of the fitted backend."""

    @abc.abstractmethod
    def weak_summary(self) -> dict[str, Any]:
        """Coverage stats from the last ``fit``'s weak-labeling pass."""

    # -- degradation ladder ------------------------------------------------

    def run_resilient(
        self,
        texts: Sequence[str],
        *,
        on_error: str = "degrade",
        policy: RetryPolicy | None = None,
        workers: int | str | None = 1,
    ) -> list[tuple[dict[str, str], str]]:
        """Batch inference under the corpus runner's degradation ladder.

        Each shard (one per worker) makes one optimistic batched call; on
        failure its texts are retried one by one, so one poisoned input
        cannot take down its batchmates. Every call retries under
        ``policy`` (None = no retries). Returns ``(row, status)`` pairs
        where status is ``"ok"``, ``"skipped"`` (row omitted semantics)
        or ``"degraded"`` (empty row stands in), as :meth:`run_journaled`.
        """
        from repro.runtime.supervisor import _run_corpus

        outcomes = _run_corpus(
            self.backend,
            self.kind,
            texts,
            workers=resolve_workers(workers),
            mode=on_error,
            fields=self.fields,
            policy=policy,
        )
        return [
            (payload["row"], payload["status"])
            for outcome in outcomes
            for payload in outcome.rows
        ]

    # -- durable runs ------------------------------------------------------

    def run_journaled(
        self,
        texts: Sequence[str],
        run_dir,
        *,
        workers: int = 1,
        resume: bool = True,
        segment_items: int | None = None,
        on_error: str = "raise",
        **kwargs,
    ) -> list[tuple[dict[str, str], str]]:
        """Crash-safe ``run_resilient``: journaled, resumable, supervised.

        Segments of the corpus commit to a run journal in ``run_dir`` as
        they finish (:mod:`repro.runtime.journal`); re-running with the
        same directory and ``resume=True`` skips committed segments and
        returns ``(row, status)`` pairs bitwise-identical to an
        uninterrupted run — for extraction *and* classification tasks
        alike. ``workers>1`` executes under the lease-supervised worker
        pool; extra ``kwargs`` reach
        :func:`repro.runtime.supervisor.run_durable_rows` (``policy``,
        ``config``, ``fault_injector``, ``drain_event``, ...).
        """
        from repro.runtime.supervisor import (
            DEFAULT_SEGMENT_ITEMS,
            run_durable_rows,
        )

        result = run_durable_rows(
            self.backend,
            self.kind,
            list(texts),
            run_dir,
            workers=resolve_workers(workers),
            resume=resume,
            segment_items=segment_items or DEFAULT_SEGMENT_ITEMS,
            on_error=on_error,
            fields=self.fields,
            **kwargs,
        )
        return result.pairs

    # -- serving -----------------------------------------------------------

    def serving_engine(self, **kwargs):
        """A :class:`~repro.serve.ServingEngine` over this model."""
        from repro.serve.engine import ServingEngine

        return ServingEngine.from_task_model(self, **kwargs)

    def fleet_router(self, **kwargs):
        """A :class:`~repro.serve.FleetRouter` fleet over this model."""
        from repro.serve.fleet import FleetRouter

        if self.serving_kind == "detect":
            return FleetRouter(detector=self.backend, **kwargs)
        return FleetRouter(extractor=self.backend, **kwargs)


class ExtractionModel(TaskModel):
    """Task model over the paper's weak-supervision detail extractor."""

    kind = KIND_EXTRACTION
    serving_kind = "extract"

    def __init__(self, extractor: WeakSupervisionExtractor):
        super().__init__(extractor, extractor.config.fields)

    def fit(self, dataset: Dataset, checkpoint=None) -> "ExtractionModel":
        self.backend.fit(list(dataset.objectives), checkpoint=checkpoint)
        return self

    def run_batch(self, texts: Sequence[str]) -> list[dict[str, str]]:
        return self.backend.extract_batch(list(texts))

    def save(self, directory: str | Path) -> None:
        self.backend.save(directory)

    def weak_summary(self) -> dict[str, Any]:
        stats = self.backend.weak_stats
        return {
            "coverage": stats.coverage,
            "annotations_total": stats.annotations_total,
            "annotations_matched": stats.annotations_matched,
        }


class ClassificationModel(TaskModel):
    """Task model that weak-labels sentences with keyword voting and
    trains a :class:`TextLabelClassifier` on the votes."""

    kind = KIND_CLASSIFICATION
    serving_kind = "detect"

    def __init__(
        self,
        classifier: TextLabelClassifier,
        rules: tuple[KeywordRule, ...],
        default_label: str,
    ):
        super().__init__(classifier, CLASSIFICATION_FIELDS)
        self.rules = tuple(rules)
        self.default_label = default_label
        self.weak_stats = None

    @property
    def labels(self) -> tuple[str, ...]:
        return self.backend.labels

    def fit(self, dataset: Dataset, checkpoint=None) -> "ClassificationModel":
        texts = [objective.text for objective in dataset.objectives]
        weak_labels, self.weak_stats = weak_vote(
            texts, self.rules, self.labels, self.default_label
        )
        index = {label: i for i, label in enumerate(self.labels)}
        self.backend.fit(
            texts,
            [index[label] for label in weak_labels],
            checkpoint=checkpoint,
        )
        return self

    def predict_proba(self, texts: Sequence[str]) -> np.ndarray:
        return self.backend.predict_proba(list(texts))

    def run_batch(self, texts: Sequence[str]) -> list[dict[str, str]]:
        return classification_rows(
            self.labels, self.backend.predict_proba(list(texts))
        )

    def save(self, directory: str | Path) -> None:
        self.backend.save(directory)

    def weak_summary(self) -> dict[str, Any]:
        if self.weak_stats is None:
            return {"coverage": 0.0, "total": 0}
        return self.weak_stats.as_dict()


# -- kind-specific Task helpers -------------------------------------------


class ExtractionTask(Task):
    """Base for tasks backed by the weak-supervision detail extractor.

    Subclasses set ``fields``, ``default_size`` and ``dataset_builder``
    (a ``(seed, size)`` callable); everything else — tiny/default model
    profiles, load, weak-label inspection, value-level F1 eval — is
    shared.
    """

    kind = KIND_EXTRACTION

    @staticmethod
    def dataset_builder(seed: int, size: int) -> Dataset:
        raise NotImplementedError

    def build_dataset(self, seed: int = 0, size: int | None = None) -> Dataset:
        return type(self).dataset_builder(
            seed, self.default_size if size is None else size
        )

    def _profile_config(self, profile: str) -> ExtractorConfig:
        if profile == "default":
            return ExtractorConfig(fields=self.fields)
        if profile == "tiny":
            return ExtractorConfig(
                fields=self.fields,
                model="distilbert",
                max_len=64,
                num_merges=150,
                finetune=FineTuneConfig(epochs=2, batch_size=8),
            )
        raise InputError(
            f"unknown model profile {profile!r}; use 'default' or 'tiny'",
            stage="tasks",
        )

    def build_model(self, profile: str = "default", **overrides) -> ExtractionModel:
        config = dataclasses.replace(self._profile_config(profile), **overrides)
        return ExtractionModel(WeakSupervisionExtractor(config))

    def load_model(self, directory: str | Path) -> ExtractionModel:
        return ExtractionModel(WeakSupervisionExtractor.load(directory))

    def weak_label(self, dataset: Dataset) -> dict[str, Any]:
        extractor = WeakSupervisionExtractor(self._profile_config("tiny"))
        extractor.prepare_weak_labels(list(dataset.objectives))
        stats = extractor.weak_stats
        return {
            "coverage": stats.coverage,
            "annotations_total": stats.annotations_total,
            "annotations_matched": stats.annotations_matched,
        }

    def evaluate(self, model: TaskModel, dataset: Dataset) -> dict[str, float]:
        texts = [objective.text for objective in dataset.objectives]
        gold = [objective.details for objective in dataset.objectives]
        report = evaluate_extractions(model.run_batch(texts), gold, self.fields)
        return {
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
        }


class ClassificationTask(Task):
    """Base for keyword-weak-labeled sentence classification tasks.

    Subclasses set ``labels``, ``rules``, ``default_label``,
    ``default_size`` and ``dataset_builder``; the gold label lives in
    each objective's details under ``label_field`` and is only read at
    eval time.
    """

    kind = KIND_CLASSIFICATION
    fields = CLASSIFICATION_FIELDS
    rules: ClassVar[tuple[KeywordRule, ...]] = ()
    default_label: ClassVar[str] = ""
    label_field: ClassVar[str] = "Label"

    @staticmethod
    def dataset_builder(seed: int, size: int) -> Dataset:
        raise NotImplementedError

    def build_dataset(self, seed: int = 0, size: int | None = None) -> Dataset:
        return type(self).dataset_builder(
            seed, self.default_size if size is None else size
        )

    def _profile_config(self, profile: str) -> TextClassifierConfig:
        if profile == "default":
            return TextClassifierConfig(labels=self.labels)
        if profile == "tiny":
            return TextClassifierConfig(
                labels=self.labels,
                dim=32,
                num_layers=1,
                num_heads=4,
                ffn_dim=64,
                max_len=48,
                num_merges=120,
                finetune=FineTuneConfig(epochs=3, batch_size=8),
            )
        raise InputError(
            f"unknown model profile {profile!r}; use 'default' or 'tiny'",
            stage="tasks",
        )

    def build_model(
        self, profile: str = "default", **overrides
    ) -> ClassificationModel:
        config = dataclasses.replace(self._profile_config(profile), **overrides)
        return ClassificationModel(
            TextLabelClassifier(config), self.rules, self.default_label
        )

    def load_model(self, directory: str | Path) -> ClassificationModel:
        return ClassificationModel(
            TextLabelClassifier.load(directory), self.rules, self.default_label
        )

    def weak_label(self, dataset: Dataset) -> dict[str, Any]:
        texts = [objective.text for objective in dataset.objectives]
        weak_labels, stats = weak_vote(
            texts, self.rules, self.labels, self.default_label
        )
        gold = [
            objective.details.get(self.label_field, "")
            for objective in dataset.objectives
        ]
        agreement = sum(
            1 for weak, truth in zip(weak_labels, gold) if weak == truth
        )
        summary = stats.as_dict()
        summary["gold_agreement"] = agreement / len(texts) if texts else 1.0
        return summary

    def evaluate(self, model: TaskModel, dataset: Dataset) -> dict[str, float]:
        texts = [objective.text for objective in dataset.objectives]
        gold = [
            objective.details.get(self.label_field, "")
            for objective in dataset.objectives
        ]
        predicted = [row["Label"] for row in model.run_batch(texts)]
        report = evaluate_classification(predicted, gold, self.labels)
        return {"accuracy": report.accuracy, "macro_f1": report.macro_f1}
