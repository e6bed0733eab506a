"""Transformer sequence classifier (GoalSpotter's detection model).

GoalSpotter formulates objective detection as text classification over report
blocks. This model mean-pools the encoder states over real tokens and applies
a linear classification head.
"""

from __future__ import annotations

import numpy as np

from repro.nn import precision
from repro.nn.encoder import EncoderConfig, TransformerEncoder
from repro.nn.layers import Dropout, Linear
from repro.nn.loss import cross_entropy
from repro.nn.module import Module, guard_finite
from repro.runtime.profiling import PerfCounters
from repro.runtime.rescache import ResultCache
from repro.runtime.scheduler import predict_distinct


class SequenceClassifier(Module):
    """Mean-pooled encoder states -> linear head -> class logits."""

    def __init__(
        self,
        config: EncoderConfig,
        num_classes: int,
        rng: np.random.Generator,
        encoder: TransformerEncoder | None = None,
    ) -> None:
        super().__init__()
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        self.config = config
        self.num_classes = num_classes
        self.encoder = encoder or TransformerEncoder(config, rng)
        self.head_dropout = Dropout(config.dropout, rng)
        # row_invariant: a text's logits must not depend on its batch-mates
        # (see Linear docstring and the serving equivalence contract).
        self.head = Linear(config.dim, num_classes, rng, row_invariant=True)
        self._pool_cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Return logits ``(batch, num_classes)``."""
        states = self.encoder(ids, mask)
        mask = np.asarray(mask, dtype=states.dtype)
        counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        # Width-invariant mean pooling: sum each row over its *real* tokens
        # only. A full-width masked sum ties the floating-point reduction
        # order to the pad width, so the same text pooled in differently
        # packed batches drifts by an ulp — which would break the serving
        # engine's batched-equals-sequential bitwise contract (the encoder
        # itself is already pad-width-invariant).
        pooled = np.stack(
            [
                row_states[row_mask > 0].sum(axis=0)
                if row_mask.any()
                else np.zeros(states.shape[-1], dtype=states.dtype)
                for row_states, row_mask in zip(states, mask)
            ]
        ) / counts
        self._pool_cache = (mask, counts)
        return guard_finite(
            self.head(self.head_dropout(pooled)),
            "sequence classifier logits",
        )

    def backward(self, dlogits: np.ndarray) -> None:
        if self._pool_cache is None:
            raise RuntimeError("backward called before forward")
        mask, counts = self._pool_cache
        dpooled = self.head_dropout.backward(self.head.backward(dlogits))
        dstates = (
            dpooled[:, None, :] * mask[:, :, None] / counts[:, :, None]
        )
        self.encoder.backward(dstates)

    def loss_and_backward(
        self, ids: np.ndarray, mask: np.ndarray, labels: np.ndarray
    ) -> float:
        logits = self.forward(ids, mask)
        loss, dlogits = cross_entropy(logits, np.asarray(labels))
        self.backward(dlogits)
        return loss

    def predict_proba(
        self,
        sequences: list[list[int]],
        batch_size: int = 64,
        *,
        token_budget: int | None = None,
        sort_by_length: bool = True,
        counters: PerfCounters | None = None,
        cache: ResultCache | None = None,
    ) -> np.ndarray:
        """Class probabilities for each id sequence, ``(n, num_classes)``.

        Each distinct id sequence runs through the encoder once per call
        and duplicates get copies of its row. The distinct sequences go
        through the same cost-optimal length-sorted planner as the token
        classifier (token budget defaults to ``batch_size * max_len``);
        rows come back in the original sequence order. With ``cache``,
        probability rows are also looked up by content key (ids + model
        fingerprint) so they carry over *across* calls; width-invariant
        pooling makes hits and copies bitwise-identical to a full uncached
        run.
        """
        from repro.nn.functional import softmax

        if not sequences:
            return np.zeros((0, self.num_classes), dtype=precision.dtype())
        rows = predict_distinct(
            self,
            sequences,
            lambda ids, mask: softmax(self.forward(ids, mask), axis=-1),
            per_token=False,
            batch_size=batch_size,
            token_budget=token_budget,
            sort_by_length=sort_by_length,
            counters=counters,
            cache=cache,
        )
        return np.stack(rows).astype(precision.dtype(), copy=False)

    def predict(
        self, sequences: list[list[int]], batch_size: int = 64, **kwargs
    ) -> np.ndarray:
        """Hard class predictions for each id sequence."""
        return self.predict_proba(sequences, batch_size, **kwargs).argmax(axis=-1)
