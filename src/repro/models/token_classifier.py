"""Transformer token classifier: encoder + per-token softmax head.

This is the sequence-labeling model of Section 3.3: the encoder produces
contextual states and a linear head assigns one IOB label per subword piece.
"""

from __future__ import annotations

import numpy as np

from repro.nn.encoder import EncoderConfig, TransformerEncoder
from repro.nn.layers import Dropout, Linear
from repro.nn.loss import IGNORE_INDEX, cross_entropy
from repro.nn.module import Module, guard_finite
from repro.runtime.profiling import PerfCounters
from repro.runtime.rescache import ResultCache
from repro.runtime.scheduler import predict_distinct


class TokenClassifier(Module):
    """Per-token classifier over a transformer encoder."""

    def __init__(
        self,
        config: EncoderConfig,
        num_labels: int,
        rng: np.random.Generator,
        encoder: TransformerEncoder | None = None,
    ) -> None:
        super().__init__()
        if num_labels <= 0:
            raise ValueError("num_labels must be positive")
        self.config = config
        self.num_labels = num_labels
        self.encoder = encoder or TransformerEncoder(config, rng)
        self.head_dropout = Dropout(config.dropout, rng)
        self.head = Linear(config.dim, num_labels, rng)

    def forward(self, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Return logits ``(batch, time, num_labels)``."""
        states = self.encoder(ids, mask)
        return guard_finite(
            self.head(self.head_dropout(states)), "token classifier logits"
        )

    def backward(self, dlogits: np.ndarray) -> None:
        dstates = self.head_dropout.backward(self.head.backward(dlogits))
        self.encoder.backward(dstates)

    # -- convenience ---------------------------------------------------------

    def loss_and_backward(
        self,
        ids: np.ndarray,
        mask: np.ndarray,
        labels: np.ndarray,
        class_weights: np.ndarray | None = None,
    ) -> float:
        """Forward + loss + full backward pass; returns the loss value.

        ``labels`` is ``(batch, time)`` with ``IGNORE_INDEX`` on padding and
        on positions that should not contribute (e.g. non-first subword
        pieces when using first-piece label alignment).
        """
        logits = self.forward(ids, mask)
        batch, time, num_labels = logits.shape
        loss, dflat = cross_entropy(
            logits.reshape(batch * time, num_labels),
            np.asarray(labels).reshape(batch * time),
            ignore_index=IGNORE_INDEX,
            class_weights=class_weights,
        )
        self.backward(dflat.reshape(batch, time, num_labels))
        return loss

    def predict_logits(
        self,
        sequences: list[list[int]],
        batch_size: int = 32,
        *,
        token_budget: int | None = None,
        sort_by_length: bool = True,
        counters: PerfCounters | None = None,
        cache: ResultCache | None = None,
    ) -> list[np.ndarray]:
        """Per-token logits ``(len(seq), num_labels)`` per id sequence.

        Each distinct id sequence runs through the encoder once per call;
        duplicates get copies of its logits, bitwise what a redundant
        forward would produce. The distinct sequences are sorted by length
        and cut into the microbatches of least padded work plus per-call
        cost (:func:`~repro.runtime.scheduler.plan_batches`), each under a
        token budget (default ``batch_size * max_len``); results come back
        in the original order and are bitwise-independent of the cuts.
        ``sort_by_length=False`` reproduces naive arrival-order chunks of
        ``batch_size`` rows.

        With ``cache`` (a :class:`~repro.runtime.rescache.ResultCache`),
        each sequence is first looked up by content key — normalized ids
        + model fingerprint — so results also carry over *across* calls. Packing invariance makes cache hits
        bitwise-identical to a full uncached run. Counter meanings are in
        :func:`~repro.runtime.scheduler.predict_distinct`.
        """
        return predict_distinct(
            self,
            sequences,
            self.forward,
            per_token=True,
            batch_size=batch_size,
            token_budget=token_budget,
            sort_by_length=sort_by_length,
            counters=counters,
            cache=cache,
        )

    def predict(
        self,
        sequences: list[list[int]],
        batch_size: int = 32,
        **kwargs,
    ) -> list[np.ndarray]:
        """Predict label ids (per-token argmax) for each id sequence."""
        return [
            logits.argmax(axis=-1)
            for logits in self.predict_logits(sequences, batch_size, **kwargs)
        ]
