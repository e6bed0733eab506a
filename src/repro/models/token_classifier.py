"""Transformer token classifier: encoder + per-token softmax head.

This is the sequence-labeling model of Section 3.3: the encoder produces
contextual states and a linear head assigns one IOB label per subword piece.
"""

from __future__ import annotations

import numpy as np

from repro.nn.batching import pad_sequences
from repro.nn.encoder import EncoderConfig, TransformerEncoder
from repro.nn.layers import Dropout, Linear
from repro.nn.loss import IGNORE_INDEX, cross_entropy
from repro.nn.module import Module, guard_finite, inference_mode
from repro.runtime import rescache
from repro.runtime.profiling import PerfCounters
from repro.runtime.rescache import ResultCache, result_key
from repro.runtime.scheduler import plan_batches


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

    def enable_quantization(self, mode: str = "int8") -> int:
        """Attach the int8 inference path (see :mod:`repro.nn.quant`).

        Ungated at this level — integration layers that own calibration
        data (``WeakSupervisionExtractor.enable_quantization``, the CLI)
        wrap this in the top-label equivalence gate. Returns the number
        of quantized attachment points.
        """
        from repro.nn.quant import quantize_module

        return quantize_module(self, mode)

    def disable_quantization(self) -> int:
        """Detach the int8 path, restoring bitwise-fp32 forwards."""
        from repro.nn.quant import dequantize_module

        return dequantize_module(self)

    def _cache_variant(self) -> str:
        from repro.nn.quant import quantization_state

        return quantization_state(self) or ""

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

        Sequences are sorted by length and cut into the microbatches of
        least padded work plus per-call cost
        (:func:`~repro.runtime.scheduler.plan_batches`), each under a
        token budget (default ``batch_size * max_len``); results come back
        in the original order and are bitwise-independent of the cuts.
        ``sort_by_length=False`` reproduces naive arrival-order chunks of
        ``batch_size`` rows.

        With ``cache`` (a :class:`~repro.runtime.rescache.ResultCache`),
        each sequence is first looked up by content key — normalized ids
        + model fingerprint + quantization variant — and only the misses
        are planned and computed (duplicate misses within one call run
        the encoder once). Packing invariance makes cache hits
        bitwise-identical to a full uncached run.
        """
        self.eval()
        if not sequences:
            return []
        outputs: list[np.ndarray | None] = [None] * len(sequences)
        effective_len = [
            max(1, min(len(seq), self.config.max_len)) for seq in sequences
        ]
        cached_tokens = 0
        hits = 0
        key_of: dict[int, str] = {}
        groups: dict[str, list[int]] = {}
        if cache is None:
            compute = list(range(len(sequences)))
        else:
            fingerprint = self.fingerprint()
            variant = self._cache_variant()
            compute = []
            for index, seq in enumerate(sequences):
                key = result_key(seq, fingerprint, variant)
                found = cache.get(key)
                if found is not None:
                    outputs[index] = np.array(found, copy=True)
                    hits += 1
                    cached_tokens += effective_len[index]
                else:
                    key_of[index] = key
                    if key not in groups:
                        compute.append(index)
                    groups.setdefault(key, []).append(index)
        plan = None
        evictions = 0
        if compute:
            plan = plan_batches(
                [len(sequences[index]) for index in compute],
                token_budget=token_budget or batch_size * self.config.max_len,
                max_len=self.config.max_len,
                max_rows=None if sort_by_length else batch_size,
                sort_by_length=sort_by_length,
            )
            with inference_mode():
                for microbatch in plan.microbatches:
                    chunk_indices = [
                        compute[position] for position in microbatch.indices
                    ]
                    chunk = [sequences[index] for index in chunk_indices]
                    ids, mask = pad_sequences(
                        chunk,
                        pad_value=self.config.pad_id,
                        width=microbatch.width,
                    )
                    logits = self.forward(ids, mask)
                    for row, index in enumerate(chunk_indices):
                        length = min(len(sequences[index]), microbatch.width)
                        outputs[index] = logits[row, :length].copy()
                        if cache is not None:
                            evictions += cache.put(
                                key_of[index], outputs[index]
                            )
        total_tokens = plan.total_tokens if plan else 0
        if cache is not None:
            # Fan computed results out to intra-call duplicates: same
            # content key means same ids, so the copy is bitwise what a
            # redundant forward would have produced.
            for key, indices in groups.items():
                first = indices[0]
                for index in indices[1:]:
                    outputs[index] = outputs[first].copy()
                    cached_tokens += effective_len[index]
            total_tokens += cached_tokens
        if counters is not None:
            counters.add("sequences", len(sequences))
            counters.add("microbatches", len(plan.microbatches) if plan else 0)
            counters.add("total_tokens", total_tokens)
            counters.add("padded_tokens", plan.padded_tokens if plan else 0)
            if cache is not None:
                counters.add(rescache.HITS, hits)
                counters.add(rescache.MISSES, len(sequences) - hits)
                counters.add(rescache.CACHED_TOKENS, cached_tokens)
                if evictions:
                    counters.add(rescache.EVICTIONS, evictions)
                if not compute:
                    counters.add(rescache.BYPASSES, 1)
        return outputs

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
