"""Transformer sequence classifier (GoalSpotter's detection model).

GoalSpotter formulates objective detection as text classification over report
blocks. This model mean-pools the encoder states over real tokens and applies
a linear classification head.
"""

from __future__ import annotations

import numpy as np

from repro.nn import precision
from repro.nn.batching import pad_sequences
from repro.nn.encoder import EncoderConfig, TransformerEncoder
from repro.nn.layers import Dropout, Linear
from repro.nn.loss import cross_entropy
from repro.nn.module import Module, guard_finite, inference_mode
from repro.runtime import rescache
from repro.runtime.profiling import PerfCounters
from repro.runtime.rescache import ResultCache, result_key
from repro.runtime.scheduler import plan_batches


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

    def enable_quantization(self, mode: str = "int8") -> int:
        """Attach the int8 inference path (see :mod:`repro.nn.quant`).

        Ungated at this level — integration layers that own calibration
        data wrap this in the top-label equivalence gate. Returns the
        number of quantized attachment points.
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

        Uses the same cost-optimal length-sorted planner as the token
        classifier (token budget defaults to ``batch_size * max_len``);
        rows come back in the original sequence order. With ``cache``,
        probability rows are looked up by content key (ids + model
        fingerprint + quantization variant) and only the misses are
        planned and computed; width-invariant pooling makes hits
        bitwise-identical to a full uncached run.
        """
        from repro.nn.functional import softmax

        self.eval()
        if not sequences:
            return np.zeros((0, self.num_classes), dtype=precision.dtype())
        out = np.zeros((len(sequences), self.num_classes), dtype=precision.dtype())
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
                    out[index] = found
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
                    out[chunk_indices] = softmax(
                        self.forward(ids, mask), axis=-1
                    )
                    if cache is not None:
                        for index in chunk_indices:
                            evictions += cache.put(
                                key_of[index], out[index]
                            )
        total_tokens = plan.total_tokens if plan else 0
        if cache is not None:
            # Fan computed rows out to intra-call duplicates (same key
            # means same ids, so the copy is what a redundant forward
            # would have produced).
            for key, indices in groups.items():
                first = indices[0]
                for index in indices[1:]:
                    out[index] = out[first]
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
        return out

    def predict(
        self, sequences: list[list[int]], batch_size: int = 64, **kwargs
    ) -> np.ndarray:
        """Hard class predictions for each id sequence."""
        return self.predict_proba(sequences, batch_size, **kwargs).argmax(axis=-1)
