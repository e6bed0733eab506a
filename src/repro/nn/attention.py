"""Multi-head scaled dot-product self-attention with padding masks."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.functional import masked_softmax
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module, is_inference


class MultiHeadSelfAttention(Module):
    """Standard transformer self-attention.

    Input is ``(batch, time, dim)``; ``mask`` is ``(batch, time)`` with 1 for
    real tokens and 0 for padding. The mask is applied once, inside
    :func:`repro.nn.functional.masked_softmax`: padded keys get the score
    ``MASK_FILL`` there and exactly zero weight.

    The query/key/value projections keep their own ``Linear`` modules (so
    parameter names, initialization, and checkpoints are unchanged) but are
    applied as one fused ``(dim, 3*dim)`` GEMM in both forward and backward:
    concatenating the weights once per call is O(dim^2) against the
    O(batch*time*dim^2) projection itself, and one large GEMM beats three
    small ones. Under :func:`repro.nn.module.inference_mode` the backward
    cache is not built at all.

    ``ctx_pad_to`` pins the contraction length of the attention-weighted
    value sum (``weights @ values``) to a fixed width (typically the
    encoder's ``max_len``). NumPy's stacked matmul regroups its inner
    accumulation depending on the contraction length, so the same sequence
    padded to different bucket widths would otherwise produce logits that
    differ in the last ulp. Padding that one contraction to a constant K
    with exact-zero weights makes the summation order identical for every
    packing, which is what lets the bucketed scheduler promise
    bitwise-identical outputs to the naive arrival-order path. All other
    matmuls contract over fixed model dimensions and need no pinning.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
        ctx_pad_to: int | None = None,
    ) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query_proj = Linear(dim, dim, rng)
        self.key_proj = Linear(dim, dim, rng)
        self.value_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)
        self.attn_dropout = Dropout(dropout, rng)
        self.ctx_pad_to = ctx_pad_to
        self._cache: dict[str, np.ndarray] | None = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, time, __ = x.shape
        x = x.reshape(batch, time, self.num_heads, self.head_dim)
        return x.transpose(0, 2, 1, 3)  # (B, H, T, Dh)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, __, time, __ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, time, self.dim)

    def _fused_qkv_weights(self) -> tuple[np.ndarray, np.ndarray]:
        weight = np.concatenate(
            [
                self.query_proj.weight.value,
                self.key_proj.weight.value,
                self.value_proj.weight.value,
            ],
            axis=1,
        )  # (D, 3D)
        bias = np.concatenate(
            [
                self.query_proj.bias.value,
                self.key_proj.bias.value,
                self.value_proj.bias.value,
            ]
        )
        return weight, bias

    def _context(
        self, weights: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """``weights @ values`` with the contraction length pinned.

        Embedding both operands in zero blocks of width ``ctx_pad_to``
        keeps the inner summation order — and therefore the rounding — of
        every real term independent of the bucket width this batch was
        padded to. The padded tail contributes exact zeros (weights there
        are exactly 0.0), so real rows are unchanged mathematically and
        reproducible bitwise. Both operands are materialized contiguously
        so every packing hits the same matmul kernel.
        """
        batch, heads, time, __ = weights.shape
        target = self.ctx_pad_to
        if target is None or time > target:
            return weights @ np.ascontiguousarray(values)
        padded_weights = np.zeros(
            (batch, heads, time, target), dtype=weights.dtype
        )
        padded_weights[..., :time] = weights
        padded_values = np.zeros(
            (batch, heads, target, self.head_dim), dtype=values.dtype
        )
        padded_values[..., :time, :] = values
        return padded_weights @ padded_values

    def forward(self, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
        fused_weight, fused_bias = self._fused_qkv_weights()
        qkv = x @ fused_weight + fused_bias  # single GEMM for Q, K, V
        dim = self.dim
        raw_q, raw_k, raw_v = (
            qkv[..., :dim], qkv[..., dim : 2 * dim], qkv[..., 2 * dim :]
        )
        queries = self._split_heads(raw_q)
        keys = self._split_heads(raw_k)
        values = self._split_heads(raw_v)

        scale = 1.0 / math.sqrt(self.head_dim)
        scores = queries @ keys.transpose(0, 1, 3, 2)
        scores *= scale
        key_mask = np.asarray(mask)[:, None, None, :]  # (B, 1, 1, T)
        weights = masked_softmax(scores, key_mask)
        weights = self.attn_dropout(weights)
        context = self._context(weights, values)
        out = self.out_proj(self._merge_heads(context))

        if is_inference():
            self._cache = None
        else:
            self._cache = {
                "x": x,
                "fused_weight": fused_weight,
                "queries": queries,
                "keys": keys,
                "values": values,
                "weights": weights,
                "key_mask": key_mask,
                "scale": np.asarray(scale),
            }
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        queries, keys, values = (
            cache["queries"],
            cache["keys"],
            cache["values"],
        )
        weights = cache["weights"]
        scale = float(cache["scale"])

        dcontext_merged = self.out_proj.backward(dout)
        dcontext = self._split_heads(dcontext_merged)

        dweights = dcontext @ values.transpose(0, 1, 3, 2)
        dvalues = weights.transpose(0, 1, 3, 2) @ dcontext
        dweights = self.attn_dropout.backward(dweights)

        # Softmax backward: dS = W * (dW - sum_k dW*W).
        dscores = weights * (
            dweights - np.sum(dweights * weights, axis=-1, keepdims=True)
        )
        # Masked positions had constant scores; their gradient is zero.
        dscores = np.where(cache["key_mask"] > 0, dscores, 0.0)
        dscores = dscores * scale

        dqueries = dscores @ keys
        dkeys = dscores.transpose(0, 1, 3, 2) @ queries

        # Fused projection backward: one GEMM each for the weight gradient
        # and the input gradient, then split back per projection.
        dfused = np.concatenate(
            [
                self._merge_heads(dqueries),
                self._merge_heads(dkeys),
                self._merge_heads(dvalues),
            ],
            axis=-1,
        )  # (B, T, 3D)
        x = cache["x"]
        flat_x = x.reshape(-1, self.dim)
        flat_dfused = dfused.reshape(-1, 3 * self.dim)
        dweight = flat_x.T @ flat_dfused  # (D, 3D)
        dbias = flat_dfused.sum(axis=0)
        dim = self.dim
        dq_w, dk_w, dv_w = (
            dweight[:, :dim], dweight[:, dim : 2 * dim], dweight[:, 2 * dim :]
        )
        dq_b, dk_b, dv_b = dbias[:dim], dbias[dim : 2 * dim], dbias[2 * dim :]
        self.query_proj.weight.grad += dq_w
        self.key_proj.weight.grad += dk_w
        self.value_proj.weight.grad += dv_w
        self.query_proj.bias.grad += dq_b
        self.key_proj.bias.grad += dk_b
        self.value_proj.bias.grad += dv_b
        return dfused @ cache["fused_weight"].T
