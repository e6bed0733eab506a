"""Transformer encoder: embeddings + stacked pre-LN encoder layers.

The paper fine-tunes post-LN BERT/RoBERTa encoders. For small from-scratch
models trained without large-scale pre-training, the pre-LN arrangement is
substantially more stable (no learning-rate warmup cliff), so the encoder
layers here normalize before each sub-block and a final LayerNorm closes the
stack. This changes none of the interfaces the rest of the system relies on.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.nn.functional import gelu, gelu_grad
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.module import Module, guard_finite, is_inference


@dataclasses.dataclass(frozen=True)
class EncoderConfig:
    """Hyperparameters of a transformer encoder."""

    vocab_size: int
    dim: int = 96
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 192
    max_len: int = 96
    dropout: float = 0.1
    pad_id: int = 0

    def __post_init__(self) -> None:
        if self.dim % self.num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        if self.vocab_size <= 0 or self.max_len <= 0:
            raise ValueError("vocab_size and max_len must be positive")


class FeedForward(Module):
    """Position-wise feed-forward block: Linear -> GELU -> Linear."""

    def __init__(
        self, dim: int, ffn_dim: int, rng: np.random.Generator, dropout: float
    ) -> None:
        super().__init__()
        self.expand = Linear(dim, ffn_dim, rng)
        self.contract = Linear(ffn_dim, dim, rng)
        self.dropout = Dropout(dropout, rng)
        self._pre_activation: np.ndarray | None = None
        self._tanh_inner: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden = self.expand(x)
        if is_inference():
            self._pre_activation = self._tanh_inner = None
            activated = gelu(hidden)
        else:
            # Keep the tanh term so the backward need not recompute it.
            activated, self._tanh_inner = gelu(hidden, return_tanh=True)
            self._pre_activation = hidden
        return self.dropout(self.contract(activated))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._pre_activation is None:
            raise RuntimeError("backward called before forward")
        dout = self.dropout.backward(dout)
        dactivated = self.contract.backward(dout)
        dhidden = dactivated * gelu_grad(
            self._pre_activation, self._tanh_inner
        )
        return self.expand.backward(dhidden)


class TransformerEncoderLayer(Module):
    """Pre-LN encoder layer: x + Attn(LN(x)); then h + FFN(LN(h))."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ffn_dim: int,
        rng: np.random.Generator,
        dropout: float,
        ctx_pad_to: int | None = None,
    ) -> None:
        super().__init__()
        self.attn_norm = LayerNorm(dim)
        self.attention = MultiHeadSelfAttention(
            dim, num_heads, rng, dropout, ctx_pad_to=ctx_pad_to
        )
        self.attn_dropout = Dropout(dropout, rng)
        self.ffn_norm = LayerNorm(dim)
        self.ffn = FeedForward(dim, ffn_dim, rng, dropout)

    def forward(self, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
        attended = self.attn_dropout(
            self.attention(self.attn_norm(x), mask)
        )
        hidden = x + attended
        return hidden + self.ffn(self.ffn_norm(hidden))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dhidden = dout + self.ffn_norm.backward(self.ffn.backward(dout))
        dattended = self.attn_dropout.backward(dhidden)
        dx = dhidden + self.attn_norm.backward(
            self.attention.backward(dattended)
        )
        return dx


class TransformerEncoder(Module):
    """Token + position embeddings followed by stacked encoder layers.

    ``forward(ids, mask)`` returns contextual states ``(B, T, D)``. Padded
    positions still produce states; downstream losses must mask them.
    """

    def __init__(self, config: EncoderConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.dim, rng)
        self.position_embedding = Embedding(config.max_len, config.dim, rng)
        self.embedding_dropout = Dropout(config.dropout, rng)
        self.layers = [
            TransformerEncoderLayer(
                config.dim,
                config.num_heads,
                config.ffn_dim,
                rng,
                config.dropout,
                ctx_pad_to=config.max_len,
            )
            for __ in range(config.num_layers)
        ]
        self.final_norm = LayerNorm(config.dim)
        self._positions: np.ndarray | None = None

    def forward(self, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError(f"ids must be (batch, time), got {ids.shape}")
        if ids.shape[1] > self.config.max_len:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds "
                f"max_len {self.config.max_len}"
            )
        positions = np.broadcast_to(
            np.arange(ids.shape[1]), ids.shape
        )
        self._positions = None if is_inference() else positions
        states = self.token_embedding(ids) + self.position_embedding(positions)
        states = self.embedding_dropout(states)
        for layer in self.layers:
            states = layer(states, mask)
        return guard_finite(self.final_norm(states), "encoder states")

    def backward(self, dout: np.ndarray) -> None:
        """Backpropagate into all parameters (inputs are ids, no dinput)."""
        dstates = self.final_norm.backward(dout)
        for layer in reversed(self.layers):
            dstates = layer.backward(dstates)
        dstates = self.embedding_dropout.backward(dstates)
        self.token_embedding.backward(dstates)
        self.position_embedding.backward(dstates)
        return None
