"""Pure-numpy deep learning substrate.

The paper fine-tunes HuggingFace transformer encoders on a GPU. Neither is
available offline, so this package implements the required stack from
scratch: a module system with explicit forward/backward passes, the standard
transformer encoder layers (embeddings, multi-head self-attention, layer
normalization, GELU feed-forward, dropout), softmax cross-entropy with an
ignore index, Adam/AdamW with gradient clipping, and learning-rate schedules.

Every layer's backward pass is verified against numerical gradients in the
test suite (``tests/nn``).
"""

from repro.nn.module import Module, Parameter, inference_mode, is_inference
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.encoder import (
    EncoderConfig,
    FeedForward,
    TransformerEncoder,
    TransformerEncoderLayer,
)
from repro.nn.loss import cross_entropy
from repro.nn.optim import (
    Adam,
    AdamW,
    LinearWarmupDecay,
    clip_grad_norm,
)
from repro.nn.batching import iterate_minibatches, pad_sequences

__all__ = [
    "Adam",
    "AdamW",
    "Dropout",
    "Embedding",
    "EncoderConfig",
    "FeedForward",
    "LayerNorm",
    "Linear",
    "LinearWarmupDecay",
    "Module",
    "MultiHeadSelfAttention",
    "Parameter",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "clip_grad_norm",
    "cross_entropy",
    "inference_mode",
    "is_inference",
    "iterate_minibatches",
    "pad_sequences",
]
