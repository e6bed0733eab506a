"""Opt-in int8 weight quantization for the inference path.

Corpus-scale monitoring wants a cheaper numeric path; this module provides
one without touching training or checkpoints: weights are quantized **once
at attach time** to residual-coded int8 with per-output-channel symmetric
scales (``scale[j] = max_i |W[i, j]| / 127``; a second int8 plane codes
the rounding residual the same way), and the inference forward computes
``(x @ Q1) * scale1 + (x @ Q2) * scale2`` — integer-valued operands are
exact in float32, so the matmuls accumulate in fp32 over int8-coded
weights ("int8-weight / fp32-accumulate"). The fp32 master weights stay
in place untouched:
``state_dict``/checkpointing/backward are unaffected, and detaching the
quantized tensors restores bitwise-original behaviour.

Two attachment points cover the encoder's GEMM time: every ``Linear``
(feed-forward, attention output projection, classifier heads) and the
fused QKV projection inside ``MultiHeadSelfAttention`` (quantized as one
``(dim, 3*dim)`` matrix so its scales match the fused GEMM it replaces).

Quantization changes numerics, so enabling it is **gated**: the
equivalence report compares a quantized run against the fp32 baseline and
passes only when every prediction keeps its top label and the largest
score delta stays under a bound. Integration layers
(``WeakSupervisionExtractor.enable_quantization``, the CLI ``--quantize``
flag) refuse to enable the path — raising
:class:`~repro.runtime.errors.QuantizationError` and restoring fp32 —
when the gate fails. The result cache keys quantized results under a
separate variant (:func:`quantization_state`), so fp32 and int8 entries
can never collide.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.nn import precision
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Linear
from repro.nn.module import Module, mode_epoch

__all__ = [
    "EquivalenceReport",
    "INT8",
    "QMAX",
    "QuantizedTensor",
    "dequantize_module",
    "dequantize_weight",
    "equivalence_report",
    "quantization_state",
    "quantize_module",
    "quantize_weight",
]

#: The only supported quantization mode (the public opt-in token).
INT8 = "int8"

#: Symmetric int8 range: codes live in ``[-127, 127]`` (no -128, so the
#: code space is symmetric and ``scale * code`` round-trips sign-exactly).
QMAX = 127


@dataclasses.dataclass(frozen=True)
class QuantizedTensor:
    """Residual-coded int8 weights with per-output-channel scales.

    ``q`` holds the primary codes (``int8``, same shape as the source
    weight, ``(in, out)``); ``scale`` is one fp32 factor per output
    channel (column). ``q2``/``scale2`` code the *rounding residual*
    ``W - q * scale`` the same way — a second int8 pass whose scale is
    ~1/254 of the primary's, shrinking the worst-case weight error from
    ``scale/2`` to ``scale/516``. Two code planes cost 2 bytes/weight
    (still half of fp32) and keep every stored operand an int8 tensor;
    the fidelity is what lets the strict top-label equivalence gate pass
    on near-tied logits, where single-plane int8 rounding (~1e-2 logit
    delta on this substrate) demonstrably flips labels.

    ``operand``/``operand2`` are float32 casts of the codes prepared
    once at quantization time — integer codes in ``[-127, 127]`` are
    exact in fp32 — so the inference GEMMs never re-cast.
    """

    q: np.ndarray
    scale: np.ndarray
    operand: np.ndarray
    q2: np.ndarray
    scale2: np.ndarray
    operand2: np.ndarray

    @property
    def num_bytes(self) -> int:
        """Storage footprint of both int8 code planes plus scales."""
        return (
            self.q.nbytes
            + self.scale.nbytes
            + self.q2.nbytes
            + self.scale2.nbytes
        )

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``x @ W_quantized``: two int8-coded fp32-accumulate GEMMs."""
        return (x @ self.operand) * self.scale + (
            x @ self.operand2
        ) * self.scale2


def _code_plane(
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One symmetric per-output-channel int8 coding pass over ``w``.

    All-zero columns get scale 1.0 (their codes are all zero anyway), so
    dequantization never divides by zero.
    """
    absmax = np.abs(w).max(axis=0)
    scale = np.where(absmax > 0.0, absmax / QMAX, 1.0).astype(w.dtype)
    q = np.clip(np.rint(w / scale), -QMAX, QMAX).astype(np.int8)
    return q, scale, q.astype(w.dtype)


def quantize_weight(weight: np.ndarray) -> QuantizedTensor:
    """Residual two-plane int8 quantization of an ``(in, out)`` weight."""
    w = np.asarray(weight, dtype=precision.dtype())
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D weight, got shape {w.shape}")
    q, scale, operand = _code_plane(w)
    residual = w - operand * scale
    q2, scale2, operand2 = _code_plane(residual)
    arrays = (q, scale, operand, q2, scale2, operand2)
    for array in arrays:
        array.setflags(write=False)
    return QuantizedTensor(*arrays)


def dequantize_weight(tensor: QuantizedTensor) -> np.ndarray:
    """The fp32 weight the quantized path effectively multiplies by."""
    return tensor.operand * tensor.scale + tensor.operand2 * tensor.scale2


def quantize_module(module: Module, mode: str = INT8) -> int:
    """Attach int8 tensors to every eligible layer; returns the count.

    Eligible layers are ``MultiHeadSelfAttention`` (one fused QKV tensor
    each) and every ``Linear`` that is not one of an attention's
    query/key/value projections (those never run their own forward — the
    fused GEMM replaces them, so quantizing them would be dead weight).
    Idempotent: re-attaching replaces the previous tensors.
    """
    if mode != INT8:
        raise ValueError(f"unknown quantization mode {mode!r}; use {INT8!r}")
    fused_children: set[int] = set()
    for child in module.modules():
        if isinstance(child, MultiHeadSelfAttention):
            fused_children.update(
                id(proj)
                for proj in (
                    child.query_proj,
                    child.key_proj,
                    child.value_proj,
                )
            )
    count = 0
    for child in module.modules():
        if isinstance(child, MultiHeadSelfAttention):
            fused_weight, __ = child._fused_qkv_weights()
            child.attach_quantized_fused(quantize_weight(fused_weight))
            count += 1
        elif isinstance(child, Linear) and id(child) not in fused_children:
            child.attach_quantized(quantize_weight(child.weight.value))
            count += 1
    return count


def dequantize_module(module: Module) -> int:
    """Detach every quantized tensor; returns how many were removed."""
    count = 0
    for child in module.modules():
        if isinstance(child, MultiHeadSelfAttention):
            if child.detach_quantized_fused():
                count += 1
        elif isinstance(child, Linear):
            if child.detach_quantized():
                count += 1
    return count


def quantization_state(module: Module) -> str | None:
    """``"int8"`` when any layer carries a quantized tensor, else None.

    This is the *variant* component of the result-cache key: the same
    weights produce different (bounded-delta) outputs under the int8
    path, so cached fp32 and int8 results must never share entries.
    Memoised against the mode epoch, which every attach and detach moves.
    """
    epoch = mode_epoch()
    memo = getattr(module, "_quantization_memo", None)
    if memo is not None and memo[0] is epoch:
        return memo[1]
    state = None
    for child in module.modules():
        if isinstance(child, MultiHeadSelfAttention):
            if child._quant_fused is not None:
                state = INT8
                break
        elif isinstance(child, Linear):
            if child._quant is not None:
                state = INT8
                break
    module._quantization_memo = (epoch, state)
    return state


# -- the equivalence gate ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing a quantized run against its fp32 baseline."""

    total: int
    top_label_matches: int
    max_abs_delta: float
    bound: float

    @property
    def passed(self) -> bool:
        """Gate verdict: every top label identical, every delta bounded."""
        return (
            self.top_label_matches == self.total
            and self.max_abs_delta <= self.bound
        )

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "top_label_matches": self.top_label_matches,
            "max_abs_delta": self.max_abs_delta,
            "bound": self.bound,
            "passed": self.passed,
        }


def equivalence_report(
    baseline: Sequence[np.ndarray],
    candidate: Sequence[np.ndarray],
    bound: float,
) -> EquivalenceReport:
    """Compare per-item score arrays (logits or probabilities).

    An item matches when the argmax over the last axis — the predicted
    label at every position — is identical; ``max_abs_delta`` is the
    largest elementwise score difference across all items.
    """
    if len(baseline) != len(candidate):
        raise ValueError(
            f"baseline and candidate are not parallel: "
            f"{len(baseline)} vs {len(candidate)} items"
        )
    matches = 0
    max_delta = 0.0
    for expected, actual in zip(baseline, candidate):
        expected = np.asarray(expected)
        actual = np.asarray(actual)
        if expected.shape != actual.shape:
            raise ValueError(
                f"score shape changed under quantization: "
                f"{expected.shape} vs {actual.shape}"
            )
        if expected.size == 0:
            matches += 1
            continue
        if np.array_equal(
            expected.argmax(axis=-1), actual.argmax(axis=-1)
        ):
            matches += 1
        delta = float(np.max(np.abs(expected - actual)))
        if delta > max_delta:
            max_delta = delta
    return EquivalenceReport(
        total=len(baseline),
        top_label_matches=matches,
        max_abs_delta=max_delta,
        bound=bound,
    )
