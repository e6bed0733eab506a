"""Numerically stable activation and normalization functions."""

from __future__ import annotations

import math

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

#: Score given to masked positions before a masked softmax.
MASK_FILL = -1e9


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """``tanh(sqrt(2/pi) * (x + 0.044715 * x*x*x))``, in one temporary.

    The cube is an explicit product: ``x**3`` on float32 goes through
    numpy's generic ``pow`` loop, about 100x slower than two multiplies.
    """
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _SQRT_2_OVER_PI
    return np.tanh(inner, out=inner)


def gelu(x: np.ndarray, return_tanh: bool = False):
    """GELU activation (tanh approximation, as used by BERT/RoBERTa).

    With ``return_tanh`` the result comes back as ``(gelu(x), tanh)``, the
    tanh term :func:`gelu_grad` would otherwise recompute.
    """
    tanh_inner = _gelu_tanh(x)
    out = 1.0 + tanh_inner
    out *= 0.5 * x
    return (out, tanh_inner) if return_tanh else out


def gelu_grad(
    x: np.ndarray, tanh_inner: np.ndarray | None = None
) -> np.ndarray:
    """Derivative of :func:`gelu` with respect to its input.

    ``tanh_inner`` is the tanh term ``gelu(x, return_tanh=True)`` returned;
    passing it gives the same bits as recomputing it from ``x``.
    """
    if tanh_inner is None:
        tanh_inner = _gelu_tanh(x)
    sech2 = 1.0 - tanh_inner * tanh_inner
    d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * (x * x))
    return 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def masked_softmax(scores: np.ndarray, key_mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with exact zeros at masked positions.

    ``scores`` has at least two axes; ``key_mask`` broadcasts against it
    and is nonzero on real positions. Masked scores are replaced by
    ``MASK_FILL`` before the softmax, so they neither set a row's maximum
    nor get weight. Two properties matter for batched inference:

    * masked positions get weight exactly ``0.0`` (not merely tiny), and
    * the normalizer is a *sequential* left-to-right sum (the last column
      of ``np.cumsum``), so a row's result is independent of how much
      trailing padding follows it. ``np.sum`` along a row sums pairwise,
      which regroups the real terms when the axis grows; trailing ``+0.0``
      terms leave a running sum bitwise unchanged.

    The second property is what lets the length-bucketed scheduler
    (:mod:`repro.runtime.scheduler`) guarantee bitwise-identical logits for
    any batch packing. Rows with no real positions get all-zero weights.

    ``scores`` is left untouched. The work runs in place on one copy with
    the two last axes swapped: with the softmax axis second to last, the
    row maximum and the row sum are element-wise passes over contiguous
    rows, taken in key order, instead of reductions over many short rows.
    """
    real = np.swapaxes(np.broadcast_to(key_mask > 0, scores.shape), -1, -2)
    weights = np.swapaxes(scores, -1, -2).copy()
    np.copyto(weights, MASK_FILL, where=~real)
    row_max = np.max(weights, axis=-2, keepdims=True)
    weights -= row_max
    np.exp(weights, out=weights)
    # exp(MASK_FILL - row_max) is exactly 0.0 once a row has a real score
    # far above the fill, so only rows without one need the mask applied.
    if not (row_max > MASK_FILL / 2).all():
        weights *= real
    if weights.shape[-1] > 1:
        denom = np.add.reduce(weights, axis=-2, keepdims=True)
    else:  # a single row: numpy would sum its key axis pairwise
        denom = np.cumsum(weights, axis=-2)[..., -1:, :]
    np.maximum(denom, np.finfo(weights.dtype).tiny, out=denom)
    weights /= denom
    return np.ascontiguousarray(np.swapaxes(weights, -1, -2))


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-sum-exp along ``axis``."""
    maximum = np.max(x, axis=axis, keepdims=True)
    summed = np.log(np.sum(np.exp(x - maximum), axis=axis, keepdims=True))
    return np.squeeze(maximum + summed, axis=axis)
