"""Oracles for the encoder's numeric hot path.

The earlier formulations of masked softmax, LayerNorm and the GELU
backward are kept here as reference functions. The rewritten versions
only reorganize memory traffic (in-place temporaries, one centering, one
masking pass, a cached tanh), so they must match the references bit for
bit. GELU's forward changed on purpose (the cube is an explicit product,
not ``x**3``): it is held bitwise to that formula written out, and
within a tolerance to a float64 reference.
"""

import math

import numpy as np
import pytest

from repro.nn import precision
from repro.nn.encoder import FeedForward
from repro.nn.functional import MASK_FILL, gelu, gelu_grad, masked_softmax
from repro.nn.layers import LayerNorm

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def reference_masked_softmax(scores, key_mask):
    """Fill masked scores, then softmax with an exp-times-mask pass and a
    cumsum denominator: the attention forward's original two-pass form."""
    scores = np.where(key_mask > 0, scores, MASK_FILL)
    shifted = scores - np.max(scores, axis=-1, keepdims=True)
    exp = np.exp(shifted) * (key_mask > 0)
    denom = np.cumsum(exp, axis=-1)[..., -1:]
    return exp / np.maximum(denom, np.finfo(exp.dtype).tiny)


def reference_layernorm(x, gamma, beta, eps):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean) * inv_std
    return gamma * x_hat + beta, x_hat, inv_std


def reference_gelu(x):
    """The GELU formula with the cube as an explicit product."""
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def reference_gelu_float64(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * x**3)))


def _attention_batch(rng, batch, heads, width, dtype, lengths):
    scores = (rng.normal(size=(batch, heads, width, width)) * 4).astype(dtype)
    mask = np.zeros((batch, width), dtype=np.int64)
    for row, length in enumerate(lengths):
        mask[row, :length] = 1
    return scores, mask[:, None, None, :]


SOFTMAX_CASES = {
    # name: (batch, heads, width, dtype, real lengths per row)
    "padded-float32": (6, 4, 48, np.float32, [48, 30, 17, 9, 3, 1]),
    "all-masked-row": (3, 2, 20, np.float32, [20, 0, 7]),
    "no-padding": (4, 4, 33, np.float32, [33, 33, 33, 33]),
    "padded-float64": (5, 3, 40, np.float64, [40, 12, 0, 25, 8]),
    "single-key": (2, 1, 1, np.float32, [1, 0]),
}


class TestMaskedSoftmaxOracle:
    @pytest.mark.parametrize("case", sorted(SOFTMAX_CASES))
    def test_is_bitwise_reference_and_leaves_scores_alone(self, case):
        batch, heads, width, dtype, lengths = SOFTMAX_CASES[case]
        scores, key_mask = _attention_batch(
            np.random.default_rng(8), batch, heads, width, dtype, lengths
        )
        before = scores.copy()
        out = masked_softmax(scores, key_mask)
        assert np.array_equal(scores, before)
        assert np.array_equal(out, reference_masked_softmax(scores, key_mask))

    def test_all_masked_row_is_all_zero(self):
        scores, key_mask = _attention_batch(
            np.random.default_rng(9), 2, 2, 6, np.float32, [6, 0]
        )
        out = masked_softmax(scores, key_mask)
        assert not out[1].any()
        np.testing.assert_allclose(out[0].sum(axis=-1), 1.0, rtol=1e-6)

    def test_single_query_row_keeps_sequential_denominator(self):
        # One query row over many keys: the case where a reduction over
        # the key axis would be summed pairwise rather than in order.
        rng = np.random.default_rng(10)
        scores = rng.normal(size=(3, 1, 1, 64)).astype(np.float32)
        key_mask = np.ones((3, 1, 1, 64))
        key_mask[1, ..., 40:] = 0
        before = scores.copy()
        assert np.array_equal(
            masked_softmax(scores, key_mask),
            reference_masked_softmax(scores, key_mask),
        )
        assert np.array_equal(scores, before)


class TestLayerNormOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_is_bitwise_reference(self, dtype):
        precision.set_dtype(dtype)
        rng = np.random.default_rng(11)
        layer = LayerNorm(24)
        layer.gamma.value = rng.normal(size=24).astype(dtype)
        layer.beta.value = rng.normal(size=24).astype(dtype)
        x = (rng.normal(size=(5, 13, 24)) * 3 + 1).astype(dtype)
        expected, x_hat, inv_std = reference_layernorm(
            x, layer.gamma.value, layer.beta.value, layer.eps
        )
        out = layer.forward(x)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)
        cached_x_hat, cached_inv_std, __ = layer._cache
        assert np.array_equal(cached_x_hat, x_hat)
        assert np.array_equal(cached_inv_std, inv_std)


class TestGeluOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_from_cached_tanh_is_bitwise_recompute(self, dtype):
        x = (np.random.default_rng(12).normal(size=(4, 9, 32)) * 3).astype(
            dtype
        )
        out, tanh_inner = gelu(x, return_tanh=True)
        assert np.array_equal(out, gelu(x))
        assert np.array_equal(gelu_grad(x, tanh_inner), gelu_grad(x))

    def test_feedforward_backward_matches_recomputed_grad(self):
        rng = np.random.default_rng(13)
        block = FeedForward(8, 16, rng, dropout=0.0)
        x = rng.normal(size=(3, 5, 8))
        dout = rng.normal(size=(3, 5, 8))
        block.forward(x)
        hidden = block.expand.forward(x)
        dactivated = block.contract.backward(dout)
        expected = block.expand.backward(dactivated * gelu_grad(hidden))
        block.zero_grad()
        block.forward(x)
        assert np.array_equal(block.backward(dout), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_forward_is_bitwise_formula(self, dtype):
        x = (np.random.default_rng(16).normal(size=(3, 7, 40)) * 3).astype(
            dtype
        )
        assert np.array_equal(gelu(x), reference_gelu(x))

    def test_float64_matches_reference(self):
        x = np.linspace(-6.0, 6.0, 2001)
        np.testing.assert_allclose(
            gelu(x), reference_gelu_float64(x), rtol=1e-6
        )

    def test_float32_matches_float64_reference(self):
        # 1 + tanh cancels on the negative tail, so float32 is held to an
        # absolute bound there; elsewhere the relative bound decides.
        x = np.linspace(-6.0, 6.0, 2001).astype(np.float32)
        np.testing.assert_allclose(
            gelu(x), reference_gelu_float64(x), rtol=1e-6, atol=1e-6
        )


class TestFloat32StaysFloat32:
    """A silent float64 upcast would undo most of the hot path's speed."""

    def test_functions_keep_float32(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 3, 8)).astype(np.float32)
        out, tanh_inner = gelu(x, return_tanh=True)
        assert out.dtype == tanh_inner.dtype == np.float32
        assert gelu(x).dtype == np.float32
        assert gelu_grad(x).dtype == np.float32
        assert gelu_grad(x, tanh_inner).dtype == np.float32
        scores, key_mask = _attention_batch(
            rng, 2, 2, 8, np.float32, [8, 3]
        )
        assert masked_softmax(scores, key_mask).dtype == np.float32

    def test_layernorm_keeps_float32(self):
        precision.set_dtype(np.float32)
        layer = LayerNorm(8)
        x = np.random.default_rng(15).normal(size=(2, 3, 8)).astype(np.float32)
        assert layer.forward(x).dtype == np.float32
        x_hat, inv_std, __ = layer._cache
        assert x_hat.dtype == inv_std.dtype == np.float32
