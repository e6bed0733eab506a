"""Core layers: Linear, Embedding, LayerNorm, Dropout.

Each layer caches what its backward pass needs during ``forward`` and
accumulates parameter gradients during ``backward``. All backward passes are
verified against numerical gradients in ``tests/nn/test_layers.py``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter, is_inference


class Linear(Module):
    """Affine map ``y = x W + b`` applied to the last axis.

    With ``row_invariant=True`` a 2-D input is multiplied row by row
    (vector-matrix products) instead of as one matrix product. BLAS picks
    different kernels — and hence different floating-point reduction
    orders — for different row counts, so a plain ``x @ W`` gives a row
    results that depend on its batch-mates at the ulp level. Row products
    make each output a function of that row alone, whatever the batch
    size. Only worth it for small heads on pooled states (it trades the
    single GEMM for ``rows`` GEMVs); bulk token-level layers should keep
    the default.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        row_invariant: bool = False,
    ) -> None:
        super().__init__()
        scale = np.sqrt(2.0 / (in_features + out_features))
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(in_features, out_features))
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.row_invariant = row_invariant
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = None if is_inference() else x
        if self.row_invariant and x.ndim == 2:
            out = np.stack([row @ self.weight.value for row in x])
        else:
            out = x @ self.weight.value
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x = self._x
        flat_x = x.reshape(-1, x.shape[-1])
        flat_dout = dout.reshape(-1, dout.shape[-1])
        self.weight.grad += flat_x.T @ flat_dout
        if self.bias is not None:
            self.bias.grad += flat_dout.sum(axis=0)
        return dout @ self.weight.value.T


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self, num_embeddings: int, dim: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.weight = Parameter(
            rng.normal(0.0, 0.02, size=(num_embeddings, dim))
        )
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        self._ids = None if is_inference() else ids
        return self.weight.value[ids]

    def backward(self, dout: np.ndarray) -> None:
        """Accumulate gradients; embeddings have no upstream input."""
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        np.add.at(self.weight.grad, self._ids, dout)
        return None


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` without its Python wrapper:
    the same reduction and the same division numpy's ``_mean`` makes."""
    total = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(
        total, np.intp(x.shape[-1]), out=total, casting="unsafe"
    )


class LayerNorm(Module):
    """Layer normalization over the last axis with learned scale/shift."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.eps = eps
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Center once: the same sum and division as ``x.var``, which would
        # recompute the mean and the subtraction.
        x_hat = x - _mean_last(x)
        var = _mean_last(np.square(x_hat))
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        self._cache = None if is_inference() else (x_hat, inv_std, x)
        out = self.gamma.value * x_hat
        out += self.beta.value
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, x = self._cache
        dim = x.shape[-1]
        reduce_axes = tuple(range(x.ndim - 1))
        self.gamma.grad += (dout * x_hat).sum(axis=reduce_axes)
        self.beta.grad += dout.sum(axis=reduce_axes)
        dx_hat = dout * self.gamma.value
        # Standard layernorm backward over the last axis.
        dx = (
            dx_hat
            - _mean_last(dx_hat)
            - x_hat * _mean_last(dx_hat * x_hat)
        ) * inv_std
        # Keep dim referenced for clarity of the formula above.
        del dim
        return dx


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability {p} outside [0, 1)")
        self.p = p
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0 or is_inference():
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep).astype(x.dtype) / np.asarray(keep, dtype=x.dtype)
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dout
        return dout * self._mask
