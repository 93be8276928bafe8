"""Basic neural layers (NumPy, explicit forward/backward)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .parameters import ParameterStore, glorot_uniform, normal_init


def segment_sum(values: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
    """``(num_segments, width)`` array whose row ``s`` sums the ``values``
    rows with ``index == s``, added in row order.

    One flattened ``np.bincount`` does it, bit for bit what ``np.add.at``
    gives into a zeroed array and several times faster (``np.add.reduceat``
    sums in another order and is not bit-identical).
    """
    width = values.shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=num_segments * width)
    return sums.reshape(num_segments, width)


class Layer:
    """Base class: layers cache what they need in ``forward`` and release it
    in ``backward``; parameters live in a shared :class:`ParameterStore`.

    Every layer additionally exposes ``infer``, a *pure* evaluation-mode
    forward: it computes exactly the same values as ``forward`` (bit for
    bit) but never touches the per-layer activation caches, so concurrent
    ``infer`` calls on one layer are safe and an ``infer`` interleaved with
    a training step cannot corrupt the pending backward pass.  The
    inference engine (:mod:`repro.engine`) only ever calls ``infer``.
    """

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def infer(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Layer):
    """Affine transform ``y = x @ W + b``."""

    def __init__(
        self,
        store: ParameterStore,
        name: str,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        self.weight = store.create(f"{name}.weight", glorot_uniform(rng, in_features, out_features))
        self.bias = store.create(f"{name}.bias", np.zeros(out_features)) if bias else None
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return self.infer(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        y = x @ self.weight.value
        if self.bias is not None:
            y = y + self.bias.value
        return y

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._input is not None, "backward called before forward"
        self.weight.grad += self._input.T @ grad_output
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        grad_input = grad_output @ self.weight.value.T
        self._input = None
        return grad_input


class Embedding(Layer):
    """Token embedding lookup."""

    def __init__(
        self,
        store: ParameterStore,
        name: str,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
    ):
        self.weight = store.create(
            f"{name}.weight", normal_init(rng, (num_embeddings, embedding_dim), scale=0.1)
        )
        self._indices: Optional[np.ndarray] = None

    def forward(self, indices: np.ndarray) -> np.ndarray:
        self._indices = indices
        return self.infer(indices)

    def infer(self, indices: np.ndarray) -> np.ndarray:
        return self.weight.value[indices]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._indices is not None, "backward called before forward"
        self.weight.grad += segment_sum(grad_output, self._indices, self.weight.grad.shape[0])
        self._indices = None
        return np.zeros(0)  # embeddings have no upstream input


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self):
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return x * self._mask

    def infer(self, x: np.ndarray) -> np.ndarray:
        # Same expression as forward (not np.maximum), so signed zeros and
        # every downstream bit pattern match the training path exactly.
        return x * (x > 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "backward called before forward"
        grad = grad_output * self._mask
        self._mask = None
        return grad


class Dropout(Layer):
    """Inverted dropout; identity when ``training`` is False."""

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng
        self.training = True
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def infer(self, x: np.ndarray) -> np.ndarray:
        # Inference is evaluation-mode by definition: inverted dropout is
        # the identity, regardless of the layer's ``training`` flag.
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        grad = grad_output * self._mask
        self._mask = None
        return grad


class LayerNorm(Layer):
    """Layer normalisation over the last dimension."""

    def __init__(self, store: ParameterStore, name: str, dim: int, eps: float = 1e-5):
        self.gamma = store.create(f"{name}.gamma", np.ones(dim))
        self.beta = store.create(f"{name}.beta", np.zeros(dim))
        self.eps = eps
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std)
        return x_hat * self.gamma.value + self.beta.value

    def infer(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        return x_hat * self.gamma.value + self.beta.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward called before forward"
        x_hat, inv_std = self._cache
        self.gamma.grad += (grad_output * x_hat).sum(axis=0)
        self.beta.grad += grad_output.sum(axis=0)
        d = grad_output.shape[-1]
        g = grad_output * self.gamma.value
        grad_input = (
            g - g.mean(axis=-1, keepdims=True) - x_hat * (g * x_hat).mean(axis=-1, keepdims=True)
        ) * inv_std
        self._cache = None
        return grad_input
