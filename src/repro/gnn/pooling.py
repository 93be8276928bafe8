"""Graph-level pooling (readout) layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .layers import Layer, segment_sum


def pool_segments(
    x: np.ndarray,
    graph_index: np.ndarray,
    num_graphs: int,
    counts: np.ndarray,
    mode: str,
) -> np.ndarray:
    """The one segment-readout kernel every pooling path shares.

    ``counts`` is the zero-clamped float64 divisor (only used by
    ``"mean"``).  The accumulation order — node rows added in order into a
    zeroed sum by :func:`~repro.gnn.layers.segment_sum` (the same sums as
    ``np.add.at``), ``np.maximum.at`` for max — is the bit-parity contract
    between the training forward, the engine's single-fold ``infer`` and the
    fold-stacked sweep — change it here or nowhere.
    """
    if mode in ("mean", "sum"):
        pooled = segment_sum(x, graph_index, num_graphs)
        if mode == "mean":
            pooled = pooled / counts[:, None]
    else:  # max
        pooled = np.full((num_graphs, x.shape[1]), -np.inf)
        np.maximum.at(pooled, graph_index, x)
        pooled[np.isneginf(pooled)] = 0.0
    return pooled


class GlobalPool(Layer):
    """Pool node embeddings into one vector per graph.

    Supported modes: ``"mean"`` (default, as in the paper's architecture),
    ``"sum"`` and ``"max"``.  The ablation benchmark compares all three.
    """

    def __init__(self, mode: str = "mean"):
        if mode not in ("mean", "sum", "max"):
            raise ValueError(f"unknown pooling mode {mode!r}")
        self.mode = mode
        self._cache = None

    def forward(self, x: np.ndarray, graph_index: np.ndarray, num_graphs: int) -> np.ndarray:
        counts = np.bincount(graph_index, minlength=num_graphs).astype(np.float64)
        counts[counts == 0] = 1.0
        pooled = pool_segments(x, graph_index, num_graphs, counts, self.mode)
        if self.mode in ("mean", "sum"):
            self._cache = (graph_index, counts, x.shape, None)
        else:
            argmax_mask = x == pooled[graph_index]
            self._cache = (graph_index, counts, x.shape, argmax_mask)
        return pooled

    # ------------------------------------------------------------------ infer
    def infer(self, x: np.ndarray, plan) -> np.ndarray:
        """Pure readout over a plan's segments: same values as
        :meth:`forward` (bit for bit — the shared :func:`pool_segments`
        kernel), no backward cache.  ``plan`` is an
        :class:`~repro.engine.ExecutionPlan` (duck-typed: ``graph_index``,
        ``num_graphs`` and the zero-clamped ``pool_counts`` divisor)."""
        return pool_segments(
            x, plan.graph_index, plan.num_graphs, plan.pool_counts, self.mode
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward called before forward"
        graph_index, counts, x_shape, argmax_mask = self._cache
        if self.mode == "sum":
            grad_input = grad_output[graph_index]
        elif self.mode == "mean":
            grad_input = grad_output[graph_index] / counts[graph_index][:, None]
        else:
            grad_input = grad_output[graph_index] * argmax_mask
        self._cache = None
        return grad_input
