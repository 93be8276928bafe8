"""Fold-stacked inference: one planned forward pass for a whole ensemble.

A k-fold ensemble answers every request with k structurally identical
RGCN forward passes over the *same* collated batch — same adjacency, same
pooling segments, different weights.  :class:`StackedFoldModel` exploits
that: every weight of the F folds is stacked into one ``(F, in, out)``
tensor at construction, and a single :meth:`infer` call evaluates
Equation (1) of the paper for all folds over one shared plan:

* node-level work (embedding gather, extra-feature projection, every RGCN
  layer, pooling) runs fold by fold over four ``(n, d)`` scratch buffers
  reused for every fold and layer (1.6 MB each for the 64-request
  benchmark burst's 4,073 nodes), so one fold's activations stay
  cache-resident through its whole sweep and no ``(F, n, d)`` stack is
  ever allocated.  Batched ``(F, n, d)`` transforms streamed every
  elementwise pass and GEMM through main memory and faulted in fresh
  8 MB arrays on every call: on a 2-core box that 5-fold burst took
  83 ms that way against 69-74 ms for a plain loop over the folds' own
  models, and 69-75 ms fold by fold;
* graph-level work (pooling projection, feed-forward block, norm,
  classifier head) is one batched ``np.matmul`` per weight over the small
  ``(F, B, d)`` pooled stack;
* every dense product runs on numpy's BLAS.  scipy wheels ship a second
  OpenBLAS with its own worker pool; after a call its workers spin for a
  while, so alternating the two libraries in one sweep keeps two pools
  spinning against the thread doing the work (the same burst took
  120-130 ms that way, 92 ms on numpy alone).

Parity is bit-for-bit: each fold runs the per-fold expressions (``x @ W``
into a buffer, then the add; the same relation order; the shared
:func:`~repro.gnn.pooling.pool_segments` kernel), ``np.matmul`` over the
``(F, B, d)`` head stack runs the same GEMM per 2-D slice as the per-fold
``x @ W``, and every elementwise add/ReLU/normalisation matches the
per-fold expression.  Stacked logits therefore equal the per-fold
:meth:`StaticRGCNModel.infer` logits exactly (asserted in
``tests/test_engine.py``).

The stacked model is **stateless** (weights are snapshotted copies, no
activation caches): any number of threads may call :meth:`infer`
concurrently, which is what lets the serving layer drop its forward locks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..gnn.model import StaticRGCNModel
from ..gnn.pooling import pool_segments
from .plan import ExecutionPlan

try:  # scipy's C kernel, used directly so sparse results land in reused
    # buffers instead of freshly allocated arrays (the wrapper's np.zeros
    # per call is pure page-fault churn across a 60-matmat sweep).  The
    # kernel *accumulates* into its output, exactly like the wrapper's
    # internal call — same routine, same bits.
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _CSR_MATVECS = _scipy_sparsetools.csr_matvecs
except (ImportError, AttributeError):  # pragma: no cover - scipy internals moved
    _CSR_MATVECS = None


def _gemm_accumulate(
    out: np.ndarray, a: np.ndarray, b: np.ndarray, scratch: np.ndarray
) -> None:
    """``out += a @ b`` with the product landing in a reused ``scratch``.

    Literally the per-fold expression (numpy's GEMM, then one add), so the
    bits match :meth:`RGCNLayer.infer`.  It stays on numpy's BLAS on
    purpose: scipy wheels bundle their own OpenBLAS with its own thread
    pool, and mixing the two in one sweep leaves one pool's workers
    spinning while the other runs (see the module docstring).
    """
    np.matmul(a, b, out=scratch)
    np.add(out, scratch, out=out)


def _spmm_into(matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = matrix @ x`` with ``out`` reused across calls.

    Falls back to the allocating ``matrix @ x`` when the scipy kernel is
    unavailable; both paths run the same ``csr_matvecs`` accumulation, so
    the results are bit-identical.
    """
    if _CSR_MATVECS is None:
        return matrix @ x
    out.fill(0.0)
    rows, cols = matrix.shape
    _CSR_MATVECS(
        rows,
        cols,
        x.shape[1],
        matrix.indptr,
        matrix.indices,
        matrix.data,
        x.ravel(),
        out.ravel(),
    )
    return out

#: ModelConfig fields that must agree across folds for stacking to be
#: possible (everything shape- or semantics-bearing; ``dropout`` and
#: ``seed`` are inference-irrelevant and may differ).
_COMPAT_FIELDS = (
    "vocabulary_size",
    "num_classes",
    "hidden_dim",
    "graph_vector_dim",
    "num_rgcn_layers",
    "num_extra_features",
    "relations",
    "pooling",
)


class IncompatibleFoldsError(ValueError):
    """Members differ in a way that makes weight stacking impossible."""


class StackedFoldModel:
    """All folds of an ensemble as one stacked, stateless evaluator.

    ``models`` must share every shape-bearing hyper-parameter (checked;
    :class:`IncompatibleFoldsError` otherwise).  Weights are copied into
    ``(F, ...)`` stacks at construction — the stacked model is a frozen
    snapshot, deliberately decoupled from later mutation of the source
    models (served models are immutable artefacts).
    """

    def __init__(self, models: Sequence[StaticRGCNModel]):
        if not models:
            raise ValueError("StackedFoldModel needs at least one model")
        first = models[0].config
        for i, model in enumerate(models[1:], start=1):
            for field in _COMPAT_FIELDS:
                if getattr(model.config, field) != getattr(first, field):
                    raise IncompatibleFoldsError(
                        f"fold {i} differs in {field!r}: "
                        f"{getattr(model.config, field)!r} vs "
                        f"{getattr(first, field)!r}"
                    )
        self.num_folds = len(models)
        self.config = first
        self.relations = list(first.relations)
        self.hidden_dim = first.hidden_dim
        self.graph_vector_dim = first.graph_vector_dim
        self.num_classes = first.num_classes

        def stack(arrays: List[np.ndarray]) -> np.ndarray:
            return np.ascontiguousarray(np.stack(arrays, axis=0))

        self._embed = stack([m.embedding.weight.value for m in models])  # (F, V, d)
        self._extra_w = stack([m.extra_proj.weight.value for m in models])
        self._extra_b = stack([m.extra_proj.bias.value for m in models])[:, None, :]
        self._self_w: List[np.ndarray] = []
        self._rel_w: List[Dict[str, np.ndarray]] = []
        self._rgcn_b: List[np.ndarray] = []
        for layer_index in range(first.num_rgcn_layers):
            layers = [m.rgcn_layers[layer_index] for m in models]
            self._self_w.append(stack([l.self_weight.value for l in layers]))
            self._rel_w.append(
                {
                    rel: stack([l.relation_weights[rel].value for l in layers])
                    for rel in self.relations
                }
            )
            self._rgcn_b.append(stack([l.bias.value for l in layers])[:, None, :])
        self._pool_mode = first.pooling
        self._pool_w = stack([m.pool_proj.weight.value for m in models])
        self._pool_b = stack([m.pool_proj.bias.value for m in models])[:, None, :]
        self._ff1_w = stack([m.ff1.weight.value for m in models])
        self._ff1_b = stack([m.ff1.bias.value for m in models])[:, None, :]
        self._ff2_w = stack([m.ff2.weight.value for m in models])
        self._ff2_b = stack([m.ff2.bias.value for m in models])[:, None, :]
        self._gamma = stack([m.norm.gamma.value for m in models])[:, None, :]
        self._beta = stack([m.norm.beta.value for m in models])[:, None, :]
        self._norm_eps = models[0].norm.eps
        self._clf_w = stack([m.classifier.weight.value for m in models])
        self._clf_b = stack([m.classifier.bias.value for m in models])[:, None, :]

    # ------------------------------------------------------------------ infer
    def infer(self, plan: ExecutionPlan) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate every fold over one plan.

        Returns ``(logits, graph_vectors)`` of shapes ``(B, F, L)`` and
        ``(B, F, D)`` — batch-major, so row ``j`` is graph ``j``'s per-fold
        stack (exactly what the ensemble combiners and the shared cache
        consume).  ``logits[:, f]`` is bit-identical to fold ``f``'s own
        :meth:`StaticRGCNModel.infer` over the same plan.
        """
        n = plan.num_nodes
        d = self.hidden_dim
        # Node-level work runs fold by fold over four (n, d) scratch buffers
        # reused for every fold and layer: one fold's activations stay
        # cache-resident through its whole sweep, and nothing of size
        # (F, n, d) is ever allocated.  The buffers are allocated per call,
        # so concurrent infer() calls stay fully isolated (statelessness is
        # the engine's contract).
        x = np.empty((n, d))
        out = np.empty((n, d))
        ax_buf = np.empty((n, d))
        mm_buf = np.empty((n, d))
        layers = [
            (self_w, [rel_w[rel] for rel in self.relations], bias)
            for self_w, rel_w, bias in zip(self._self_w, self._rel_w, self._rgcn_b)
        ]
        adjacency = [plan.adjacency.get(rel) for rel in self.relations]
        pooled = np.empty((self.num_folds, plan.num_graphs, d))
        for fold in range(self.num_folds):
            # x = embed + (extra @ W + b), as the embedding/projection layers
            np.take(self._embed[fold], plan.token_ids, axis=0, out=x)
            np.matmul(plan.extra_features, self._extra_w[fold], out=mm_buf)
            np.add(mm_buf, self._extra_b[fold], out=mm_buf)
            np.add(x, mm_buf, out=x)
            for self_w, rel_ws, bias in layers:
                np.matmul(x, self_w[fold], out=out)
                # Relations in the per-fold layer's order, so the bits match.
                for matrix, weights in zip(adjacency, rel_ws):
                    if matrix is None:
                        continue
                    ax = _spmm_into(matrix, x, ax_buf)
                    _gemm_accumulate(out, ax, weights[fold], mm_buf)
                np.add(out, bias[fold], out=out)
                np.multiply(out, out > 0.0, out=out)  # ReLU, same expression
                x, out = out, x
            pooled[fold] = pool_segments(
                x,
                plan.graph_index,
                plan.num_graphs,
                plan.pool_counts,
                self._pool_mode,
            )
        projected = np.matmul(pooled, self._pool_w) + self._pool_b
        ff = np.matmul(projected, self._ff1_w) + self._ff1_b
        ff = ff * (ff > 0.0)
        ff = np.matmul(ff, self._ff2_w) + self._ff2_b
        z = projected + ff
        mean = z.mean(axis=-1, keepdims=True)
        var = z.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self._norm_eps)
        graph_vectors = ((z - mean) * inv_std) * self._gamma + self._beta  # (F, B, D)
        logits = np.matmul(graph_vectors, self._clf_w) + self._clf_b  # (F, B, L)
        return (
            np.ascontiguousarray(np.swapaxes(logits, 0, 1)),  # (B, F, L)
            np.ascontiguousarray(np.swapaxes(graph_vectors, 0, 1)),  # (B, F, D)
        )
