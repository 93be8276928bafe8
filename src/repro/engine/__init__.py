"""Stateless inference execution engine.

The training stack (:mod:`repro.gnn`) mutates per-layer activation caches
during ``forward``, which forces at-most-one forward at a time.  This
package is the inference-time counterpart, built around two ideas:

* an immutable :class:`ExecutionPlan` — adjacency (CSR per relation) and
  pooling segments for one collated micro-batch, built once and shared by
  every consumer (lifecycle: build → share → discard);
* pure evaluation paths — ``infer`` on every layer/model never touches the
  backward caches, so inference is reentrant: concurrent micro-batches can
  overlap with each other *and* with a training step on the same weights.

:class:`StackedFoldModel` extends that to whole ensembles: F folds'
weights stacked into ``(F, in, out)`` tensors and evaluated in one call
over one shared plan (node-level work fold by fold over reused buffers,
the graph-level head as one batched matmul per weight), bit-identical to
the per-fold forwards.

Concurrency contract: nothing in this package holds mutable state between
calls — no locks are needed anywhere above it, which is why the serving
layer's ``_forward_lock``s could be deleted.
"""

from .plan import ExecutionPlan, PlanShape, build_plan
from .stacked import IncompatibleFoldsError, StackedFoldModel

__all__ = [
    "ExecutionPlan",
    "PlanShape",
    "build_plan",
    "IncompatibleFoldsError",
    "StackedFoldModel",
]
