"""Multi-fold ensemble serving behind one endpoint.

The paper's evaluation trains one predictor per cross-validation fold, and
``ReproPipeline.export_artifacts`` writes all of them into the registry as
``<name>-fold<k>``.  Deploying a single fold throws the rest away;
:class:`EnsemblePredictionService` loads every fold of a base name
(discovered via :meth:`ArtifactRegistry.fold_groups`) and answers each
request by combining the per-fold probabilities:

* ``mean-softmax`` — average the per-fold softmax distributions and take
  the argmax (soft voting; the default);
* ``majority-vote`` — each fold votes its argmax label, the most-voted
  label wins (ties broken by the higher mean-softmax probability, then the
  lower label index — fully deterministic).

Results carry the per-fold labels and an agreement score, so callers can
treat fold disagreement as a confidence signal (regions the folds disagree
on are exactly the ones the hybrid model routes to dynamic profiling).

All folds share one :class:`EmbeddingCache` keyed on
``(model_version_set, fingerprint)``: one cache instance can back several
ensembles (or survive a membership change) without ever replaying logits
produced by a different set of model versions.

Execution is fold-stacked: at construction every member's weights are
stacked into a :class:`~repro.engine.StackedFoldModel`, and each
micro-batch is answered by one :class:`~repro.engine.ExecutionPlan` fanned
to all folds in a single stateless sweep — bit-identical to running the
members one by one, at well under linear-in-folds cost, and reentrant (no
forward lock), so concurrent micro-batches overlap.  Members whose
architectures cannot stack fall back to a per-fold loop over the same
shared plan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..engine import IncompatibleFoldsError, StackedFoldModel, build_plan
from ..gnn.losses import softmax
from ..graphs.features import EncodedGraph
from ..numasim.configuration import Configuration
from .batcher import BatcherWorkerPool, BatchingConfig
from .cache import EmbeddingCache
from .registry import ArtifactNotFoundError, ArtifactRegistry, LoadedArtifact
from .serialization import label_space_to_dict
from .service import ServingFrontend
from .trace import span

#: supported per-fold probability combination strategies.
STRATEGIES = ("mean-softmax", "majority-vote")


@dataclass
class EnsemblePredictionResult:
    """Everything the ensemble knows about one answered request."""

    name: str
    fingerprint: str
    label: int
    probabilities: np.ndarray
    graph_vector: np.ndarray
    configuration: Optional[Configuration]
    needs_profiling: Optional[bool]
    per_fold_labels: Dict[int, int]
    agreement: float
    unanimous: bool
    cache_hit: bool
    latency_s: float
    #: per-stage span timings of this request (see :mod:`repro.serving.trace`);
    #: batch-level spans report what the request's batch paid.
    trace: Optional[Dict[str, float]] = None


# ------------------------------------------------------------- combination


def combine_mean_softmax(stacked_logits: np.ndarray) -> Tuple[int, np.ndarray]:
    """Soft voting: ``(winning label, mean per-fold softmax)``.

    ``stacked_logits`` has shape ``(num_folds, num_labels)``.
    """
    probabilities = softmax(stacked_logits, axis=1).mean(axis=0)
    return int(np.argmax(probabilities)), probabilities


def combine_majority_vote(stacked_logits: np.ndarray) -> Tuple[int, np.ndarray]:
    """Hard voting: ``(winning label, per-label vote shares)``.

    Ties are broken by the higher mean-softmax probability among the tied
    labels; an exact probability tie falls back to the lower label index
    (``np.argmax`` keeps the first maximum), so the outcome is fully
    deterministic.
    """
    num_folds, num_labels = stacked_logits.shape
    fold_labels = np.argmax(stacked_logits, axis=1)
    counts = np.bincount(fold_labels, minlength=num_labels)
    shares = counts.astype(np.float64) / num_folds
    tied = np.flatnonzero(counts == counts.max())
    if len(tied) == 1:
        return int(tied[0]), shares
    mean_probabilities = softmax(stacked_logits, axis=1).mean(axis=0)
    winner = tied[int(np.argmax(mean_probabilities[tied]))]
    return int(winner), shares


_COMBINERS = {
    "mean-softmax": combine_mean_softmax,
    "majority-vote": combine_majority_vote,
}


# ----------------------------------------------------------------- service


class EnsemblePredictionService(ServingFrontend):
    """Serves combined predictions from several fold predictors.

    ``members`` maps fold index → loaded artefact.  Every member must share
    the encoder vocabulary, head size and (where present) label space —
    violations raise :class:`ValueError` at construction, not at prediction
    time.  ``strategy`` is one of :data:`STRATEGIES`; the other keywords
    are the serving knobs every front-end takes.
    """

    def __init__(
        self,
        members: Mapping[int, LoadedArtifact],
        *,
        strategy: str = "mean-softmax",
        batching: Optional[BatchingConfig] = None,
        latency_window: int = 4096,
        cache: Optional[EmbeddingCache] = None,
        pool: Optional[BatcherWorkerPool] = None,
    ):
        if not members:
            raise ValueError("an ensemble needs at least one member")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.strategy = strategy
        self._members: Dict[int, LoadedArtifact] = dict(sorted(members.items()))
        self._fold_indices: List[int] = list(self._members)
        for artifact in self._members.values():
            artifact.model.eval()

        first = next(iter(self._members.values()))
        tokens = first.encoder.vocabulary.tokens
        num_classes = first.model.config.num_classes
        for fold, artifact in self._members.items():
            if artifact.encoder.vocabulary.tokens != tokens:
                raise ValueError(
                    f"fold {fold} ({artifact.ref}) was trained with a different "
                    f"vocabulary; ensemble members must share one encoder"
                )
            if artifact.model.config.num_classes != num_classes:
                raise ValueError(
                    f"fold {fold} ({artifact.ref}) emits "
                    f"{artifact.model.config.num_classes} labels, others emit "
                    f"{num_classes}; ensemble members must share a label space"
                )
        self.encoder = first.encoder
        self.num_labels = num_classes

        label_spaces = [a.label_space for a in self._members.values() if a.label_space]
        self.label_space = label_spaces[0] if label_spaces else None
        for space in label_spaces[1:]:
            # Deep equality: two spaces of the same size can still map one
            # label index onto different configurations (the reduction is
            # data-dependent), and combining those would be silently wrong.
            if label_space_to_dict(space) != label_space_to_dict(self.label_space):
                raise ValueError("ensemble members carry conflicting label spaces")
        if self.label_space is not None and self.label_space.num_labels != num_classes:
            raise ValueError(
                f"model heads emit {num_classes} labels but the label space "
                f"defines {self.label_space.num_labels} configurations"
            )

        # The cache key is prefixed with a digest of the exact member
        # versions, so one shared cache never replays logits produced by a
        # different model set.
        version_set = sorted(str(a.ref) for a in self._members.values())
        self.version_set_id = hashlib.sha256(
            "|".join(version_set).encode("utf-8")
        ).hexdigest()[:16]

        self._combine = _COMBINERS[strategy]
        # Fold-stacked engine path: every member's weights stacked into
        # (F, in, out) tensors, so one plan + one sweep answers all folds.
        # Members whose architectures differ (allowed, as long as vocabulary
        # and head size match) cannot stack; they fall back to a per-fold
        # loop over the same shared plan — still stateless, still lock-free.
        try:
            self._stacked: Optional[StackedFoldModel] = StackedFoldModel(
                [artifact.model for artifact in self._members.values()]
            )
        except IncompatibleFoldsError:
            self._stacked = None
        super().__init__(
            batching=batching, latency_window=latency_window, cache=cache, pool=pool
        )

    # --------------------------------------------------------- constructors
    @classmethod
    def from_registry(
        cls,
        root: str,
        base: str,
        folds: Optional[Sequence[int]] = None,
        verify: bool = True,
        **knobs,
    ) -> "EnsemblePredictionService":
        """Discover and load every ``<base>-fold<k>`` artefact under ``root``.

        ``folds`` restricts membership to a subset of fold indices; each
        member is the *latest* version of its model name.  ``knobs`` are
        the constructor's keywords (``strategy``, ``batching``, ...).
        """
        registry = ArtifactRegistry(root)
        member_names = registry.fold_members(base)
        if folds is not None:
            wanted = set(folds)
            missing = wanted - set(member_names)
            if missing:
                raise ArtifactNotFoundError(
                    f"no exported fold(s) {sorted(missing)} for base {base!r} in {root}"
                )
            member_names = {k: v for k, v in member_names.items() if k in wanted}
        if not member_names:
            raise ArtifactNotFoundError(
                f"no '<base>-fold<k>' artefacts for base {base!r} in {root}"
            )
        # One canonical latest-version resolution per member (resolve()),
        # then load the concrete refs it produced.
        member_refs = {
            fold: registry.resolve(name) for fold, name in member_names.items()
        }
        members = {
            fold: registry.load(ref.name, ref.version, verify=verify)
            for fold, ref in member_refs.items()
        }
        return cls(members, **knobs)

    # ------------------------------------------------------------ properties
    @property
    def num_members(self) -> int:
        return len(self._members)

    @property
    def members(self) -> Dict[int, LoadedArtifact]:
        return dict(self._members)

    # -------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, object]:
        """Serving stats plus ensemble composition, JSON-friendly."""
        snapshot = super().snapshot()
        snapshot["strategy"] = self.strategy
        snapshot["num_members"] = self.num_members
        snapshot["members"] = [str(a.ref) for a in self._members.values()]
        snapshot["fold_stacked"] = self._stacked is not None
        return snapshot

    def describe(self) -> Dict[str, object]:
        return {
            "service": "ensemble",
            "strategy": self.strategy,
            "members": [str(a.ref) for a in self._members.values()],
            "version_set_id": self.version_set_id,
            "num_labels": self.num_labels,
            "has_label_space": self.label_space is not None,
            "fold_stacked": self._stacked is not None,
        }

    # ------------------------------------------------------------ internals
    def _cache_key(self, fingerprint: str) -> str:
        return f"{self.version_set_id}:{fingerprint}"

    def _fold_fanout(self) -> int:
        return self.num_members

    def _journal_identity(self) -> Optional[str]:
        return ",".join(str(a.ref) for a in self._members.values())

    def _forward_batch(
        self, batch, size: int, trace: Optional[Dict[str, float]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One planned engine pass for the whole ensemble.

        The plan is built once per micro-batch and fanned to every fold:
        the stacked path answers all members in a single sweep (one batched
        matmul per weight, one CSR traversal per relation per layer), the
        fallback loops members over the same shared plan.  Either way the
        pass is stateless — concurrent micro-batches overlap freely.

        Returns arrays of shape ``(size, num_folds, ...)`` so row ``j`` is
        the ``(num_folds, num_labels)`` / ``(num_folds, vector_dim)`` stack
        for graph ``j`` — one cache entry replays every member at once.
        """
        with span(trace, "plan_build_s"):
            plan = build_plan(batch)
        if self._stacked is not None:
            # Batch-major stacks straight from the engine: row j is the
            # (num_folds, ...) stack for graph j.
            with span(trace, "infer_s"):
                logits, vectors = self._stacked.infer(plan)  # (B, F, L), (B, F, D)
            self.stats.record_batch(size, folds=self.num_members, stacked=True)
            return logits, vectors
        per_fold_logits: List[np.ndarray] = []
        per_fold_vectors: List[np.ndarray] = []
        with span(trace, "infer_s"):
            for artifact in self._members.values():
                logits, vectors = artifact.model.infer(plan)
                per_fold_logits.append(logits)
                per_fold_vectors.append(vectors)
        self.stats.record_batch(size, folds=self.num_members, stacked=False)
        return (
            np.stack(per_fold_logits, axis=1),  # (B, F, L)
            np.stack(per_fold_vectors, axis=1),  # (B, F, D)
        )

    def _build_result(
        self,
        graph: EncodedGraph,
        fingerprint: str,
        row: Tuple[np.ndarray, np.ndarray],
        cache_hit: bool,
        latency_s: float,
    ) -> EnsemblePredictionResult:
        stacked_logits, stacked_vectors = row
        label, probabilities = self._combine(stacked_logits)
        return self._assemble_result(
            graph,
            fingerprint,
            label=label,
            probabilities=probabilities,
            mean_vector=stacked_vectors.mean(axis=0),
            fold_argmax=np.argmax(stacked_logits, axis=1),
            needs_profiling=self._needs_profiling(stacked_vectors[None])[0],
            cache_hit=cache_hit,
            latency_s=latency_s,
        )

    def _build_results(self, graphs, fingerprints, rows, hit_flags, latencies):
        """Batch-vectorised result construction.

        The per-request combination work (softmax, fold argmax, mean
        vector) is row-wise, so one vectorised pass over the whole call's
        ``(B, F, ...)`` stacks produces bit-identical values to the
        per-request :meth:`_build_result` at a fraction of the per-request
        overhead — this is what keeps the serving cost of an ensemble
        sub-linear in its member count end to end, not just in the forward.
        """
        if not rows:
            return []
        stacked_logits = np.stack([row[0] for row in rows])  # (B, F, L)
        stacked_vectors = np.stack([row[1] for row in rows])  # (B, F, D)
        fold_argmax = np.argmax(stacked_logits, axis=2)  # (B, F)
        mean_vectors = stacked_vectors.mean(axis=1)  # (B, D)
        if self.strategy == "mean-softmax":
            # softmax/mean/argmax are all row-wise: identical bits to the
            # per-request combine_mean_softmax.
            all_probabilities = softmax(stacked_logits, axis=2).mean(axis=1)
            labels = [int(label) for label in np.argmax(all_probabilities, axis=1)]
        else:
            combined = [self._combine(row[0]) for row in rows]
            labels = [label for label, _ in combined]
            all_probabilities = [probabilities for _, probabilities in combined]
        needs_profiling = self._needs_profiling(stacked_vectors)
        return [
            self._assemble_result(
                graph,
                fingerprint,
                label=labels[i],
                probabilities=all_probabilities[i],
                mean_vector=mean_vectors[i],
                fold_argmax=fold_argmax[i],
                needs_profiling=needs_profiling[i],
                cache_hit=hit,
                latency_s=latency,
            )
            for i, (graph, fingerprint, hit, latency) in enumerate(
                zip(graphs, fingerprints, hit_flags, latencies)
            )
        ]

    def _assemble_result(
        self,
        graph: EncodedGraph,
        fingerprint: str,
        label: int,
        probabilities: np.ndarray,
        mean_vector: np.ndarray,
        fold_argmax: np.ndarray,
        needs_profiling: Optional[bool],
        cache_hit: bool,
        latency_s: float,
    ) -> EnsemblePredictionResult:
        per_fold_labels = {
            fold: int(fold_argmax[idx]) for idx, fold in enumerate(self._fold_indices)
        }
        agreement = float(np.mean(fold_argmax == label))
        configuration = (
            self.label_space.configuration_of(label)
            if self.label_space is not None
            else None
        )
        return EnsemblePredictionResult(
            name=graph.name,
            fingerprint=fingerprint,
            label=label,
            probabilities=np.array(probabilities, dtype=np.float64, copy=True),
            # Mean across folds; copied so callers can mutate freely even on
            # a cache hit (the stacked row aliases the shared cache entry).
            graph_vector=np.array(mean_vector, dtype=np.float64, copy=True),
            configuration=configuration,
            needs_profiling=needs_profiling,
            per_fold_labels=per_fold_labels,
            agreement=agreement,
            unanimous=bool(np.all(fold_argmax == fold_argmax[0])),
            cache_hit=cache_hit,
            latency_s=latency_s,
        )

    def _needs_profiling(self, stacked_vectors: np.ndarray) -> List[Optional[bool]]:
        """Majority vote of the members' hybrid classifiers, per row.

        ``stacked_vectors`` is ``(B, F, D)``; each member's classifier runs
        once over its ``(B, D)`` slice (the trees are row-wise, so this is
        the same vote as one call per request).  ``None`` rows when no
        member has a hybrid classifier.
        """
        votes = np.zeros(len(stacked_vectors), dtype=np.int64)
        voters = 0
        for idx, artifact in enumerate(self._members.values()):
            if artifact.hybrid is None:
                continue
            votes += artifact.hybrid.needs_dynamic(stacked_vectors[:, idx, :])
            voters += 1
        if not voters:
            return [None] * len(stacked_vectors)
        # Ties fall to True: when the folds are split, profiling is the
        # conservative answer (same spirit as the hybrid model's threshold).
        return [bool(count * 2 >= voters) for count in votes]
