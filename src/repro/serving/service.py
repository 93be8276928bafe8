"""Online prediction service over a trained static RGCN predictor.

Turns the offline one-shot pipeline into a request-serving layer:

* **sync** — :meth:`PredictionService.predict` / :meth:`predict_many`
  answer immediately, batching all cache misses of a call into as few RGCN
  forward passes as possible;
* **async** — :meth:`submit` enqueues a request on the front-end's
  :class:`~repro.serving.batcher.PooledBatcher` and returns a future;
  concurrent requests are coalesced into micro-batches (up to
  ``batching.max_batch_size`` requests or ``batching.max_delay_s`` of
  queueing, whichever comes first).  The queue is drained by the
  :class:`~repro.serving.batcher.BatcherWorkerPool` passed as ``pool=``
  (a hub passes its shared one) or, without one, by a private one-worker
  pool the front-end builds on :meth:`start`/:meth:`submit` and closes on
  :meth:`stop`;
* **cache** — results are keyed on the canonical graph fingerprint, so
  repeated regions skip the RGCN forward pass and replay the cached
  logits/graph vector.  The caller passes the
  :class:`~repro.serving.cache.EmbeddingCache` (or ``None``); a front-end
  never builds or warms one of its own.  (Encoding and fingerprinting are
  still paid per request — the fingerprint *is* the cache key; submit
  pre-encoded :class:`EncodedGraph` requests to amortise encoding too.)

Requests may be pre-encoded (:class:`EncodedGraph`) or raw
(:class:`ProgramGraph`, encoded on arrival with the service's vocabulary).
"""

from __future__ import annotations

import hashlib
import itertools
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..concurrency import TrackedLock
from ..core.hybrid_model import HybridStaticDynamicClassifier
from ..core.labeling import LabelSpace
from ..engine import PlanShape, build_plan
from ..gnn.losses import softmax
from ..gnn.model import StaticRGCNModel
from ..graphs.batching import collate
from ..graphs.features import EncodedGraph, GraphEncoder
from ..graphs.fingerprint import graph_fingerprint
from ..graphs.graph import ProgramGraph
from ..numasim.configuration import Configuration
from .batcher import BatcherWorkerPool, BatchingConfig, PooledBatcher
from .cache import EmbeddingCache
from .costmodel import (
    LatencyCostModel,
    OverCapacityError,
    build_admission,
    estimate_capacity,
)
from .registry import ArtifactRef, ArtifactRegistry, LoadedArtifact
from .stats import ServingStats
from .trace import consume_queue_waits, span

#: a serving request: an already-encoded graph or a raw program graph.
Request = Union[EncodedGraph, ProgramGraph]

#: Process-wide micro-batch sequence numbers.  Every member of one forward
#: batch journals the same ``batch.seq``, which is what lets the cost-model
#: calibrator deduplicate per-request records back into per-batch rows.
_BATCH_SEQ = itertools.count(1)


def _model_digest(model: StaticRGCNModel) -> str:
    """Digest of the exact weights, used to namespace cache keys."""
    hasher = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        hasher.update(name.encode("utf-8"))
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()[:16]


@dataclass
class PredictionResult:
    """Everything the service knows about one answered request."""

    name: str
    fingerprint: str
    label: int
    probabilities: np.ndarray
    graph_vector: np.ndarray
    configuration: Optional[Configuration]
    needs_profiling: Optional[bool]
    cache_hit: bool
    latency_s: float
    #: per-stage span timings of this request (see :mod:`repro.serving.trace`);
    #: batch-level spans report what the request's batch paid.
    trace: Optional[Dict[str, float]] = None


class ServingFrontend:
    """Shared plumbing of the serving front-ends.

    Subclasses provide ``encoder`` and the model hooks behind
    :meth:`predict_many` (``_forward_batch``, ``_build_result``, ...);
    this base owns the serving knobs (``batching``, the stats
    ``latency_window``, the caller's ``cache`` and batcher ``pool``) and
    contributes request encoding/validation, the on-demand micro-batch
    queue behind :meth:`submit`, and cache persistence for warm restarts —
    one implementation for both the single-fold and the ensemble service.
    """

    encoder: GraphEncoder

    def __init__(
        self,
        batching: Optional[BatchingConfig] = None,
        latency_window: int = 4096,
        cache: Optional[EmbeddingCache] = None,
        pool: Optional[BatcherWorkerPool] = None,
    ) -> None:
        self.batching = batching if batching is not None else BatchingConfig()
        self.stats = ServingStats(latency_window=latency_window)
        # Shared verbatim: a hub backs every deployment with one cache, and
        # keys carry a model digest, so co-tenants never replay each
        # other's logits.
        self.cache = cache
        self._batcher_lock = TrackedLock("frontend.batcher")
        self._batcher: Optional[PooledBatcher] = None
        self._auto_start = False
        #: the pool draining this front-end's queue: the caller's (a hub
        #: passes its shared pool) or, when none was given, a private
        #: one-worker pool built on demand and closed by :meth:`stop`.
        self._pool = pool
        self._private_pool: Optional[BatcherWorkerPool] = None
        #: optional prediction journal (see :mod:`repro.serving.journal`);
        #: bound by the hub via :meth:`bind_journal`, ``None`` costs nothing.
        self._journal = None
        self._journal_model: Optional[str] = None
        self._journal_artifact: Optional[str] = None
        #: SLO + cost-model bindings (see :meth:`bind_slo`): the latency
        #: target drives deadline-aware batch closing, the admission
        #: controller sheds load the budgets cannot absorb.  All ``None``
        #: by default — an unbound frontend behaves exactly as before.
        self._slo = None
        self._cost_model: Optional[LatencyCostModel] = None
        self._latency_target_s: Optional[float] = None
        self._admission = None

    def bind_slo(self, slo, cost_model: Optional[LatencyCostModel] = None) -> None:
        """Attach a deployment SLO (and optionally a calibrated cost model).

        ``slo`` is duck-typed (``p95_ms`` / ``max_queue_ms`` /
        ``max_concurrency`` / ``shed_policy`` attributes — the hub passes a
        :class:`~repro.serving.deployment.SLOConfig`).  Rebinding is safe
        under load: predictions read ``self._cost_model`` at call time, so
        a hot-reloaded calibration takes effect on the next batch.  The
        batcher's latency target is only picked up by batchers created
        after the bind, which is why the hub binds before installing.
        """
        self._slo = slo
        self._cost_model = cost_model
        p95_ms = getattr(slo, "p95_ms", None) if slo is not None else None
        self._latency_target_s = p95_ms / 1000.0 if p95_ms else None
        self._admission = build_admission(
            slo,
            cost_model,
            folds=self._fold_fanout(),
            max_batch_size=self.batching.max_batch_size,
            name=self._journal_model or "frontend",
        )

    def _estimate_batch_cost(self, items: List[EncodedGraph]) -> Optional[float]:
        """Predicted latency of one batch of encoded graphs (the batcher's
        cost estimator); ``None`` until a cost model is bound."""
        model = self._cost_model
        if model is None:
            return None
        return model.predict_batch_latency(
            PlanShape.of_encoded(items), folds=self._fold_fanout()
        )

    @contextmanager
    def admission_guard(self, count: int = 1):
        """Reserve ``count`` admission slots for a sync call (no-op when no
        admission budget is bound).  Shed requests are counted in stats."""
        admission = self._admission
        if admission is None:
            yield
            return
        try:
            admission.acquire(count)
        except OverCapacityError:
            self.stats.record_shed(count)
            raise
        try:
            yield
        finally:
            admission.release(count)

    def capacity(self) -> Dict[str, object]:
        """Predicted vs measured operating point of this frontend.

        One entry of ``hub.capacity_report()``: the SLO knobs, the cost
        model's predicted sustainable throughput (``None`` until a model is
        bound), the measured p95 and whether it honours the target.
        """
        slo = self._slo
        model = self._cost_model
        measured_p95_s = self.stats.latency_percentile(95)
        target_s = self._latency_target_s
        entry: Dict[str, object] = {
            "slo": (
                {
                    "p95_ms": getattr(slo, "p95_ms", None),
                    "max_queue_ms": getattr(slo, "max_queue_ms", None),
                    "max_concurrency": getattr(slo, "max_concurrency", None),
                    "shed_policy": getattr(slo, "shed_policy", "none"),
                }
                if slo is not None
                else None
            ),
            "folds": self._fold_fanout(),
            "max_batch_size": self.batching.max_batch_size,
            "measured_p95_s": measured_p95_s,
            "within_slo": (
                bool(measured_p95_s <= target_s) if target_s is not None else None
            ),
            "admission": (
                self._admission.stats() if self._admission is not None else None
            ),
            "predicted": None,
        }
        if model is not None:
            entry["predicted"] = estimate_capacity(
                model,
                folds=self._fold_fanout(),
                max_batch_size=self.batching.max_batch_size,
                p95_target_s=target_s,
            )
        return entry

    def bind_journal(self, journal, model_name: str) -> None:
        """Attach a prediction journal; every answered request is recorded.

        ``model_name`` is the deployment name the records are filed under
        (the hub binds its deployment name; a directly-embedded service can
        bind any label).  The resolved artifact identity is captured once,
        here, so the hot path never recomputes it.
        """
        self._journal = journal
        self._journal_model = model_name
        self._journal_artifact = self._journal_identity()

    def _journal_identity(self) -> Optional[str]:
        """Resolved artifact version string recorded with every journal entry."""
        return None

    # ----------------------------------------------------------- sync paths
    def predict(self, request: Request):
        """Answer one request (batch-of-one on a cache miss)."""
        return self.predict_many([request])[0]

    def predict_many(self, requests: Sequence[Request]) -> List[object]:
        """Answer several requests with as few forward passes as possible.

        Cache misses are grouped into batches of up to ``max_batch_size``
        graphs and handed to the subclass's :meth:`_forward_batch`; hits
        (and in-call duplicates) replay cached rows without touching any
        model.
        """
        start = time.perf_counter()
        # Queue waits published by the batcher worker for exactly this call
        # (None on the direct sync path).
        queue_waits = consume_queue_waits(len(requests))
        encoded = [self._encode(request) for request in requests]
        fingerprints = [graph_fingerprint(graph) for graph in encoded]

        traces: List[Dict[str, float]] = [{} for _ in encoded]
        if queue_waits is not None:
            for trace, wait in zip(traces, queue_waits):
                trace["queue_wait_s"] = wait
                self.stats.record_stage("queue_wait", wait)

        rows: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(encoded)
        hit_flags = [False] * len(encoded)
        pending: List[int] = []
        seen_pending: Dict[str, List[int]] = {}
        for i, fingerprint in enumerate(fingerprints):
            if fingerprint in seen_pending:
                # Duplicate within one call: compute once, share the row
                # (checked first so duplicates don't inflate cache misses).
                seen_pending[fingerprint].append(i)
                continue
            entry = (
                self.cache.get(self._cache_key(fingerprint))
                if self.cache is not None
                else None
            )
            if entry is not None:
                rows[i] = (entry.logits, entry.graph_vector)
                hit_flags[i] = True
            else:
                seen_pending[fingerprint] = [i]
                pending.append(i)
        lookup_latency = time.perf_counter() - start
        # The encode+fingerprint+lookup phase is one shared pass over the
        # whole call; every request of the call paid it.
        self.stats.record_stage("cache_lookup", lookup_latency)
        for trace in traces:
            trace["cache_lookup_s"] = lookup_latency

        batch_sizes = [0] * len(encoded)  # 0 = answered from cache
        batch_infos: List[Optional[Dict[str, int]]] = [None] * len(encoded)
        for offset in range(0, len(pending), self.batching.max_batch_size):
            chunk = pending[offset : offset + self.batching.max_batch_size]
            chunk_graphs = [encoded[i] for i in chunk]
            batch = collate(chunk_graphs)
            # The collated shape, journalled with every member of the batch:
            # the cost-model calibrator's features.  Computed from the
            # encoded graphs (not the built plan) so calibration and the
            # batcher's pre-collation predictions share one feature scale.
            shape = PlanShape.of_encoded(chunk_graphs)
            batch_info = {
                "seq": next(_BATCH_SEQ),
                "graphs": shape.num_graphs,
                "nodes": shape.num_nodes,
                "edges": shape.num_edges,
                "relations": shape.num_relations,
                "folds": self._fold_fanout(),
            }
            batch_trace: Dict[str, float] = {}
            logits_rows, vector_rows = self._forward_batch(
                batch, len(chunk), batch_trace
            )
            for stage in ("plan_build", "infer"):
                if f"{stage}_s" in batch_trace:
                    self.stats.record_stage(stage, batch_trace[f"{stage}_s"])
            for j, i in enumerate(chunk):
                fingerprint = fingerprints[i]
                row = (logits_rows[j], vector_rows[j])
                for duplicate in seen_pending[fingerprint]:
                    rows[duplicate] = row
                    batch_sizes[duplicate] = len(chunk)
                    batch_infos[duplicate] = batch_info
                    traces[duplicate].update(batch_trace)
                if self.cache is not None:
                    self.cache.put(self._cache_key(fingerprint), row[0], row[1])

        total_latency = time.perf_counter() - start
        for row in rows:
            assert row is not None  # every index is a hit, pending or duplicate
        # Cache hits were answered by the lookup phase alone; only misses
        # paid for the forward passes.  Recording them apart keeps the
        # latency percentiles honest about the cache.
        latencies = [
            lookup_latency if hit else total_latency for hit in hit_flags
        ]
        combine_start = time.perf_counter()
        results = self._build_results(
            encoded, fingerprints, rows, hit_flags, latencies
        )
        combine_s = time.perf_counter() - combine_start
        self.stats.record_stage("combine", combine_s)
        for i, result in enumerate(results):
            trace = traces[i]
            trace["combine_s"] = combine_s
            trace["total_s"] = latencies[i]
            result.trace = trace
        for latency, hit in zip(latencies, hit_flags):
            self.stats.record_request(latency, hit)
        journal = self._journal
        if journal is not None:
            recorded_at = time.time()
            for i, result in enumerate(results):
                journal.record(
                    {
                        "ts": recorded_at,
                        "model": self._journal_model,
                        "artifact": self._journal_artifact,
                        "fingerprint": fingerprints[i],
                        "label": int(result.label),
                        "agreement": getattr(result, "agreement", None),
                        "cache_hit": bool(hit_flags[i]),
                        "batch_size": batch_sizes[i],
                        # Collated shape of this request's batch (None for
                        # cache hits, which ran no batch) — the cost-model
                        # calibrator's per-batch features.
                        "batch": batch_infos[i],
                        "latency_s": float(latencies[i]),
                        "stages": dict(traces[i]),
                        # Raw graph (serialized off the hot path by the
                        # writer thread) so recorded traffic can be replayed;
                        # pre-encoded requests carry no replayable graph.
                        "graph": getattr(encoded[i], "source_graph", None),
                    }
                )
        return results

    # ------------------------------------------------------ subclass hooks
    def _cache_key(self, fingerprint: str) -> str:
        """Cache key for one fingerprint (subclasses add a model digest)."""
        raise NotImplementedError

    def cache_namespace(self) -> str:
        """Prefix of every cache key this service writes.

        Several services can share one :class:`EmbeddingCache` (the hub
        deploys many models over one cache); this prefix is what keeps
        their entries apart, and what per-model telemetry counts via
        :meth:`EmbeddingCache.namespace_size`.
        """
        return self._cache_key("")

    def _fold_fanout(self) -> int:
        """How many fold models each execution plan fans out to."""
        return 1

    def _forward_batch(self, batch, size: int, trace: Optional[Dict[str, float]] = None):
        """Run the engine over one collated batch of ``size`` graphs.

        Implementations build one :class:`~repro.engine.ExecutionPlan` per
        batch and evaluate it statelessly — no locks: concurrent calls
        (overlapping micro-batches, parallel ``predict_many`` callers)
        are safe by construction.  Returns ``(logits_rows, vector_rows)``,
        each indexable by position within the batch; one row becomes one
        cache entry.  When ``trace`` is given, implementations fill the
        ``plan_build_s`` and ``infer_s`` spans into it.
        """
        raise NotImplementedError

    def _build_result(self, graph, fingerprint, row, cache_hit, latency_s):
        """Turn one cached-or-computed row into the service's result type."""
        raise NotImplementedError

    def _build_results(self, graphs, fingerprints, rows, hit_flags, latencies):
        """Turn one call's rows into results; default is the per-item loop.

        Subclasses may override to batch the row post-processing (the
        ensemble vectorises its probability combination across the whole
        call) — overrides must stay element-wise equivalent to
        :meth:`_build_result`.
        """
        return [
            self._build_result(graph, fingerprint, row, hit, latency)
            for graph, fingerprint, row, hit, latency in zip(
                graphs, fingerprints, rows, hit_flags, latencies
            )
        ]

    # ---------------------------------------------------------- async path
    def _ensure_batcher_locked(self) -> PooledBatcher:
        """Create the queue (and a private pool when no pool was given) if
        absent; caller must hold ``_batcher_lock``."""
        if self._batcher is None:
            pool = self._pool
            if pool is None:
                pool = self._private_pool = BatcherWorkerPool(workers=1)
            self._batcher = pool.batcher_factory(
                self.predict_many,
                max_batch_size=self.batching.max_batch_size,
                max_wait_s=self.batching.max_delay_s,
                fanout=self._fold_fanout(),
                # Deadline-aware closing: the estimator reads the *current*
                # cost model at call time, so a hot-reloaded calibration
                # applies without rebuilding the queue.  Inert until both
                # a model and a p95 target are bound.
                cost_estimator=self._estimate_batch_cost,
                latency_target_s=self._latency_target_s,
            )
        return self._batcher

    def start(self) -> "ServingFrontend":
        """Start dispatching the micro-batch queue behind :meth:`submit`."""
        with self._batcher_lock:
            self._auto_start = True
            self._ensure_batcher_locked().start()
        return self

    def submit(self, request: Request) -> Future:
        """Enqueue one request; resolves to one :meth:`predict_many` result.

        Requests submitted before the first :meth:`start` queue up and are
        answered — typically as one batch — once the service starts; once a
        service has been started, later submits (including after a
        :meth:`stop`) restart the queue (and a private pool) on demand.
        Invalid requests are rejected here, before they can poison a whole
        micro-batch.
        """
        encoded = self._encode(request)
        # Admission first: a shed request must never occupy queue space.
        # The slot is held until the future resolves (the batcher ran or
        # failed it), so inflight == queued + running.
        admission = self._admission
        if admission is not None:
            try:
                admission.acquire(1)
            except OverCapacityError:
                self.stats.record_shed(1)
                raise
        try:
            # Enqueue under the lock so a concurrent stop() cannot close the
            # batcher between the lookup and the submit.
            with self._batcher_lock:
                batcher = self._ensure_batcher_locked()
                if self._auto_start:
                    batcher.start()
                future = batcher.submit(encoded)
        except BaseException:
            if admission is not None:
                admission.release(1)
            raise
        if admission is not None:
            future.add_done_callback(lambda _future: admission.release(1))
        return future

    def stop(self) -> None:
        """Drain queued requests and detach from the pool; a private pool
        is closed too (a shared one keeps serving its other queues)."""
        with self._batcher_lock:
            batcher, self._batcher = self._batcher, None
            private, self._private_pool = self._private_pool, None
        if batcher is not None:
            batcher.close()
        if private is not None:
            private.close()

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, object]:
        """One JSON-friendly view of the service: stats + cache (if any).

        Subclasses extend this with their identity fields; the HTTP
        front-end renders it verbatim under ``GET /metrics``.
        """
        snapshot = self.stats.snapshot()
        if self.cache is not None:
            snapshot["cache"] = self.cache.stats()
        with self._batcher_lock:
            batcher = self._batcher
        snapshot["batcher"] = batcher.telemetry() if batcher is not None else None
        if self._admission is not None:
            snapshot["admission"] = self._admission.stats()
        return snapshot

    def describe(self) -> Dict[str, object]:
        """Identity of what is being served (rendered by ``GET /healthz``)."""
        raise NotImplementedError

    # ------------------------------------------------------------- warm-up
    def dump_cache(self, path: str) -> int:
        """Persist the embedding cache for a future warm start."""
        if self.cache is None:
            raise RuntimeError("cache is disabled; nothing to dump")
        return self.cache.dump(path)

    def warm_up(self, path: str) -> int:
        """Load a previously dumped cache; returns entries loaded.

        Entries whose keys don't belong to this service (e.g. an ensemble
        dump from a different model-version set) load but never match, so
        a mismatched warm-up file degrades to a cold start, not to wrong
        answers.
        """
        if self.cache is None:
            raise RuntimeError("cache is disabled; cannot warm up")
        return self.cache.load(path)

    # ------------------------------------------------------------ internals
    def _encode(self, request: Request) -> EncodedGraph:
        if isinstance(request, EncodedGraph):
            return request
        if isinstance(request, ProgramGraph):
            encoded = self.encoder.encode(request)
            # Keep a handle on the source graph so the prediction journal
            # can record replayable traffic even on the async submit path
            # (which pre-encodes before enqueueing).  Requests submitted
            # already-encoded carry no replayable graph.
            encoded.source_graph = request
            return encoded
        raise TypeError(
            f"requests must be EncodedGraph or ProgramGraph, got {type(request).__name__}"
        )


class PredictionService(ServingFrontend):
    """Serves configuration predictions from a trained model."""

    def __init__(
        self,
        model: StaticRGCNModel,
        encoder: GraphEncoder,
        label_space: Optional[LabelSpace] = None,
        hybrid: Optional[HybridStaticDynamicClassifier] = None,
        *,
        batching: Optional[BatchingConfig] = None,
        latency_window: int = 4096,
        cache: Optional[EmbeddingCache] = None,
        pool: Optional[BatcherWorkerPool] = None,
    ):
        self.model = model
        self.model.eval()
        self.encoder = encoder
        if label_space is not None and model.config.num_classes != label_space.num_labels:
            # Caught here, not at prediction time: a mismatched head would
            # otherwise emit labels with no configuration (or never emit the
            # tail of the label space) and every result would silently carry
            # ``configuration=None``.
            raise ValueError(
                f"model head emits {model.config.num_classes} labels but the "
                f"label space defines {label_space.num_labels} configurations; "
                f"the service cannot map predictions onto configurations"
            )
        self.label_space = label_space
        self.hybrid = hybrid
        # Cache keys carry a digest of the exact weights, so a warm-up file
        # dumped by a *different* model version never replays stale logits
        # — it simply never matches, degrading to a cold start.
        self.model_id = _model_digest(model)
        #: registry address of the served artefact; ``None`` when the service
        #: wraps a bare in-memory model (set by :meth:`from_artifact`).
        self.artifact_ref: Optional[ArtifactRef] = None
        # No forward lock: inference runs through the stateless engine path
        # (``StaticRGCNModel.infer``), which never touches the training-time
        # activation caches, so concurrent micro-batches simply overlap.
        super().__init__(
            batching=batching, latency_window=latency_window, cache=cache, pool=pool
        )

    # --------------------------------------------------------- constructors
    @classmethod
    def from_artifact(cls, artifact: LoadedArtifact, **knobs) -> "PredictionService":
        """Build a service around a registry artefact; ``knobs`` are the
        constructor's serving keywords (``batching``, ``cache``, ...)."""
        service = cls(
            model=artifact.model,
            encoder=artifact.encoder,
            label_space=artifact.label_space,
            hybrid=artifact.hybrid,
            **knobs,
        )
        service.artifact_ref = artifact.ref
        return service

    @classmethod
    def from_registry(
        cls, root: str, name: str, version: Optional[str] = None, **knobs
    ) -> "PredictionService":
        """Load (and integrity-check) an artefact, then serve it."""
        registry = ArtifactRegistry(root)
        # resolve() is the one canonical name/version check; load() then
        # works on a concrete, validated ref.
        ref = registry.resolve(name, version)
        artifact = registry.load(ref.name, ref.version)
        return cls.from_artifact(artifact, **knobs)

    # -------------------------------------------------------------- export
    def describe(self) -> Dict[str, object]:
        return {
            "service": "single",
            "artifact": str(self.artifact_ref) if self.artifact_ref else None,
            "model_id": self.model_id,
            "num_labels": self.model.config.num_classes,
            "has_label_space": self.label_space is not None,
            "has_hybrid": self.hybrid is not None,
        }

    def snapshot(self) -> Dict[str, object]:
        snapshot = super().snapshot()
        snapshot["artifact"] = str(self.artifact_ref) if self.artifact_ref else None
        snapshot["model_id"] = self.model_id
        return snapshot

    # ------------------------------------------------------------ internals
    def _cache_key(self, fingerprint: str) -> str:
        return f"{self.model_id}:{fingerprint}"

    def _journal_identity(self) -> Optional[str]:
        return str(self.artifact_ref) if self.artifact_ref else self.model_id

    def _forward_batch(
        self, batch, size: int, trace: Optional[Dict[str, float]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        with span(trace, "plan_build_s"):
            plan = build_plan(batch)
        with span(trace, "infer_s"):
            logits, vectors = self.model.infer(plan)
        self.stats.record_batch(size)
        return logits, vectors

    def _build_result(
        self,
        graph: EncodedGraph,
        fingerprint: str,
        row: Tuple[np.ndarray, np.ndarray],
        cache_hit: bool,
        latency_s: float,
    ) -> PredictionResult:
        logits, vector = row
        label = int(np.argmax(logits))
        probabilities = softmax(logits[None, :], axis=1)[0]
        # Construction validated head size == label-space size, so every
        # emitted label maps onto a real configuration.
        configuration = (
            self.label_space.configuration_of(label)
            if self.label_space is not None
            else None
        )
        needs_profiling = (
            bool(self.hybrid.needs_dynamic(vector[None, :])[0])
            if self.hybrid is not None
            else None
        )
        return PredictionResult(
            name=graph.name,
            fingerprint=fingerprint,
            label=label,
            probabilities=probabilities,
            # Copy: on a cache hit ``vector`` aliases the shared cache entry,
            # and callers may mutate their result freely.
            graph_vector=np.array(vector, dtype=np.float64, copy=True),
            configuration=configuration,
            needs_profiling=needs_profiling,
            cache_hit=cache_hit,
            latency_s=latency_s,
        )
