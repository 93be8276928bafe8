"""Calibrated latency cost model, admission control and capacity estimates.

The serving analogue of the paper's performance modelling: predict what a
micro-batch will cost *before* running it, from plan shape alone, in the
``pure work x measured overhead factor`` style of the WSE-2 SUMMA compute
model.  The model is deliberately analytic — three affine stage models over
:class:`~repro.engine.PlanShape` features:

* ``plan_build_s  ~ a*nodes + b*edges + c``           (collation + CSR build)
* ``infer_s       ~ folds*(a*nodes + b*edges + c*graphs) + d``
* ``overhead_s    ~ a*graphs + b``                    (everything else)

and ``predict_batch_latency`` is their clamped sum.  The factors are not
guessed: :class:`CostModelCalibrator` fits them by least squares over the
per-stage spans the prediction journal already records for every served
batch (``JournalReader.calibration_rows``), refitting without the spans
whose residual is an outlier (a GC pause or a preempted thread), so the
model tracks the box it runs on.  A fitted model round-trips through the artifact registry
(:func:`save_cost_model` / :func:`load_cost_model`) as a versioned
``cost-model`` artifact, which is what makes it hot-reloadable on a hub.

The predictions are *spent* in three places:

* the batchers seal a forming batch when the model predicts one more add
  would blow the deployment's p95 target (deadline-aware closing);
* :class:`AdmissionController` converts predicted cost + the deployment's
  SLO into concurrency/QPS budgets and sheds excess load with
  :class:`OverCapacityError` (the HTTP layer maps it to a structured 429
  with ``Retry-After``);
* :func:`estimate_capacity` answers "this deployment sustains X QPS at
  p95 < Y ms", which feeds ``hub.capacity_report()`` / ``GET /v1/capacity``.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import shutil
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..concurrency import TrackedLock
from ..engine import PlanShape
from .journal import calibration_rows as _extract_calibration_rows
from .registry import (
    MANIFEST_FILE,
    REGISTRY_FORMAT_VERSION,
    SAVE_ALLOCATION_RETRIES,
    ArtifactError,
    ArtifactRef,
    ArtifactRegistry,
)

#: Manifest ``kind`` distinguishing cost-model artifacts from model weights.
COST_MODEL_KIND = "cost-model"
#: Payload file inside a cost-model artifact version directory.
COST_MODEL_FILE = "costmodel.json"
#: Default registry name for the box's latency model.
DEFAULT_COST_MODEL_NAME = "latency-cost-model"
#: Serialization schema version for :meth:`LatencyCostModel.to_dict`.
COST_MODEL_SCHEMA_VERSION = 1

#: Latencies below this are treated as zero when computing relative errors.
_MAPE_FLOOR_S = 1e-6


class CalibrationError(ValueError):
    """Raised when the journal holds too little data to fit a model."""


class OverCapacityError(RuntimeError):
    """A deployment's admission budget is exhausted; retry later.

    ``retry_after_s`` is the controller's estimate of when capacity frees
    up (the HTTP layer rounds it up into a ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


def _predict_affine(coefficients: Sequence[float], features: Sequence[float]) -> float:
    """Clamped affine prediction — stage latencies are never negative."""
    total = 0.0
    for coefficient, feature in zip(coefficients, features):
        total += coefficient * feature
    return max(0.0, total)


@dataclass(frozen=True)
class LatencyCostModel:
    """Analytic per-micro-batch latency model over plan-shape features.

    Immutable (safe to share across deployments and hot-swap under load);
    all predictions are pure float arithmetic, cheap enough to call from
    inside the batcher's forming loop.
    """

    #: ``(per_node_s, per_edge_s, constant_s)`` for the plan-build stage.
    plan_build: Tuple[float, float, float]
    #: ``(per_fold_node_s, per_fold_edge_s, per_fold_graph_s, constant_s)``.
    infer: Tuple[float, float, float, float]
    #: ``(per_graph_s, constant_s)`` for everything outside the two spans.
    overhead: Tuple[float, float]
    #: Mean *per-request* shape seen during calibration (``num_graphs == 1``);
    #: the reference workload for capacity estimates.
    reference_shape: PlanShape
    #: Calibration provenance: batches/requests fitted, in-sample ``mape``,
    #: ``fitted_unix``, and (after :func:`load_cost_model`) ``artifact``.
    meta: Mapping[str, object] = field(default_factory=dict)

    def predict_plan_build(self, shape: PlanShape) -> float:
        return _predict_affine(
            self.plan_build, (shape.num_nodes, shape.num_edges, 1.0)
        )

    def predict_infer(self, shape: PlanShape, folds: int = 1) -> float:
        folds = max(1, int(folds))
        return _predict_affine(
            self.infer,
            (
                folds * shape.num_nodes,
                folds * shape.num_edges,
                folds * shape.num_graphs,
                1.0,
            ),
        )

    def predict_overhead(self, shape: PlanShape) -> float:
        return _predict_affine(self.overhead, (shape.num_graphs, 1.0))

    def predict_batch_latency(self, shape: PlanShape, folds: int = 1) -> float:
        """Predicted wall-clock seconds to serve one micro-batch of
        ``shape`` through a ``folds``-member deployment."""
        return (
            self.predict_plan_build(shape)
            + self.predict_infer(shape, folds)
            + self.predict_overhead(shape)
        )

    def predict_request_latency(self, folds: int = 1) -> float:
        """Predicted cost of a single reference-shaped request."""
        return self.predict_batch_latency(self.reference_shape, folds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": COST_MODEL_SCHEMA_VERSION,
            "stages": {
                "plan_build": list(self.plan_build),
                "infer": list(self.infer),
                "overhead": list(self.overhead),
            },
            "reference_shape": dict(self.reference_shape.to_dict()),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LatencyCostModel":
        if not isinstance(data, Mapping):
            raise ValueError("cost model payload must be a JSON object")
        schema = data.get("schema")
        if schema != COST_MODEL_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported cost model schema {schema!r} "
                f"(expected {COST_MODEL_SCHEMA_VERSION})"
            )
        stages = data.get("stages")
        if not isinstance(stages, Mapping):
            raise ValueError("cost model payload missing 'stages'")
        try:
            plan_build = tuple(float(value) for value in stages["plan_build"])
            infer = tuple(float(value) for value in stages["infer"])
            overhead = tuple(float(value) for value in stages["overhead"])
            reference = PlanShape.from_dict(data["reference_shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed cost model payload: {exc}") from exc
        if len(plan_build) != 3 or len(infer) != 4 or len(overhead) != 2:
            raise ValueError("cost model stage coefficients have wrong arity")
        meta = data.get("meta")
        return cls(
            plan_build=plan_build,
            infer=infer,
            overhead=overhead,
            reference_shape=reference,
            meta=dict(meta) if isinstance(meta, Mapping) else {},
        )


# ------------------------------------------------------------- calibration


#: A span is an outlier when its residual lies more than this many
#: standard deviations from the median residual (the standard deviation
#: estimated robustly, as 1.4826 x the median absolute deviation).
_OUTLIER_SIGMAS = 3.0
#: Refits at most this often; the inlier set normally settles in one or two.
_MAX_REFITS = 5


def _lstsq(rows: List[Sequence[float]], targets: List[float]) -> Tuple[float, ...]:
    """Least squares, refit without outlier spans until the inliers settle.

    A span that a GC pause, a preempted thread or another process's burst
    landed on can be ten times its batch's usual cost.  Plain least
    squares bends every coefficient towards such a point, and then
    mispredicts the ordinary batches (on a shared 2-core box one pause
    among 40 batches took the in-sample error from ~0.2 past 0.5).  The
    fit therefore drops the spans whose residual is an outlier and solves
    again over the rest, while enough rows remain to determine it.
    """
    matrix = np.asarray(rows, dtype=np.float64)
    vector = np.asarray(targets, dtype=np.float64)
    solution, _, _, _ = np.linalg.lstsq(matrix, vector, rcond=None)
    inliers = np.ones(len(vector), dtype=bool)
    for _ in range(_MAX_REFITS):
        residuals = vector - matrix @ solution
        center = np.median(residuals[inliers])
        spread = 1.4826 * np.median(np.abs(residuals[inliers] - center))
        if spread <= 0.0:
            break
        kept = np.abs(residuals - center) <= _OUTLIER_SIGMAS * spread
        if kept.sum() <= matrix.shape[1] or np.array_equal(kept, inliers):
            break
        inliers = kept
        solution, _, _, _ = np.linalg.lstsq(
            matrix[inliers], vector[inliers], rcond=None
        )
    return tuple(float(value) for value in solution)


class CostModelCalibrator:
    """Fit a :class:`LatencyCostModel` from journalled per-stage spans.

    ``fit`` accepts a ``JournalReader`` (anything with a
    ``calibration_rows(model=...)`` method) or a raw iterable of journal
    records; either way the rows are deduplicated per batch (the journal
    records one entry per *request*, all sharing their batch's spans).
    """

    def __init__(self, min_batches: int = 8):
        if min_batches < 2:
            raise ValueError("min_batches must be >= 2")
        self.min_batches = int(min_batches)

    def rows(self, source, model: Optional[str] = None) -> List[Dict[str, float]]:
        extractor = getattr(source, "calibration_rows", None)
        if callable(extractor):
            return extractor(model=model)
        return _extract_calibration_rows(source, model=model)

    def fit(self, source, model: Optional[str] = None) -> LatencyCostModel:
        rows = self.rows(source, model=model)
        if len(rows) < self.min_batches:
            raise CalibrationError(
                f"need at least {self.min_batches} journalled batches to "
                f"calibrate, found {len(rows)} (serve more cache-miss "
                "traffic through a journalled hub first)"
            )

        plan_features = [[row["nodes"], row["edges"], 1.0] for row in rows]
        plan_targets = [row["plan_build_s"] for row in rows]
        infer_features = [
            [
                row["folds"] * row["nodes"],
                row["folds"] * row["edges"],
                row["folds"] * row["graphs"],
                1.0,
            ]
            for row in rows
        ]
        infer_targets = [row["infer_s"] for row in rows]
        overhead_features = [[row["graphs"], 1.0] for row in rows]
        overhead_targets = [
            max(0.0, row["batch_latency_s"] - row["plan_build_s"] - row["infer_s"])
            for row in rows
        ]

        model_fit = LatencyCostModel(
            plan_build=_lstsq(plan_features, plan_targets),
            infer=_lstsq(infer_features, infer_targets),
            overhead=_lstsq(overhead_features, overhead_targets),
            reference_shape=self._reference_shape(rows),
            meta={},
        )

        errors = []
        for row in rows:
            shape = PlanShape(
                num_graphs=int(row["graphs"]),
                num_nodes=int(row["nodes"]),
                num_edges=int(row["edges"]),
                num_relations=int(row["relations"]),
            )
            measured = row["batch_latency_s"]
            if measured <= _MAPE_FLOOR_S:
                continue
            predicted = model_fit.predict_batch_latency(
                shape, folds=int(row["folds"])
            )
            errors.append(abs(predicted - measured) / measured)
        mape = float(np.mean(errors)) if errors else 0.0

        meta = {
            "schema": COST_MODEL_SCHEMA_VERSION,
            "batches": len(rows),
            "requests": int(sum(row["graphs"] for row in rows)),
            "mape": round(mape, 6),
            "fitted_unix": time.time(),
        }
        return replace(model_fit, meta=meta)

    @staticmethod
    def _reference_shape(rows: List[Dict[str, float]]) -> PlanShape:
        total_graphs = max(1.0, sum(row["graphs"] for row in rows))
        return PlanShape(
            num_graphs=1,
            num_nodes=max(
                1, int(round(sum(row["nodes"] for row in rows) / total_graphs))
            ),
            num_edges=max(
                1, int(round(sum(row["edges"] for row in rows) / total_graphs))
            ),
            num_relations=max(
                1, int(round(max(row["relations"] for row in rows)))
            ),
        )


# ------------------------------------------------- registry persistence


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_cost_model(
    registry: ArtifactRegistry,
    model: LatencyCostModel,
    name: str = DEFAULT_COST_MODEL_NAME,
) -> ArtifactRef:
    """Persist a fitted model as the next version of ``name``.

    Same concurrency-safe idiom as ``ArtifactRegistry.save``: stage in a
    unique directory, then atomically rename into the allocated version,
    re-allocating on a rename race.  The artifact carries a regular
    manifest (``kind: cost-model`` + payload checksums), so ``resolve``,
    ``verify``, ``pin`` and ``gc`` all treat it like any other artifact.
    """
    if not name or "/" in name or "\\" in name or name.startswith("."):
        raise ValueError(f"invalid artifact name {name!r}")
    model_dir = os.path.join(registry.root, name)
    staging_dir = os.path.join(
        model_dir, f"vstaging-{os.getpid()}-{uuid.uuid4().hex[:8]}.staging"
    )
    os.makedirs(staging_dir)
    try:
        payload_path = os.path.join(staging_dir, COST_MODEL_FILE)
        with open(payload_path, "w", encoding="utf-8") as handle:
            json.dump(model.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        checksums = {
            entry: _sha256_file(os.path.join(staging_dir, entry))
            for entry in sorted(os.listdir(staging_dir))
        }
        for _ in range(SAVE_ALLOCATION_RETRIES):
            version = registry._next_version(name)
            final_dir = os.path.join(model_dir, version)
            manifest = {
                "format_version": REGISTRY_FORMAT_VERSION,
                "kind": COST_MODEL_KIND,
                "name": name,
                "version": version,
                "created_unix": time.time(),
                "metadata": dict(model.meta),
                "files": checksums,
            }
            with open(
                os.path.join(staging_dir, MANIFEST_FILE), "w", encoding="utf-8"
            ) as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            try:
                os.replace(staging_dir, final_dir)
            except OSError as exc:
                if exc.errno in (errno.ENOTEMPTY, errno.EEXIST):
                    continue
                raise
            return ArtifactRef(name=name, version=version, path=final_dir)
        raise ArtifactError(
            f"could not allocate a version for {name!r} after "
            f"{SAVE_ALLOCATION_RETRIES} attempts"
        )
    except Exception:
        shutil.rmtree(staging_dir, ignore_errors=True)
        raise


def load_cost_model(
    registry: ArtifactRegistry,
    name: str = DEFAULT_COST_MODEL_NAME,
    version: Optional[str] = None,
) -> LatencyCostModel:
    """Load a persisted cost model (latest version unless pinned).

    The returned model's ``meta['artifact']`` records the ``name@version``
    it came from, so capacity reports can state which calibration is live.
    """
    ref = registry.resolve(name, version)
    payload_path = os.path.join(ref.path, COST_MODEL_FILE)
    if not os.path.isfile(payload_path):
        raise ArtifactError(
            f"{ref} is not a cost-model artifact (missing {COST_MODEL_FILE})"
        )
    with open(payload_path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ArtifactError(f"corrupt cost model payload in {ref}: {exc}") from exc
    try:
        model = LatencyCostModel.from_dict(data)
    except ValueError as exc:
        raise ArtifactError(f"invalid cost model payload in {ref}: {exc}") from exc
    return replace(model, meta={**model.meta, "artifact": str(ref)})


def cost_model_summary(model: Optional[LatencyCostModel]) -> Optional[Dict[str, object]]:
    """Compact identity/provenance block for reports and snapshots."""
    if model is None:
        return None
    meta = dict(model.meta)
    return {
        "artifact": meta.get("artifact"),
        "mape": meta.get("mape"),
        "batches": meta.get("batches"),
        "fitted_unix": meta.get("fitted_unix"),
        "reference_shape": dict(model.reference_shape.to_dict()),
    }


# ---------------------------------------------------- capacity estimation


def estimate_capacity(
    model: LatencyCostModel,
    *,
    folds: int = 1,
    max_batch_size: int = 32,
    p95_target_s: Optional[float] = None,
) -> Dict[str, object]:
    """Predicted operating point for one deployment.

    ``optimal_batch`` is the largest batch of reference-shaped requests the
    model predicts under the p95 target (the whole ``max_batch_size``
    window when no target is set); ``sustainable_qps`` is that batch
    divided by its predicted latency — the deployment's predicted
    throughput ceiling while honouring the SLO.
    """
    folds = max(1, int(folds))
    max_batch_size = max(1, int(max_batch_size))
    reference = model.reference_shape
    request_s = model.predict_batch_latency(reference, folds)
    optimal = 1
    while optimal < max_batch_size:
        candidate = model.predict_batch_latency(
            reference.scaled(optimal + 1), folds
        )
        if p95_target_s is not None and candidate > p95_target_s:
            break
        optimal += 1
    batch_s = model.predict_batch_latency(reference.scaled(optimal), folds)
    sustainable_qps = optimal / batch_s if batch_s > 0 else None
    return {
        "request_s": request_s,
        "optimal_batch": optimal,
        "batch_s": batch_s,
        "sustainable_qps": sustainable_qps,
        "p95_target_s": p95_target_s,
        "within_target": (
            None if p95_target_s is None else bool(batch_s <= p95_target_s)
        ),
    }


# ------------------------------------------------------ admission control


class AdmissionController:
    """Concurrency + QPS budget enforcement for one deployment.

    Two independent budgets, both optional:

    * ``max_inflight`` — admitted-but-unfinished requests (queued in the
      batcher or running).  This is the SLO's ``max_concurrency`` plus a
      queueing allowance derived from ``max_queue_ms``.
    * ``qps_limit`` — a token bucket refilled at the sustainable rate the
      cost model predicts, with ``burst`` tokens of headroom, so short
      spikes ride through but a sustained overload sheds.

    ``acquire`` never blocks (lock held for counter arithmetic only) —
    an exhausted budget raises :class:`OverCapacityError` immediately;
    queue-and-wait would spend the very latency budget the SLO protects.
    """

    def __init__(
        self,
        *,
        max_inflight: Optional[int] = None,
        qps_limit: Optional[float] = None,
        burst: Optional[float] = None,
        retry_after_s: Optional[float] = None,
        name: str = "deployment",
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if qps_limit is not None and qps_limit <= 0:
            raise ValueError("qps_limit must be > 0")
        self.max_inflight = int(max_inflight) if max_inflight is not None else None
        self.qps_limit = float(qps_limit) if qps_limit is not None else None
        self._burst = (
            float(burst)
            if burst is not None
            else (max(self.qps_limit, 1.0) if self.qps_limit else 0.0)
        )
        self._clock = clock
        self._lock = TrackedLock(f"admission.{name}")
        self._tokens = self._burst
        self._last_refill = clock()
        self._inflight = 0
        self._admitted = 0
        self._shed = 0
        if retry_after_s is not None:
            self._retry_after_s = float(retry_after_s)
        elif self.qps_limit:
            self._retry_after_s = 1.0 / self.qps_limit
        else:
            self._retry_after_s = 0.05

    def _refill_locked(self, now: float) -> None:
        if self.qps_limit is None:
            return
        elapsed = max(0.0, now - self._last_refill)
        self._last_refill = now
        self._tokens = min(self._burst, self._tokens + elapsed * self.qps_limit)

    def try_acquire(self, count: int = 1) -> bool:
        count = max(1, int(count))
        with self._lock:
            self._refill_locked(self._clock())
            if (
                self.max_inflight is not None
                and self._inflight + count > self.max_inflight
            ):
                self._shed += count
                return False
            if self.qps_limit is not None and self._tokens < count:
                self._shed += count
                return False
            if self.qps_limit is not None:
                self._tokens -= count
            self._inflight += count
            self._admitted += count
            return True

    def acquire(self, count: int = 1) -> None:
        if not self.try_acquire(count):
            raise OverCapacityError(
                f"over capacity: {self._describe_budget()}",
                retry_after_s=self._retry_after_s,
            )

    def release(self, count: int = 1) -> None:
        count = max(1, int(count))
        with self._lock:
            self._inflight = max(0, self._inflight - count)

    @contextmanager
    def guard(self, count: int = 1):
        self.acquire(count)
        try:
            yield
        finally:
            self.release(count)

    def _describe_budget(self) -> str:
        parts = []
        if self.max_inflight is not None:
            parts.append(f"max_inflight={self.max_inflight}")
        if self.qps_limit is not None:
            parts.append(f"qps_limit={self.qps_limit:.1f}")
        return ", ".join(parts) or "unbounded"

    @property
    def retry_after_s(self) -> float:
        return self._retry_after_s

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "qps_limit": self.qps_limit,
                "inflight": self._inflight,
                "admitted": self._admitted,
                "shed": self._shed,
                "retry_after_s": self._retry_after_s,
            }


def build_admission(
    slo,
    cost_model: Optional[LatencyCostModel],
    *,
    folds: int = 1,
    max_batch_size: int = 32,
    name: str = "deployment",
) -> Optional[AdmissionController]:
    """Derive an :class:`AdmissionController` from a deployment's SLO.

    Returns ``None`` when there is no SLO or its ``shed_policy`` is
    ``"none"`` (observe-only deployments never shed).  With a cost model
    the inflight budget gains a queueing allowance (``max_queue_ms`` worth
    of predicted sustainable throughput) and a QPS bucket at the predicted
    sustainable rate; without one, only the explicit ``max_concurrency``
    budget applies.
    """
    if slo is None or getattr(slo, "shed_policy", "none") != "shed":
        return None
    p95_target_s = (
        slo.p95_ms / 1000.0 if getattr(slo, "p95_ms", None) else None
    )
    max_queue_s = (
        slo.max_queue_ms / 1000.0 if getattr(slo, "max_queue_ms", None) else None
    )
    max_concurrency = getattr(slo, "max_concurrency", None)

    qps_limit = None
    burst = None
    retry_after_s = None
    queue_allowance = 0
    if cost_model is not None:
        capacity = estimate_capacity(
            cost_model,
            folds=folds,
            max_batch_size=max_batch_size,
            p95_target_s=p95_target_s,
        )
        sustainable = capacity["sustainable_qps"]
        if sustainable:
            if p95_target_s is not None:
                qps_limit = sustainable
                # One predicted batch of headroom on top of the inflight
                # budget: spikes shorter than a batch ride through.
                burst = float(capacity["optimal_batch"]) + sustainable * float(
                    capacity["batch_s"]
                )
                retry_after_s = 1.0 / sustainable
            if max_queue_s is not None:
                queue_allowance = int(max_queue_s * sustainable)

    max_inflight = None
    if max_concurrency is not None:
        max_inflight = int(max_concurrency) + queue_allowance
    if max_inflight is None and qps_limit is None:
        # A shed policy with nothing to enforce would be a silent no-op;
        # fall back to a generous inflight cap so "shed" always means
        # *something* even before the first calibration.
        max_inflight = max(4, 2 * max_batch_size)
    return AdmissionController(
        max_inflight=max_inflight,
        qps_limit=qps_limit,
        burst=burst,
        retry_after_s=retry_after_s,
        name=name,
    )


def retry_after_header(retry_after_s: float) -> str:
    """HTTP ``Retry-After`` wants integral seconds, and 0 means "never
    mind" to many clients — round up with a floor of 1."""
    return str(max(1, int(math.ceil(retry_after_s))))
