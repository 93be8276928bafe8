"""Online inference serving: artefact registry, model hub, micro-batched
prediction services, embedding cache and telemetry.

The offline pipeline (:mod:`repro.core`) trains predictors; this package
deploys them.  ``ReproPipeline.export_artifacts`` writes each fold's
predictor into an :class:`ArtifactRegistry` (with retention via
``gc``/``pin``).

A deployment is configured one way: a :class:`DeploymentSpec` names it,
points it at an artifact (version-pinned or latest) or a fold group, and
carries its ``batching`` (:class:`BatchingConfig`) and ``slo``
(:class:`SLOConfig`) blocks.  A :class:`ModelHub` resolves specs into
front-ends — a :class:`PredictionService` for one artifact, an
:class:`EnsemblePredictionService` for every exported fold of a base name
(mean-softmax or majority-vote combination) — and serves many named
deployments from one process over one shared :class:`EmbeddingCache`
(persisted by a :class:`CheckpointDaemon`, so restarted servers start
hot) and one :class:`BatcherWorkerPool` draining every deployment's
micro-batch queue, with runtime ``load``/``unload``/``reload`` and atomic
alias flips (``prod → v0003``) for zero-downtime version swaps.  Both
front-ends implement the one :class:`Predictor` protocol the hub routes
over; a hand-built front-end takes the same knobs (``batching``,
``cache``, ``pool``) and is served by :meth:`ModelHub.adopt`.
:class:`ReplicaSupervisor` serves the same specs from a pool of worker
processes, each hosting a full hub.

The wire protocol lives in :mod:`repro.serving.http`: a stdlib JSON/HTTP
front-end over a hub or a replica pool (``POST /v1/models/<name>/predict``,
``POST /v1/predict`` for the default deployment, ``GET /v1/models``,
per-model metrics, admin load/unload/alias routes, ``GET /healthz``,
``GET /metrics``).  ``python -m repro.serving`` (or the ``repro-serve``
console script) serves registry artifacts from the command line — one
model or many (``--model``, repeatable).

Observability: every served prediction can be recorded into an
append-only, crash-safe on-disk journal (:class:`JournalWriter` /
:class:`JournalReader`, ``ModelHub(journal_dir=...)``), carrying per-stage
span timings from the trace layer (:mod:`repro.serving.trace`), and the
journal feeds windowed drift alerts (:mod:`repro.serving.drift`,
``GET /v1/models/<name>/drift``), offline A/B replay of recorded traffic
(:func:`replay_ab`) and the ``repro-journal`` CLI.  ``GET /metrics``
additionally serves a Prometheus text exposition
(``?format=prometheus``).

All forward passes run through the stateless inference engine
(:mod:`repro.engine`): one immutable :class:`~repro.engine.ExecutionPlan`
per micro-batch, evaluated without locks (inference is reentrant, so
concurrent micro-batches overlap) and — for ensembles — fanned to every
fold in a single fold-stacked sweep rather than one forward per member.
"""

from .batcher import BatcherWorkerPool, BatchingConfig, PooledBatcher
from .cache import CacheEntry, CheckpointDaemon, EmbeddingCache
from .costmodel import (
    AdmissionController,
    CalibrationError,
    CostModelCalibrator,
    LatencyCostModel,
    OverCapacityError,
    cost_model_summary,
    estimate_capacity,
    load_cost_model,
    save_cost_model,
)
from .drift import DriftConfig, detect_drift, label_distribution, total_variation
from .deployment import (
    SHED_POLICIES,
    DeploymentSpec,
    DeploymentSpecError,
    Predictor,
    SLOConfig,
    batching_config_from_dict,
    batching_config_to_dict,
    deployment_spec_from_dict,
    deployment_spec_to_dict,
    slo_config_from_dict,
    slo_config_to_dict,
)
from .hub import (
    Deployment,
    DeploymentExistsError,
    DeploymentNotFoundError,
    DeploymentQuarantinedError,
    HubError,
    ModelHub,
)
from .ensemble import (
    EnsemblePredictionResult,
    EnsemblePredictionService,
    combine_majority_vote,
    combine_mean_softmax,
)
from .registry import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactNotFoundError,
    ArtifactRef,
    ArtifactRegistry,
    LoadedArtifact,
)
from .http import (
    PredictionHTTPServer,
    RequestError,
    ServingApp,
    error_payload,
    result_to_dict,
)
from .journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    JournalReader,
    JournalWriter,
)
from .replay import replay_ab, replayable_graphs
from .replica import (
    DrainingError,
    ReplicaConfig,
    ReplicaError,
    ReplicaSupervisor,
    ReplicaUnavailableError,
    default_start_method,
    request_affinity_key,
)
from .serialization import (
    GRAPH_SCHEMA_VERSION,
    SerializationError,
    configuration_from_dict,
    configuration_to_dict,
    label_space_from_dict,
    label_space_to_dict,
    program_graph_from_dict,
    program_graph_from_json,
    program_graph_to_dict,
    vocabulary_from_dict,
    vocabulary_to_dict,
)
from .service import PredictionResult, PredictionService, Request
from .stats import ServingStats, aggregate_snapshots, render_prometheus
from .trace import SPAN_ORDER, span

__all__ = [
    "BatcherWorkerPool",
    "PooledBatcher",
    "CacheEntry",
    "CheckpointDaemon",
    "EmbeddingCache",
    "AdmissionController",
    "CalibrationError",
    "CostModelCalibrator",
    "LatencyCostModel",
    "OverCapacityError",
    "cost_model_summary",
    "estimate_capacity",
    "load_cost_model",
    "save_cost_model",
    "SHED_POLICIES",
    "BatchingConfig",
    "SLOConfig",
    "batching_config_from_dict",
    "batching_config_to_dict",
    "slo_config_from_dict",
    "slo_config_to_dict",
    "DeploymentSpec",
    "DeploymentSpecError",
    "Predictor",
    "deployment_spec_from_dict",
    "deployment_spec_to_dict",
    "Deployment",
    "DeploymentExistsError",
    "DeploymentNotFoundError",
    "DeploymentQuarantinedError",
    "HubError",
    "ModelHub",
    "PredictionHTTPServer",
    "RequestError",
    "ServingApp",
    "error_payload",
    "result_to_dict",
    "GRAPH_SCHEMA_VERSION",
    "SerializationError",
    "program_graph_from_dict",
    "program_graph_from_json",
    "program_graph_to_dict",
    "EnsemblePredictionResult",
    "EnsemblePredictionService",
    "combine_majority_vote",
    "combine_mean_softmax",
    "ArtifactError",
    "ArtifactIntegrityError",
    "ArtifactNotFoundError",
    "ArtifactRef",
    "ArtifactRegistry",
    "LoadedArtifact",
    "configuration_from_dict",
    "configuration_to_dict",
    "label_space_from_dict",
    "label_space_to_dict",
    "vocabulary_from_dict",
    "vocabulary_to_dict",
    "PredictionResult",
    "PredictionService",
    "Request",
    "ServingStats",
    "aggregate_snapshots",
    "render_prometheus",
    "SPAN_ORDER",
    "span",
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "JournalReader",
    "JournalWriter",
    "DriftConfig",
    "detect_drift",
    "label_distribution",
    "total_variation",
    "replay_ab",
    "replayable_graphs",
    "DrainingError",
    "ReplicaConfig",
    "ReplicaError",
    "ReplicaSupervisor",
    "ReplicaUnavailableError",
    "default_start_method",
    "request_affinity_key",
]
