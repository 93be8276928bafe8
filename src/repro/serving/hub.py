"""Multi-model serving hub: many named deployments in one process.

PRs 1–4 built a serving stack that could host exactly one artifact (or one
fold ensemble) per process; deploying a second model meant a second process
with its own cache, batcher threads and checkpoint file.  The hub removes
that ceiling:

* **One API.**  A :class:`~repro.serving.deployment.DeploymentSpec`
  declares *what* to serve (artifact or fold group, version pin or latest,
  combination strategy, serving knobs); :meth:`ModelHub.load` resolves it
  against the :class:`~repro.serving.registry.ArtifactRegistry` and builds
  the right front-end behind the
  :class:`~repro.serving.deployment.Predictor` protocol — single-fold and
  ensemble serving are two implementations of one interface, not two APIs.
* **Shared infrastructure.**  Every deployment shares one
  :class:`~repro.serving.cache.EmbeddingCache` (keys are namespaced by
  model digest, so co-tenants never replay each other's logits), one
  :class:`~repro.serving.cache.CheckpointDaemon` persisting that cache,
  and one :class:`~repro.serving.batcher.BatcherWorkerPool` draining every
  deployment's micro-batch queue — threads scale with traffic, not with
  model count.
* **Runtime mutation.**  :meth:`load` / :meth:`unload` / :meth:`reload`
  change the served set while requests are in flight: routing is a
  lookup in an immutable :class:`Routes` table (a mutation publishes a
  changed copy), a request that resolved a deployment always runs
  against a fully-built predictor, and an unloaded deployment finishes
  draining its queued requests before its batcher dies.
* **Aliases.**  :meth:`alias` maps a stable public name to a deployment
  (``prod → demo-v3``) and flips atomically, so a version swap is: load
  the new deployment, flip the alias, unload the old one — zero failed
  requests in between.

The HTTP layer (:mod:`repro.serving.http`) routes
``POST /v1/models/<name>/predict`` and friends straight onto a hub (or a
replica pool of hubs); a hand-built service is served by adopting it into
one (:meth:`ModelHub.adopt`).
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, List, Optional, TypeVar, Union

from ..concurrency import TrackedRLock
from .batcher import BatcherWorkerPool
from .cache import CheckpointDaemon, EmbeddingCache
from .costmodel import (
    DEFAULT_COST_MODEL_NAME,
    LatencyCostModel,
    cost_model_summary,
    load_cost_model,
)
from .deployment import (
    DeploymentSpec,
    DeploymentSpecError,
    Predictor,
    deployment_spec_to_dict,
    validate_deployment_name,
)
from .drift import DriftConfig, detect_drift
from .ensemble import EnsemblePredictionService
from .journal import JournalWriter
from .registry import ArtifactRegistry
from .service import PredictionService, ServingFrontend
from .stats import aggregate_snapshots


def _best_effort_warm_up(cache: Optional[EmbeddingCache], path: Optional[str]) -> int:
    """Load a cache dump if there is one; never fails the caller.

    A missing, truncated or foreign warm-up file (e.g. a checkpoint torn
    by a crashed disk, or a path another tool wrote to) degrades to a cold
    start — a server must be able to boot past its own stale state.
    Explicit :meth:`~repro.serving.service.ServingFrontend.warm_up` calls
    still raise, so operators probing a specific file get the real error.
    """
    if cache is None or not path or not os.path.isfile(path):
        return 0
    try:
        return cache.load(path)
    except Exception:
        return 0


def _admission_guard(predictor: Predictor, count: int):
    """The predictor's sync admission guard, or a no-op for predictors
    (adopted stubs, remote proxies) that don't budget admission."""
    guard = getattr(predictor, "admission_guard", None)
    if guard is None:
        return nullcontext()
    return guard(count)


class HubError(RuntimeError):
    """Base class for hub failures (invalid mutation, no registry, ...)."""


class DeploymentNotFoundError(HubError):
    """The requested deployment (or alias) is not loaded."""


class DeploymentExistsError(HubError):
    """The requested deployment/alias name is already taken."""


class DeploymentQuarantinedError(HubError):
    """The deployment exists but an operator fenced it off from traffic."""


T = TypeVar("T")
R = TypeVar("R")


@dataclass
class Routes(Generic[T]):
    """The routing policy of a hub, written once.

    Deployment names (each mapped to what the owner keeps per deployment:
    a live :class:`Deployment` in a :class:`ModelHub`, a wire spec in a
    replica pool), the aliases onto them, the default deployment and the
    quarantine fence.  Owners never mutate a published table: a change is
    applied to a :meth:`copy`, which is swapped in only if the policy
    accepted it, so a reader holding a table sees one consistent state
    without a lock and a rejected change leaves nothing behind.
    """

    deployments: Dict[str, T] = field(default_factory=dict)
    aliases: Dict[str, str] = field(default_factory=dict)
    default: Optional[str] = None
    quarantined: Dict[str, str] = field(default_factory=dict)

    def copy(self) -> "Routes[T]":
        return Routes(
            dict(self.deployments), dict(self.aliases), self.default,
            dict(self.quarantined),
        )

    # ------------------------------------------------------------- lookups
    def resolve(self, name: Optional[str], for_predict: bool = False) -> str:
        """The deployment ``name`` routes to (a deployment name, an alias,
        or ``None`` for the default); ``for_predict`` also enforces the
        quarantine fence, as every prediction route must."""
        if name is None:
            canonical = self.default
            if canonical is None:
                raise DeploymentNotFoundError(
                    "this hub has no default deployment; address a model "
                    "by name (POST /v1/models/<name>/predict)"
                )
        elif name in self.deployments:
            canonical = name
        else:
            canonical = self.aliases.get(name)
            if canonical is None:
                raise DeploymentNotFoundError(
                    f"no deployment or alias named {name!r}"
                )
        if for_predict and canonical in self.quarantined:
            raise DeploymentQuarantinedError(
                f"deployment {canonical!r} is quarantined: "
                f"{self.quarantined[canonical]}"
            )
        return canonical

    def get(self, name: str) -> T:
        """The deployment named exactly ``name`` (aliases do not count)."""
        if name not in self.deployments:
            raise DeploymentNotFoundError(f"no deployment named {name!r}")
        return self.deployments[name]

    def check_install(self, name: str, replace: bool) -> None:
        if name in self.aliases:
            raise DeploymentExistsError(
                f"{name!r} is an alias; deployments must not shadow one"
            )
        if name in self.deployments and not replace:
            raise DeploymentExistsError(
                f"deployment {name!r} is already loaded (reload() it, or "
                f"load(..., replace=True))"
            )

    # ----------------------------------------------------------- mutations
    def install(self, name: str, value: T, replace: bool) -> Optional[T]:
        """Serve ``value`` under ``name``; returns what it replaced.  The
        first deployment becomes the default."""
        self.check_install(name, replace)
        previous = self.deployments.get(name)
        self.deployments[name] = value
        if self.default is None:
            self.default = name
        return previous

    def remove(self, name: str) -> T:
        """Drop ``name``.  An alias target cannot go: flip or drop the
        alias first, so a stable public name never silently dangles."""
        value = self.get(name)
        pointing = sorted(
            alias for alias, target in self.aliases.items() if target == name
        )
        if pointing:
            raise HubError(
                f"deployment {name!r} is the target of alias(es) {pointing}; "
                f"repoint or drop them before unloading"
            )
        del self.deployments[name]
        self.quarantined.pop(name, None)
        if self.default == name:
            remaining = list(self.deployments)
            # Deterministic: a sole survivor inherits the default (the
            # unnamed routes keep working); ambiguity clears it.
            self.default = remaining[0] if len(remaining) == 1 else None
        return value

    def alias(self, alias: str, target: str) -> None:
        # Alias names share the URL namespace of deployment names.
        try:
            validate_deployment_name(alias)
        except DeploymentSpecError as exc:
            raise HubError(str(exc)) from exc
        if alias in self.deployments:
            raise DeploymentExistsError(
                f"{alias!r} is a deployment name; aliases must not shadow one"
            )
        if target not in self.deployments:
            raise DeploymentNotFoundError(
                f"alias target {target!r} is not a loaded deployment"
            )
        self.aliases[alias] = target

    def unalias(self, alias: str) -> None:
        if alias not in self.aliases:
            raise DeploymentNotFoundError(f"no alias named {alias!r}")
        del self.aliases[alias]

    def set_default(self, name: Optional[str]) -> None:
        if name is not None:
            self.get(name)
        self.default = name

    def quarantine(self, name: Optional[str], reason: str) -> None:
        self.quarantined[self.resolve(name)] = str(reason)

    def unquarantine(self, name: Optional[str]) -> None:
        self.quarantined.pop(self.resolve(name), None)


class RoutingReads:
    """The routing reads a :class:`ModelHub` and a replica pool share,
    answered from the owner's published :class:`Routes` table (one
    attribute read, no lock)."""

    _routes: Routes

    def names(self) -> List[str]:
        return sorted(self._routes.deployments)

    def aliases(self) -> Dict[str, str]:
        return dict(self._routes.aliases)

    @property
    def default_name(self) -> Optional[str]:
        return self._routes.default

    def quarantined(self) -> Dict[str, str]:
        return dict(self._routes.quarantined)

    def __contains__(self, name: str) -> bool:
        routes = self._routes
        return name in routes.deployments or name in routes.aliases

    def __len__(self) -> int:
        return len(self._routes.deployments)


@dataclass
class Deployment:
    """One loaded model: its spec (if declaratively loaded) + predictor."""

    name: str
    predictor: Predictor
    spec: Optional[DeploymentSpec]
    created_unix: float

    @property
    def adopted(self) -> bool:
        """True when the predictor was handed over pre-built rather than
        resolved from a spec — such deployments cannot
        :meth:`~ModelHub.reload`."""
        return self.spec is None

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "created_unix": self.created_unix,
            "adopted": self.adopted,
            "serving": self.predictor.describe(),
            "spec": deployment_spec_to_dict(self.spec) if self.spec else None,
        }


class ModelHub(RoutingReads):
    """Owns many named deployments behind one registry and one cache.

    ``registry`` may be an :class:`ArtifactRegistry`, a root path, or
    ``None`` (a hub that only :meth:`adopt`\\ s pre-built predictors).
    The hub's shared cache/daemon/worker-pool are created here;
    per-deployment knobs come from each spec.
    """

    def __init__(
        self,
        registry: Union[ArtifactRegistry, str, None] = None,
        *,
        cache_capacity: int = 4096,
        enable_cache: bool = True,
        warmup_path: Optional[str] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval_s: float = 30.0,
        pool_workers: int = 2,
        journal_dir: Optional[str] = None,
        journal_record_graphs: bool = True,
        drift_config: Optional[DriftConfig] = None,
        cost_model: Optional[LatencyCostModel] = None,
    ):
        if isinstance(registry, str):
            registry = ArtifactRegistry(registry)
        self.registry = registry
        # Validate every path-type knob up front (fspath raises a TypeError
        # on non-path objects) so a miswired caller fails here, loudly,
        # instead of a repr-named directory appearing on disk later.
        if warmup_path is not None:
            warmup_path = os.fspath(warmup_path)
        if checkpoint_path is not None:
            checkpoint_path = os.fspath(checkpoint_path)
        if journal_dir is not None:
            journal_dir = os.fspath(journal_dir)
        self.cache: Optional[EmbeddingCache] = (
            EmbeddingCache(cache_capacity) if enable_cache else None
        )
        _best_effort_warm_up(self.cache, warmup_path)
        if checkpoint_path and self.cache is None:
            raise HubError("checkpoint_path requires the shared cache (enable_cache)")
        self.checkpoint: Optional[CheckpointDaemon] = (
            CheckpointDaemon(self.cache, checkpoint_path, interval_s=checkpoint_interval_s)
            if checkpoint_path
            else None
        )
        self.pool = BatcherWorkerPool(workers=pool_workers)
        # One journal for the whole hub: every deployment's predict path
        # records into it (filed under the deployment name), so one
        # directory holds the process's complete served-traffic history.
        self.journal: Optional[JournalWriter] = (
            JournalWriter(journal_dir, record_graphs=journal_record_graphs)
            if journal_dir
            else None
        )
        self.drift_config = drift_config or DriftConfig()
        self._cost_model = cost_model
        # Serialises mutations; readers take the published table as is.
        self._lock = TrackedRLock("hub.routing")
        self._routes: Routes[Deployment] = Routes()
        self._started = False
        self._created_monotonic = time.monotonic()

    # ------------------------------------------------------------ mutation
    def load(self, spec: DeploymentSpec, replace: bool = False) -> Deployment:
        """Resolve ``spec`` against the registry and start serving it.

        Building the predictor (weight deserialisation, fold stacking)
        happens outside the hub lock, so loading a heavy model never
        stalls routing for the models already serving.  With
        ``replace=True`` an existing deployment of the same name is
        atomically swapped out and drained after the swap — in-flight
        requests finish on the predictor they resolved.  A name the
        routing policy would refuse is refused before anything is built.
        """
        self._routes.check_install(spec.name, replace)
        predictor = self._build(spec)
        return self._install(spec.name, predictor, spec, replace=replace)

    def adopt(
        self,
        name: str,
        predictor: Predictor,
        spec: Optional[DeploymentSpec] = None,
        replace: bool = False,
    ) -> Deployment:
        """Install a pre-built predictor under ``name``.

        The escape hatch for predictors the registry cannot express (a
        hand-built service, a stub); build it with ``cache=hub.cache`` and
        ``pool=hub.pool`` to share the hub's infrastructure.  Without a
        ``spec`` the deployment cannot be :meth:`reload`\\ ed.
        """
        try:
            validate_deployment_name(name)
        except DeploymentSpecError as exc:
            raise HubError(str(exc)) from exc
        return self._install(name, predictor, spec, replace=replace)

    def unload(self, name: str) -> Deployment:
        """Stop serving ``name`` and drain its queued requests.

        Refuses to unload an alias target: flip or drop the alias first,
        so a stable public name can never silently dangle.  Requests that
        already resolved the deployment finish normally; new lookups get
        :class:`DeploymentNotFoundError` (HTTP 404) immediately.
        """
        deployment = self._update(lambda routes: routes.remove(name))
        deployment.predictor.stop()
        return deployment

    def reload(self, name: str) -> Deployment:
        """Rebuild ``name`` from its spec (re-resolving ``latest`` pins).

        The swap is atomic: requests route to the old predictor until the
        new one is fully built, then to the new one; the old predictor is
        drained and stopped after the swap.
        """
        spec = self._routes.get(name).spec
        if spec is None:
            raise HubError(
                f"deployment {name!r} was adopted pre-built and has no spec; "
                f"load() it declaratively to make it reloadable"
            )
        predictor = self._build(spec)
        return self._install(name, predictor, spec, replace=True)

    def alias(self, alias: str, target: str) -> None:
        """Point ``alias`` at deployment ``target`` (atomic flip).

        An alias is how zero-downtime version swaps work: clients call
        ``prod``, operators flip where ``prod`` points.  Alias names live
        in the same URL namespace as deployment names, so collisions are
        rejected.
        """
        self._update(lambda routes: routes.alias(alias, target))

    def unalias(self, alias: str) -> None:
        self._update(lambda routes: routes.unalias(alias))

    def set_default(self, name: Optional[str]) -> None:
        """Choose which deployment answers the unnamed routes (``None``:
        none does; they answer 404)."""
        self._update(lambda routes: routes.set_default(name))

    # ------------------------------------------------- cost model & fencing
    def set_cost_model(self, model: Optional[LatencyCostModel]) -> None:
        """Install (or clear) the calibrated latency cost model, hub-wide.

        Every loaded deployment that understands SLOs is rebound
        immediately — deadline-aware batch closing and admission budgets
        pick up the new calibration without a reload.  Deployments loaded
        later get the model at build time.
        """
        with self._lock:
            self._cost_model = model
            deployments = list(self._routes.deployments.values())
        for deployment in deployments:
            bind = getattr(deployment.predictor, "bind_slo", None)
            if bind is None:
                continue
            spec = deployment.spec
            slo = (
                spec.slo
                if spec is not None
                else getattr(deployment.predictor, "_slo", None)
            )
            bind(slo, model)

    def reload_cost_model(
        self,
        name: str = DEFAULT_COST_MODEL_NAME,
        version: Optional[str] = None,
    ) -> LatencyCostModel:
        """Hot-reload the cost model from the registry and rebind everyone."""
        if self.registry is None:
            raise HubError(
                "this hub has no registry; construct it with one to load "
                "cost-model artifacts"
            )
        model = load_cost_model(self.registry, name, version)
        self.set_cost_model(model)
        return model

    @property
    def cost_model(self) -> Optional[LatencyCostModel]:
        with self._lock:
            return self._cost_model

    def quarantine(self, name: str, reason: str = "operator request") -> None:
        """Fence ``name`` off from prediction traffic without unloading it.

        Quarantined deployments keep their state (cache namespace, stats,
        journal binding) and answer admin/introspection routes, but every
        predict/submit resolves to a structured 503 until
        :meth:`unquarantine`.
        """
        self._update(lambda routes: routes.quarantine(name, reason))

    def unquarantine(self, name: str) -> None:
        self._update(lambda routes: routes.unquarantine(name))

    # ------------------------------------------------------------- routing
    def resolve(self, name: Optional[str] = None) -> Deployment:
        """Deployment for ``name`` (a deployment name, an alias, or ``None``
        for the default).  Dict lookups in the published table, no lock —
        this is the whole per-request routing cost."""
        routes = self._routes
        return routes.deployments[routes.resolve(name)]

    def resolve_for_predict(self, name: Optional[str] = None) -> Deployment:
        """:meth:`resolve`, then enforce the quarantine fence — the lookup
        every prediction route must use."""
        routes = self._routes
        return routes.deployments[routes.resolve(name, for_predict=True)]

    def predict(self, name: Optional[str], request):
        predictor = self.resolve_for_predict(name).predictor
        with _admission_guard(predictor, 1):
            return predictor.predict(request)

    def predict_many(self, name: Optional[str], requests):
        predictor = self.resolve_for_predict(name).predictor
        with _admission_guard(predictor, len(requests)):
            return predictor.predict_many(requests)

    def submit(self, name: Optional[str], request):
        # submit() runs its own admission acquire (released when the future
        # resolves), so only the quarantine fence applies here.
        return self.resolve_for_predict(name).predictor.submit(request)

    # ---------------------------------------------------------- introspection
    def describe(self) -> Dict[str, object]:
        routes = self._routes
        return {
            "service": "hub",
            "models": {
                name: deployment.describe()
                for name, deployment in routes.deployments.items()
            },
            "aliases": dict(routes.aliases),
            "default": routes.default,
        }

    def model_health(self, name: Optional[str] = None) -> Dict[str, object]:
        """Health of one deployment: identity + its share of the cache."""
        deployment = self.resolve(name)
        predictor = deployment.predictor
        cache = getattr(predictor, "cache", None)
        entries = 0
        if cache is not None:
            namespace = getattr(predictor, "cache_namespace", None)
            entries = (
                cache.namespace_size(namespace()) if namespace is not None else len(cache)
            )
        routes = self._routes
        aliases = sorted(
            alias for alias, target in routes.aliases.items()
            if target == deployment.name
        )
        is_default = routes.default == deployment.name
        return {
            "status": "ok",
            "model": deployment.describe(),
            "aliases": aliases,
            "default": is_default,
            "cache": {
                "enabled": cache is not None,
                "entries": entries,
                "warm": entries > 0,
            },
            "drift": self._drift_summary(deployment.name),
        }

    def _drift_summary(self, name: str) -> Optional[Dict[str, object]]:
        """Compact drift status for ``model_health`` (None without journal)."""
        if self.journal is None:
            return None
        verdict = self.model_drift(name)
        return {
            "status": verdict["status"],
            "alerts": [alert["kind"] for alert in verdict["alerts"]],
        }

    def snapshot(self) -> Dict[str, object]:
        """Hub-wide metrics: per-model stats + shared-infrastructure stats."""
        routes = self._routes
        deployments = routes.deployments
        per_model = {
            name: deployment.predictor.snapshot()
            for name, deployment in deployments.items()
        }
        # Raw latency windows, where the predictors expose them, make the
        # aggregate's pooled percentiles honest (percentiles of per-model
        # percentiles would be statistics of nothing).
        latency_windows = [
            stats.latency_values()
            for deployment in deployments.values()
            if (stats := getattr(deployment.predictor, "stats", None)) is not None
            and hasattr(stats, "latency_values")
        ]
        return {
            "uptime_s": time.monotonic() - self._created_monotonic,
            "models": per_model,
            "aggregate": aggregate_snapshots(
                per_model.values(), latency_windows=latency_windows
            ),
            "aliases": dict(routes.aliases),
            "default": routes.default,
            "cache": self.cache.stats() if self.cache is not None else None,
            "pool": self.pool.telemetry(),
            "journal": self.journal.stats() if self.journal is not None else None,
            "checkpoint": self.checkpoint.stats() if self.checkpoint is not None else None,
        }

    def capacity_report(self, name: Optional[str] = None) -> Dict[str, object]:
        """Predicted vs measured operating point of the hub (or one model).

        Served on ``GET /v1/capacity`` (all deployments) and
        ``GET /v1/models/<name>/capacity`` (one).  Each entry is the
        frontend's :meth:`~repro.serving.service.ServingFrontend.capacity`
        verdict plus the hub-level quarantine flag; the report footer
        carries the cost-model identity and the summed sustainable QPS the
        calibration predicts for the current mix.
        """
        routes = self._routes
        if name is not None:
            targets = [routes.deployments[routes.resolve(name)]]
        else:
            targets = [routes.deployments[key] for key in sorted(routes.deployments)]
        quarantined = routes.quarantined
        with self._lock:
            cost_model = self._cost_model
        models: Dict[str, object] = {}
        total_qps = 0.0
        any_qps = False
        for deployment in targets:
            capacity = getattr(deployment.predictor, "capacity", None)
            entry: Dict[str, object] = capacity() if capacity is not None else {}
            entry["quarantined"] = quarantined.get(deployment.name)
            models[deployment.name] = entry
            predicted = entry.get("predicted")
            if isinstance(predicted, dict):
                qps = predicted.get("sustainable_qps")
                if isinstance(qps, (int, float)):
                    total_qps += float(qps)
                    any_qps = True
        return {
            "models": models,
            "cost_model": cost_model_summary(cost_model),
            "total_sustainable_qps": total_qps if any_qps else None,
        }

    def model_drift(self, name: Optional[str] = None) -> Dict[str, object]:
        """Drift verdict for one deployment, from the journal's live tail.

        Served on ``GET /v1/models/<name>/drift``.  Without a journal
        there is nothing to judge from — the response says so instead of
        pretending "ok".
        """
        deployment = self.resolve(name)
        if self.journal is None:
            return {
                "model": deployment.name,
                "status": "no-journal",
                "alerts": [],
            }
        verdict = detect_drift(
            self.journal.recent(deployment.name), self.drift_config
        )
        verdict["model"] = deployment.name
        return verdict

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ModelHub":
        """Start every deployment's batcher and the checkpoint daemon;
        deployments loaded later start immediately."""
        with self._lock:
            self._started = True
            deployments = list(self._routes.deployments.values())
        for deployment in deployments:
            deployment.predictor.start()
        if self.checkpoint is not None:
            self.checkpoint.start()
        return self

    def stop(self) -> None:
        """Drain every deployment, close the shared pool, write the final
        checkpoint last (so results computed during the drain land in it)."""
        with self._lock:
            self._started = False
            deployments = list(self._routes.deployments.values())
        for deployment in deployments:
            deployment.predictor.stop()
        self.pool.close()
        if self.checkpoint is not None:
            self.checkpoint.stop()
        if self.journal is not None:
            # Last: the drained deployments' final records must land on disk.
            self.journal.close()

    def __enter__(self) -> "ModelHub":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------ internals
    def _update(self, change: Callable[[Routes[Deployment]], R]) -> R:
        """Apply ``change`` to a copy of the routing table and publish the
        copy; a change the policy rejects raises and publishes nothing."""
        with self._lock:
            routes = self._routes.copy()
            result = change(routes)
            self._routes = routes
        return result

    def _build(self, spec: DeploymentSpec) -> Predictor:
        if self.registry is None:
            raise HubError(
                "this hub has no registry; construct it with one (or a root "
                "path) to load() deployments declaratively"
            )
        # The shared cache backs every deployment that wants caching; a
        # spec opting out, or any spec on a hub built without a cache, gets
        # no cache at all (not a private one), so cache telemetry stays one
        # coherent table and a cache-less hub runs every request's batch.
        shared_cache = self.cache if spec.enable_cache else None
        # All hub-built deployments share one worker pool.
        knobs = dict(
            batching=spec.batching,
            latency_window=spec.latency_window,
            cache=shared_cache,
            pool=self.pool,
        )
        if spec.kind == "single":
            ref = self.registry.resolve(spec.artifact, spec.version)
            artifact = self.registry.load(ref.name, ref.version)
            predictor: ServingFrontend = PredictionService.from_artifact(
                artifact, **knobs
            )
        else:
            predictor = EnsemblePredictionService.from_registry(
                self.registry.root,
                spec.fold_group,
                folds=spec.folds,
                strategy=spec.strategy,
                **knobs,
            )
        _best_effort_warm_up(shared_cache, spec.warmup_path)
        # Bound before install: the batcher this predictor builds on first
        # traffic must already know its deadline target.
        with self._lock:
            cost_model = self._cost_model
        predictor.bind_slo(spec.slo, cost_model)
        return predictor

    def _install(
        self,
        name: str,
        predictor: Predictor,
        spec: Optional[DeploymentSpec],
        replace: bool,
    ) -> Deployment:
        deployment = Deployment(
            name=name, predictor=predictor, spec=spec, created_unix=time.time()
        )
        if self.journal is not None:
            # Bound before the deployment becomes routable, so every request
            # it ever answers is journalled.  Adopted predictors may be
            # arbitrary Predictor implementations; only journal the ones
            # that know how.
            bind = getattr(predictor, "bind_journal", None)
            if bind is not None:
                bind(self.journal, name)
        with self._lock:
            previous = self._update(
                lambda routes: routes.install(name, deployment, replace)
            )
            started = self._started
        if started:
            predictor.start()
        if previous is not None:
            # Drained after the swap: requests that resolved the old
            # predictor finish on it, new requests already route to the
            # replacement.
            previous.predictor.stop()
        return deployment
