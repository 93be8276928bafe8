"""Declarative deployment specs and the predictor interface they produce.

A :class:`DeploymentSpec` is the one way to configure a deployment: it
names the deployment, points it at a registry artefact (``artifact`` +
optional ``version`` pin) **or** a fold group (``fold_group`` +
combination ``strategy``), and carries the serving knobs — the nested
``batching`` block (:class:`BatchingConfig`), the ``slo`` block
(:class:`SLOConfig`), whether to use the hub's shared cache, the stats
window and a warm-up file.  The :class:`~repro.serving.hub.ModelHub`
resolves a spec against an :class:`~repro.serving.registry.ArtifactRegistry`
and builds the right front-end behind the :class:`Predictor` protocol, so
single-fold and ensemble serving are two implementations of one interface.

Specs have a strict wire codec (:func:`deployment_spec_to_dict` /
:func:`deployment_spec_from_dict`), so the same record configures a
deployment from Python, from the ``repro-serve`` command line, or over the
hub's HTTP admin endpoint (``POST /v1/models/<name>/load``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable

from .batcher import BatchingConfig
from .ensemble import STRATEGIES

#: deployment names become URL path segments (``/v1/models/<name>/...``):
#: one segment, no separators, no dots leading (path traversal), URL-safe.
_DEPLOYMENT_NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}")

#: version pins accepted by a spec: a concrete registry version or "latest".
_VERSION_PIN_PATTERN = re.compile(r"v\d{4,}")


class DeploymentSpecError(ValueError):
    """A structurally invalid deployment spec (bad name, target, or knob)."""


#: admissible ``SLOConfig.shed_policy`` values: ``"none"`` observes only,
#: ``"shed"`` enforces the budgets with structured 429s.
SHED_POLICIES: Tuple[str, ...] = ("none", "shed")


@dataclass(frozen=True)
class SLOConfig:
    """Service-level objectives of one deployment (the ``slo`` block).

    ``p95_ms`` is the latency target the cost model seals batches against;
    ``max_queue_ms``/``max_concurrency`` bound admitted load; and
    ``shed_policy`` decides whether exceeding the budgets sheds requests
    (``"shed"`` → structured 429 with ``Retry-After``) or merely shows up
    in the capacity report (``"none"``, the default).
    """

    p95_ms: Optional[float] = None
    max_queue_ms: Optional[float] = None
    max_concurrency: Optional[int] = None
    shed_policy: str = "none"

    def __post_init__(self) -> None:
        if self.p95_ms is not None and self.p95_ms <= 0:
            raise ValueError("p95_ms must be > 0")
        if self.max_queue_ms is not None and self.max_queue_ms < 0:
            raise ValueError("max_queue_ms must be >= 0")
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed_policy {self.shed_policy!r}; "
                f"expected one of {SHED_POLICIES}"
            )


def batching_config_to_dict(config: BatchingConfig) -> Dict[str, object]:
    return {
        "max_batch_size": config.max_batch_size,
        "max_delay_s": config.max_delay_s,
    }


def batching_config_from_dict(data: object) -> BatchingConfig:
    if not isinstance(data, dict):
        raise DeploymentSpecError(
            f"'batching' must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - {"max_batch_size", "max_delay_s"})
    if unknown:
        raise DeploymentSpecError(f"'batching' has unknown field(s) {unknown}")
    try:
        return BatchingConfig(**data)
    except (TypeError, ValueError) as exc:
        raise DeploymentSpecError(f"invalid 'batching' block: {exc}") from exc


def slo_config_to_dict(config: SLOConfig) -> Dict[str, object]:
    return {
        "p95_ms": config.p95_ms,
        "max_queue_ms": config.max_queue_ms,
        "max_concurrency": config.max_concurrency,
        "shed_policy": config.shed_policy,
    }


def slo_config_from_dict(data: object) -> SLOConfig:
    if not isinstance(data, dict):
        raise DeploymentSpecError(
            f"'slo' must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(
        set(data) - {"p95_ms", "max_queue_ms", "max_concurrency", "shed_policy"}
    )
    if unknown:
        raise DeploymentSpecError(f"'slo' has unknown field(s) {unknown}")
    try:
        return SLOConfig(**data)
    except (TypeError, ValueError) as exc:
        raise DeploymentSpecError(f"invalid 'slo' block: {exc}") from exc


def validate_deployment_name(name: str) -> str:
    """Check one deployment/alias name (they share a URL namespace)."""
    if not isinstance(name, str) or not _DEPLOYMENT_NAME_PATTERN.fullmatch(name):
        raise DeploymentSpecError(
            f"invalid deployment name {name!r}: must be one URL path "
            f"segment of [A-Za-z0-9._-], not starting with '.' or '-'"
        )
    return name


@runtime_checkable
class Predictor(Protocol):
    """What the hub (and the HTTP layer) require of a deployed model.

    Both serving front-ends — :class:`~repro.serving.service.PredictionService`
    and :class:`~repro.serving.ensemble.EnsemblePredictionService` — satisfy
    this structurally via their shared
    :class:`~repro.serving.service.ServingFrontend` base; anything else that
    answers these methods (a stub, a remote proxy) can be adopted into a
    hub the same way.
    """

    def predict(self, request): ...

    def predict_many(self, requests: Sequence) -> list: ...

    def submit(self, request): ...

    def start(self): ...

    def stop(self) -> None: ...

    def snapshot(self) -> Dict[str, object]: ...

    def describe(self) -> Dict[str, object]: ...


@dataclass(frozen=True)
class DeploymentSpec:
    """One named deployment, declaratively.

    Exactly one of ``artifact`` (serve a single registry artefact) or
    ``fold_group`` (serve every ``<fold_group>-fold<k>`` artefact as an
    ensemble) must be set.  ``version`` pins a single-artifact deployment to
    a concrete registry version (``"latest"``/``None`` tracks the newest —
    re-resolved on every :meth:`~repro.serving.hub.ModelHub.reload`);
    ensemble members always serve their latest versions.

    Batching knobs live in the nested ``batching`` block
    (:class:`BatchingConfig`, defaulted when absent); service-level
    objectives in the ``slo`` block (:class:`SLOConfig`).  ``enable_cache``
    chooses between the hub's shared cache and none, and ``warmup_path``
    names a cache dump the hub loads into that shared cache, best-effort,
    when the deployment is built.
    """

    name: str
    artifact: Optional[str] = None
    fold_group: Optional[str] = None
    version: Optional[str] = None
    strategy: str = "mean-softmax"
    folds: Optional[Tuple[int, ...]] = None
    enable_cache: bool = True
    latency_window: int = 4096
    warmup_path: Optional[str] = None
    batching: Optional[BatchingConfig] = None
    slo: Optional[SLOConfig] = None

    def __post_init__(self) -> None:
        validate_deployment_name(self.name)
        if self.batching is None:
            object.__setattr__(self, "batching", BatchingConfig())
        elif not isinstance(self.batching, BatchingConfig):
            raise DeploymentSpecError(
                f"deployment {self.name!r}: 'batching' must be a "
                f"BatchingConfig (decode wire data with "
                f"deployment_spec_from_dict)"
            )
        if self.slo is not None and not isinstance(self.slo, SLOConfig):
            raise DeploymentSpecError(
                f"deployment {self.name!r}: 'slo' must be an SLOConfig "
                f"(decode wire data with deployment_spec_from_dict)"
            )
        if (self.artifact is None) == (self.fold_group is None):
            raise DeploymentSpecError(
                f"deployment {self.name!r} must set exactly one of 'artifact' "
                f"(single model) or 'fold_group' (ensemble)"
            )
        if self.version == "latest":
            # Normalise the explicit pin-to-latest spelling to None, so
            # "latest" and an absent pin compare (and re-resolve) the same.
            object.__setattr__(self, "version", None)
        if self.version is not None:
            if self.fold_group is not None:
                raise DeploymentSpecError(
                    f"deployment {self.name!r}: 'version' only applies to "
                    f"'artifact' deployments (ensemble members always serve "
                    f"their latest versions)"
                )
            if not _VERSION_PIN_PATTERN.fullmatch(self.version):
                raise DeploymentSpecError(
                    f"deployment {self.name!r}: invalid version pin "
                    f"{self.version!r} (expected 'vNNNN' or 'latest')"
                )
        if self.strategy not in STRATEGIES:
            raise DeploymentSpecError(
                f"deployment {self.name!r}: unknown strategy {self.strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        if self.folds is not None:
            if self.fold_group is None:
                raise DeploymentSpecError(
                    f"deployment {self.name!r}: 'folds' only applies to "
                    f"'fold_group' deployments"
                )
            object.__setattr__(self, "folds", tuple(int(fold) for fold in self.folds))
        if self.latency_window < 1:
            raise DeploymentSpecError(
                f"deployment {self.name!r}: latency_window must be >= 1"
            )

    # ------------------------------------------------------------ properties
    @property
    def kind(self) -> str:
        """``"single"`` or ``"ensemble"`` — which front-end this spec builds."""
        return "single" if self.artifact is not None else "ensemble"

    @property
    def target(self) -> str:
        """The registry name this spec serves (artifact or fold-group base)."""
        return self.artifact if self.artifact is not None else self.fold_group


#: spec fields that keep their dataclass default when absent on the wire.
_SPEC_FIELDS = {spec_field.name for spec_field in fields(DeploymentSpec)}


def deployment_spec_to_dict(spec: DeploymentSpec) -> Dict[str, object]:
    """JSON-friendly encoding of one spec (round-trips through
    :func:`deployment_spec_from_dict`)."""
    return {
        "name": spec.name,
        "artifact": spec.artifact,
        "fold_group": spec.fold_group,
        "version": spec.version,
        "strategy": spec.strategy,
        "folds": list(spec.folds) if spec.folds is not None else None,
        "batching": batching_config_to_dict(spec.batching),
        "slo": slo_config_to_dict(spec.slo) if spec.slo is not None else None,
        "enable_cache": spec.enable_cache,
        "latency_window": spec.latency_window,
        "warmup_path": spec.warmup_path,
    }


def deployment_spec_from_dict(
    data: object, name: Optional[str] = None
) -> DeploymentSpec:
    """Strictly decode one spec from wire data.

    ``name`` supplies (or cross-checks) the deployment name when the
    transport carries it out of band — the HTTP admin endpoint takes the
    name from the URL path, so a body naming a *different* deployment is
    rejected instead of silently winning.
    """
    if not isinstance(data, dict):
        raise DeploymentSpecError(
            f"deployment spec must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - _SPEC_FIELDS)
    if unknown:
        raise DeploymentSpecError(f"deployment spec has unknown field(s) {unknown}")
    payload = dict(data)
    body_name = payload.get("name")
    if body_name is not None and not isinstance(body_name, str):
        raise DeploymentSpecError("deployment spec 'name' must be a string")
    if name is not None:
        if body_name is not None and body_name != name:
            raise DeploymentSpecError(
                f"deployment spec names {body_name!r} but was addressed to {name!r}"
            )
        payload["name"] = name
    if "folds" in payload and payload["folds"] is not None:
        folds = payload["folds"]
        if not isinstance(folds, (list, tuple)) or not all(
            isinstance(fold, int) and not isinstance(fold, bool) for fold in folds
        ):
            raise DeploymentSpecError("deployment spec 'folds' must be a list of ints")
        payload["folds"] = tuple(folds)
    if "name" not in payload or payload["name"] is None:
        raise DeploymentSpecError("deployment spec is missing required field 'name'")
    if payload.get("batching") is not None and not isinstance(
        payload["batching"], BatchingConfig
    ):
        payload["batching"] = batching_config_from_dict(payload["batching"])
    if payload.get("slo") is not None and not isinstance(
        payload["slo"], SLOConfig
    ):
        payload["slo"] = slo_config_from_dict(payload["slo"])
    try:
        return DeploymentSpec(**payload)
    except TypeError as exc:
        raise DeploymentSpecError(f"invalid deployment spec: {exc}") from exc
