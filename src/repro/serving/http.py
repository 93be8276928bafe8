"""JSON-over-HTTP wire protocol for the model hub.

This module puts a :class:`~repro.serving.hub.ModelHub` — many named
deployments in one process — behind a stdlib HTTP server
(``http.server.ThreadingHTTPServer``, no third-party web framework):

* ``POST /v1/models/<name>/predict`` — body ``{"graph": {...}}`` (one
  wire-encoded :class:`~repro.graphs.graph.ProgramGraph`) or
  ``{"graphs": [{...}, ...]}`` (a batch), answered by the named deployment
  (``<name>`` may be a deployment name or an alias such as ``prod``).
  Single-graph requests ride the deployment's micro-batcher, so concurrent
  HTTP clients coalesce into shared RGCN forward passes; batch bodies go
  straight to ``predict_many``.
  Bodies may add ``"trace": true`` to get the request's per-stage span
  timings (decode → cache lookup → queue wait → plan build → infer →
  combine) back in each result.
* ``GET /v1/models`` — the served set: per-model health, aliases, default.
* ``GET /v1/models/<name>`` / ``GET /v1/models/<name>/metrics`` — one
  model's health / serving stats.
* ``GET /v1/models/<name>/drift`` — windowed drift verdict (label shift,
  fold-agreement collapse) over the hub journal's live tail.
* ``POST /v1/models/<name>/load|unload|reload|alias`` — admin: mutate the
  served set at runtime (load takes a
  :class:`~repro.serving.deployment.DeploymentSpec` body, alias takes
  ``{"target": ...}``); an alias flip is atomic, so a version swap fails
  zero in-flight requests.
* ``GET /healthz`` / ``GET /metrics`` — process-level liveness and
  telemetry, with one section per model plus the shared cache/pool/
  journal/checkpoint infrastructure.  Both answer ``HEAD`` too;
  ``/metrics?format=prometheus`` serves the stdlib-rendered text
  exposition instead of JSON (unknown formats get a structured 406).
* ``POST /v1/predict`` — the unnamed route, answered by the hub's
  *default* deployment.

Malformed requests (invalid JSON, unknown fields, structurally invalid
graphs, unsupported schema versions, unknown models) are mapped onto
structured 4xx responses — ``{"error": {"status": ..., "code": ...,
"message": ...}}`` — never opaque 500s; wrong-method hits on known routes
get a structured 405 carrying an ``Allow`` header.

:class:`ServingApp` holds the transport-independent routing/validation
logic (testable without opening a socket); :class:`PredictionHTTPServer`
binds it to a threading HTTP server and starts and stops the hub it
serves.  Both take a :class:`~repro.serving.hub.ModelHub` or a
:class:`~repro.serving.replica.ReplicaSupervisor` — a hand-built service
is served by adopting it into a hub.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs

from .costmodel import OverCapacityError, retry_after_header
from .deployment import DeploymentSpecError, deployment_spec_from_dict
from .ensemble import EnsemblePredictionResult
from .hub import (
    DeploymentExistsError,
    DeploymentNotFoundError,
    DeploymentQuarantinedError,
    HubError,
    ModelHub,
)
from .registry import ArtifactNotFoundError
from .replica import DrainingError, ReplicaSupervisor, ReplicaUnavailableError
from .serialization import (
    SerializationError,
    configuration_to_dict,
    program_graph_from_dict,
)
from .stats import render_prometheus

#: requests larger than this are rejected with 413 before being parsed.
DEFAULT_MAX_BODY_BYTES = 8 << 20  # 8 MiB

#: how long one predict request may wait on the micro-batcher.
DEFAULT_REQUEST_TIMEOUT_S = 30.0

#: an app view: takes the (possibly absent) request body, returns the
#: payload — a JSON-able dict, or a raw ``str`` served as ``text/plain``
#: (the Prometheus exposition).
_View = Callable[[Optional[bytes]], Union[Dict[str, object], str]]

#: response headers attached to a payload (e.g. ``Allow`` on a 405).
Headers = Dict[str, str]


#: Wire contract: every structured error code this layer can return, with
#: the client-facing meaning.  The ``wire-errors`` lint rule enforces that
#: this registry and the raise sites stay in lockstep (unique, documented,
#: raised, and referenced by a test) — add the code here *and* a test when
#: introducing a new error path.
ERROR_CODES = {
    "artifact-not-found": "a model artifact referenced by a spec is missing",
    "deployment-quarantined": (
        "the deployment is operator-fenced; traffic 503s until unquarantined"
    ),
    "draining": "the replica pool is shutting down; new requests are refused",
    "hub-error": "the hub rejected the operation in its current state",
    "internal": "unexpected server-side failure; message carries the type",
    "invalid-graph": "a graph payload failed structural validation",
    "invalid-json": "the request body is not valid UTF-8 JSON",
    "invalid-request": "a request field is missing, unknown, or mistyped",
    "invalid-spec": "a deployment spec failed validation",
    "length-required": "the request carries a body but no Content-Length",
    "method-not-allowed": "the path exists but not for this HTTP method",
    "model-exists": "a deployment with this name is already loaded",
    "model-not-found": "no deployment with this name is loaded",
    "not-found": "no route matches the request path",
    "over-capacity": (
        "the deployment's admission budget is exhausted; retry after the "
        "Retry-After delay"
    ),
    "payload-too-large": "the declared body size exceeds the configured limit",
    "replica-unavailable": (
        "no ready replica could answer (workers dying faster than the retry "
        "budget, or the pool is still spawning); retry shortly"
    ),
    "timeout": "the prediction did not complete within the request deadline",
    "unsupported-format": "an unknown serialization format was requested",
}

#: Route contract: every path the app serves, with the client-facing
#: meaning.  Dynamic segments are spelled ``{name}``.  The
#: ``route-registry`` lint rule keeps this table, the ``_route``
#: dispatcher, and the test suite in lockstep (every served route
#: registered, every entry served and exercised by a test) — add the
#: route here *and* a test when growing the surface.
ROUTES = {
    "GET /healthz": "liveness probe: cheap, lock-free, always 200",
    "GET /metrics": "service-wide metrics (JSON, or Prometheus text format)",
    "POST /v1/predict": "predict against the default deployment",
    "GET /v1/capacity": "admission-budget capacity report for every model",
    "GET /v1/models": "list deployments with aliases and default marker",
    "GET /v1/models/{name}": "health snapshot of one deployment",
    "POST /v1/models/{name}/predict": "predict against a named deployment",
    "GET /v1/models/{name}/metrics": "per-model serving metrics",
    "GET /v1/models/{name}/capacity": "admission-budget report for one model",
    "GET /v1/models/{name}/drift": "feature-drift report for one model",
    "POST /v1/models/{name}/quarantine": (
        "fence (or, with {\"quarantined\": false}, unfence) a deployment"
    ),
    "POST /v1/models/{name}/load": "load a deployment from a spec body",
    "POST /v1/models/{name}/unload": "unload a deployment",
    "POST /v1/models/{name}/reload": "reload a deployment from its registry spec",
    "POST /v1/models/{name}/alias": "point an alias at a deployment",
}


def error_payload(status: int, code: str, message: str) -> Dict[str, object]:
    """The uniform error body every non-2xx response carries."""
    return {"error": {"status": status, "code": code, "message": message}}


class RequestError(Exception):
    """A client-side problem, mapped onto one structured 4xx response."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        headers: Optional[Headers] = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.headers: Headers = dict(headers or {})

    def __reduce__(self):
        # Exception pickles ``args`` alone, which holds only the message.
        return type(self), (self.status, self.code, self.message, self.headers)

    def payload(self) -> Dict[str, object]:
        return error_payload(self.status, self.code, self.message)


def result_to_dict(result, include_trace: bool = False) -> Dict[str, object]:
    """Wire encoding of a prediction result (single-fold or ensemble).

    The per-stage trace is opt-in (``include_trace``): most clients don't
    want the extra bytes, and the spans are always aggregated into
    ``/metrics`` regardless.
    """
    payload: Dict[str, object] = {
        "name": result.name,
        "fingerprint": result.fingerprint,
        "label": int(result.label),
        "probabilities": [float(p) for p in result.probabilities],
        "configuration": (
            configuration_to_dict(result.configuration)
            if result.configuration is not None
            else None
        ),
        "needs_profiling": (
            bool(result.needs_profiling) if result.needs_profiling is not None else None
        ),
        "cache_hit": bool(result.cache_hit),
        "latency_s": float(result.latency_s),
    }
    if isinstance(result, EnsemblePredictionResult):
        payload["per_fold_labels"] = {
            str(fold): int(label) for fold, label in result.per_fold_labels.items()
        }
        payload["agreement"] = float(result.agreement)
        payload["unanimous"] = bool(result.unanimous)
    if include_trace:
        trace = getattr(result, "trace", None)
        payload["trace"] = (
            {stage: float(value) for stage, value in trace.items()}
            if trace is not None
            else None
        )
    return payload


class ServingApp:
    """Transport-independent request router over one model hub.

    ``handle(method, path, body)`` returns ``(status, payload, headers)``
    and never raises for client mistakes — every validation failure is a
    structured 4xx payload.  The HTTP handler below is a thin byte
    shuffler around it, which keeps the whole protocol unit-testable
    without sockets.

    ``target`` is a :class:`~repro.serving.hub.ModelHub` or a
    :class:`~repro.serving.replica.ReplicaSupervisor` (same routing
    surface, answered by a pool of worker processes).
    """

    def __init__(
        self,
        target: Union[ModelHub, ReplicaSupervisor],
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
    ):
        if request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if not isinstance(target, (ModelHub, ReplicaSupervisor)):
            raise TypeError(
                f"ServingApp serves a ModelHub or a ReplicaSupervisor, got "
                f"{type(target).__name__}; adopt a hand-built service into a "
                f"ModelHub first"
            )
        self.hub = target
        self.request_timeout_s = float(request_timeout_s)
        self._started = False
        self._started_monotonic = time.monotonic()

    # ----------------------------------------------------------- properties
    @property
    def service(self):
        """The default deployment's predictor (``None`` without one)."""
        try:
            return self.hub.resolve(None).predictor
        except DeploymentNotFoundError:
            return None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ServingApp":
        """Start the hub (every deployment's batcher + its daemon)."""
        self.hub.start()
        self._started = True
        self._started_monotonic = time.monotonic()
        return self

    def stop(self) -> None:
        """Drain the hub; it writes its final checkpoint last, so results
        computed during the drain make it into the file."""
        self._started = False
        self.hub.stop()

    # -------------------------------------------------------------- routing
    def handle(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Union[Dict[str, object], str], Headers]:
        path, _, query_string = path.partition("?")
        # Last value wins for repeated parameters, matching common servers.
        query = {
            key: values[-1]
            for key, values in parse_qs(
                query_string, keep_blank_values=True
            ).items()
        }
        path = path.rstrip("/") or "/"
        route = self._route(path, query)
        if route is None:
            return 404, error_payload(404, "not-found", f"unknown path {path!r}"), {}
        allowed = set(route)
        if "GET" in allowed:
            allowed.add("HEAD")
        if method not in allowed:
            allow = ", ".join(sorted(allowed))
            return (
                405,
                error_payload(
                    405,
                    "method-not-allowed",
                    f"{path} only accepts {allow}, got {method}",
                ),
                {"Allow": allow},
            )
        view = route["GET"] if method == "HEAD" else route[method]
        try:
            payload = view(body)
            headers: Headers = (
                {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"}
                if isinstance(payload, str)
                else {}
            )
            return 200, payload, headers
        except RequestError as exc:
            return exc.status, exc.payload(), exc.headers
        except OverCapacityError as exc:
            # Shed, not failed: the admission budget said no.  Retry-After
            # tells well-behaved clients when a slot should free up.
            return (
                429,
                error_payload(429, "over-capacity", str(exc)),
                {"Retry-After": retry_after_header(exc.retry_after_s)},
            )
        except DeploymentNotFoundError as exc:
            return 404, error_payload(404, "model-not-found", str(exc)), {}
        except DeploymentQuarantinedError as exc:
            return 503, error_payload(503, "deployment-quarantined", str(exc)), {}
        except DrainingError as exc:
            # The pool is shutting down: refuse new work before it queues
            # behind workers that are busy draining.
            return 503, error_payload(503, "draining", str(exc)), {}
        except ReplicaUnavailableError as exc:
            # Failover exhausted its retry budget (or nothing is ready yet)
            # — a transient 503, not a client mistake.
            return 503, error_payload(503, "replica-unavailable", str(exc)), {}
        except ArtifactNotFoundError as exc:
            return 404, error_payload(404, "artifact-not-found", str(exc)), {}
        except DeploymentExistsError as exc:
            return 409, error_payload(409, "model-exists", str(exc)), {}
        except DeploymentSpecError as exc:
            return 400, error_payload(400, "invalid-spec", str(exc)), {}
        except HubError as exc:
            return 409, error_payload(409, "hub-error", str(exc)), {}
        except Exception as exc:  # a genuine server-side failure
            return 500, error_payload(500, "internal", f"{type(exc).__name__}: {exc}"), {}

    def _route(
        self, path: str, query: Optional[Dict[str, str]] = None
    ) -> Optional[Dict[str, _View]]:
        """The method → view table for one normalised path (None = 404)."""
        query = query or {}
        if path == "/healthz":
            return {"GET": lambda body: self.healthz()}
        if path == "/metrics":
            return {"GET": lambda body: self.metrics(query.get("format"))}
        if path == "/v1/predict":
            return {"POST": lambda body: self.predict(body, model=None)}
        if path == "/v1/capacity":
            return {"GET": lambda body: self.hub.capacity_report()}
        if path == "/v1/models":
            return {"GET": lambda body: self.list_models()}
        prefix = "/v1/models/"
        if not path.startswith(prefix):
            return None
        segments = path[len(prefix):].split("/")
        if not all(segments):
            return None
        if len(segments) == 1:
            name = segments[0]
            return {"GET": lambda body: self.model_health(name)}
        if len(segments) != 2:
            return None
        name, action = segments
        if action == "predict":
            return {"POST": lambda body: self.predict(body, model=name)}
        if action == "metrics":
            return {"GET": lambda body: self.model_metrics(name)}
        if action == "capacity":
            return {"GET": lambda body: self.hub.capacity_report(name)}
        if action == "drift":
            return {"GET": lambda body: self.hub.model_drift(name)}
        if action == "quarantine":
            return {"POST": lambda body: self.admin_quarantine(name, body)}
        if action == "load":
            return {"POST": lambda body: self.admin_load(name, body)}
        if action == "unload":
            return {"POST": lambda body: self.admin_unload(name)}
        if action == "reload":
            return {"POST": lambda body: self.admin_reload(name)}
        if action == "alias":
            return {"POST": lambda body: self.admin_alias(name, body)}
        return None

    # --------------------------------------------------------------- views
    def healthz(self) -> Dict[str, object]:
        default = self.service
        cache = self.hub.cache
        return {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_monotonic,
            "serving": (
                default.describe() if default is not None else self.hub.describe()
            ),
            "models": {
                name: self.hub.model_health(name) for name in self.hub.names()
            },
            "cache": {
                "enabled": cache is not None,
                "entries": len(cache) if cache is not None else 0,
                "warm": bool(cache is not None and len(cache) > 0),
            },
            "checkpoint": (
                self.hub.checkpoint.stats() if self.hub.checkpoint is not None else None
            ),
        }

    def metrics(self, format: Optional[str] = None) -> Union[Dict[str, object], str]:
        default = self.service
        payload = {
            # The default deployment's stats.
            "stats": default.snapshot() if default is not None else None,
            # Hub section: one stats entry per model + shared cache/pool.
            "hub": self.hub.snapshot(),
            "checkpoint": (
                self.hub.checkpoint.stats() if self.hub.checkpoint is not None else None
            ),
        }
        if format is None or format == "json":
            return payload
        if format == "prometheus":
            return render_prometheus(payload)
        raise RequestError(
            406,
            "unsupported-format",
            f"unknown metrics format {format!r}; supported: json, prometheus",
        )

    def list_models(self) -> Dict[str, object]:
        return {
            "models": {
                name: self.hub.model_health(name) for name in self.hub.names()
            },
            "aliases": self.hub.aliases(),
            "default": self.hub.default_name,
            "count": len(self.hub),
        }

    def model_health(self, name: str) -> Dict[str, object]:
        return self.hub.model_health(name)

    def model_metrics(self, name: str) -> Dict[str, object]:
        deployment = self.hub.resolve(name)
        return {"model": deployment.name, "stats": deployment.predictor.snapshot()}

    def predict(self, body: Optional[bytes], model: Optional[str]) -> Dict[str, object]:
        # Resolve before parsing the body: an unknown (or quarantined)
        # model 404s/503s fast, before any decode work.  The deployment's
        # predictor may be in-process or a replica-pool proxy; prediction
        # itself goes through the hub-level entry points, which route
        # identically for both.
        predictor = self.hub.resolve_for_predict(model).predictor
        decode_start = time.perf_counter()
        payload = self._parse_body(body)
        include_trace = payload.get("trace", False)
        if not isinstance(include_trace, bool):
            raise RequestError(400, "invalid-request", "'trace' must be a boolean")
        if "graph" in payload:
            graph = self._decode_graph(payload["graph"], "graph")
            decode_s = time.perf_counter() - decode_start
            self._record_decode(predictor, decode_s)
            # Through the micro-batcher: concurrent HTTP handler threads
            # coalesce into shared forward passes.  Fall back to the sync
            # path when the app (hence the batchers) was never started.
            if self._started:
                future = self.hub.submit(model, graph)
                try:
                    result = future.result(timeout=self.request_timeout_s)
                except FutureTimeoutError:
                    future.cancel()
                    raise RequestError(
                        504,
                        "timeout",
                        f"prediction did not complete within {self.request_timeout_s}s",
                    ) from None
            else:
                result = self.hub.predict_many(model, [graph])[0]
            self._attach_decode(result, decode_s)
            return {"result": result_to_dict(result, include_trace=include_trace)}

        entries = payload["graphs"]
        if not isinstance(entries, list):
            raise RequestError(
                400, "invalid-request", "'graphs' must be a list of graph objects"
            )
        graphs = [
            self._decode_graph(entry, f"graphs[{i}]") for i, entry in enumerate(entries)
        ]
        # One decode span for the whole body — parsing and decoding happen
        # as one pass, so each result reports what its request paid.
        decode_s = time.perf_counter() - decode_start
        self._record_decode(predictor, decode_s)
        # Batch bodies bypass submit(), so the hub charges the admission
        # budget (one slot per graph); over-budget raises
        # OverCapacityError, mapped onto the structured 429 in handle().
        results = self.hub.predict_many(model, graphs)
        for result in results:
            self._attach_decode(result, decode_s)
        return {
            "results": [
                result_to_dict(result, include_trace=include_trace)
                for result in results
            ],
            "count": len(results),
        }

    @staticmethod
    def _record_decode(predictor, decode_s: float) -> None:
        """Fold the HTTP decode span into the predictor's stage stats."""
        stats = getattr(predictor, "stats", None)
        record = getattr(stats, "record_stage", None)
        if record is not None:
            record("decode", decode_s)

    @staticmethod
    def _attach_decode(result, decode_s: float) -> None:
        trace = getattr(result, "trace", None)
        if trace is not None:
            trace["decode_s"] = decode_s

    # ---------------------------------------------------------------- admin
    def admin_load(self, name: str, body: Optional[bytes]) -> Dict[str, object]:
        """``POST /v1/models/<name>/load`` — deploy a spec under ``name``.

        The body is a :class:`DeploymentSpec` object (its ``name`` may be
        omitted — the URL supplies it — but must match if present), or
        ``{"spec": {...}, "replace": true}`` to atomically swap an
        existing deployment of the same name.
        """
        payload = self._parse_json_object(body)
        replace = False
        if "spec" in payload:
            replace = payload.get("replace", False)
            if not isinstance(replace, bool):
                raise RequestError(400, "invalid-request", "'replace' must be a boolean")
            unknown = sorted(set(payload) - {"spec", "replace"})
            if unknown:
                raise RequestError(
                    400, "invalid-request", f"unknown field(s) {unknown}"
                )
            spec_data = payload["spec"]
        else:
            spec_data = payload
        spec = deployment_spec_from_dict(spec_data, name=name)
        deployment = self.hub.load(spec, replace=replace)
        return {"loaded": deployment.name, "model": deployment.describe()}

    def admin_unload(self, name: str) -> Dict[str, object]:
        deployment = self.hub.unload(name)
        return {"unloaded": deployment.name}

    def admin_quarantine(self, name: str, body: Optional[bytes]) -> Dict[str, object]:
        """``POST /v1/models/<name>/quarantine`` with ``{"quarantined":
        true, "reason": ...}`` — fence a deployment off from prediction
        traffic (it 503s until ``{"quarantined": false}``) without losing
        its cache namespace, stats, or journal binding."""
        payload = self._parse_json_object(body)
        unknown = sorted(set(payload) - {"quarantined", "reason"})
        if unknown:
            raise RequestError(400, "invalid-request", f"unknown field(s) {unknown}")
        quarantined = payload.get("quarantined")
        if not isinstance(quarantined, bool):
            raise RequestError(
                400, "invalid-request", "'quarantined' must be a boolean"
            )
        reason = payload.get("reason", "operator request")
        if not isinstance(reason, str):
            raise RequestError(400, "invalid-request", "'reason' must be a string")
        deployment = self.hub.resolve(name)
        if quarantined:
            self.hub.quarantine(deployment.name, reason)
        else:
            self.hub.unquarantine(deployment.name)
        return {
            "model": deployment.name,
            "quarantined": self.hub.quarantined().get(deployment.name) is not None,
        }

    def admin_reload(self, name: str) -> Dict[str, object]:
        deployment = self.hub.reload(name)
        return {"reloaded": deployment.name, "model": deployment.describe()}

    def admin_alias(self, name: str, body: Optional[bytes]) -> Dict[str, object]:
        """``POST /v1/models/<alias>/alias`` with ``{"target": <model>}`` —
        atomically (re)point ``<alias>`` at a loaded deployment.  A null
        ``target`` drops the alias, so the full alias lifecycle (create,
        flip, remove — e.g. before unloading its last target) is available
        remotely."""
        payload = self._parse_json_object(body)
        unknown = sorted(set(payload) - {"target"})
        if unknown:
            raise RequestError(400, "invalid-request", f"unknown field(s) {unknown}")
        if "target" not in payload:
            raise RequestError(
                400,
                "invalid-request",
                "'target' must name a loaded deployment (or be null to drop "
                "the alias)",
            )
        target = payload["target"]
        if target is None:
            self.hub.unalias(name)
            return {"alias": name, "target": None}
        if not isinstance(target, str):
            raise RequestError(
                400, "invalid-request", "'target' must name a loaded deployment"
            )
        self.hub.alias(name, target)
        return {"alias": name, "target": target}

    # ------------------------------------------------------------ internals
    def _parse_json_object(self, body: Optional[bytes]) -> Dict[str, object]:
        if not body:
            raise RequestError(400, "invalid-request", "request body is empty")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(400, "invalid-json", f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise RequestError(
                400, "invalid-request", "request body must be a JSON object"
            )
        return payload

    def _parse_body(self, body: Optional[bytes]) -> Dict[str, object]:
        payload = self._parse_json_object(body)
        unknown = sorted(set(payload) - {"graph", "graphs", "trace"})
        if unknown:
            raise RequestError(
                400,
                "invalid-request",
                f"unknown field(s) {unknown}; expected 'graph' or 'graphs' "
                f"(plus optional 'trace')",
            )
        if ("graph" in payload) == ("graphs" in payload):
            raise RequestError(
                400,
                "invalid-request",
                "provide exactly one of 'graph' (single) or 'graphs' (batch)",
            )
        return payload

    def _decode_graph(self, data: object, what: str):
        try:
            return program_graph_from_dict(data)
        except SerializationError as exc:
            raise RequestError(400, "invalid-graph", f"{what}: {exc}") from exc


class _RequestHandler(BaseHTTPRequestHandler):
    """Byte-level glue between ``http.server`` and :class:`ServingApp`."""

    server_version = "repro-serve/2.0"
    protocol_version = "HTTP/1.1"  # keep-alive; we always send Content-Length
    disable_nagle_algorithm = True  # small JSON responses, don't buffer them
    # Blocked reads (slow-loris bodies, idle keep-alive connections) time
    # out instead of pinning a handler thread forever; this also bounds how
    # long close() can wait on an in-flight connection.
    timeout = 30.0

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._handle_bodyless("GET")

    def do_HEAD(self) -> None:  # noqa: N802
        self._handle_bodyless("HEAD")

    def do_POST(self) -> None:  # noqa: N802
        body, failure = self._read_body()
        if failure is not None:
            # The body was never read off the socket; on a keep-alive
            # connection it would be parsed as the next request line, so
            # this connection must close after the error response.
            self.close_connection = True
            self._respond(failure[0], failure[1])
            return
        status, payload, headers = self.server.app.handle("POST", self.path, body)
        self._respond(status, payload, headers)

    # ------------------------------------------------------------ internals
    def _handle_bodyless(self, method: str) -> None:
        # GET/HEAD bodies are never read; leaving one on a keep-alive
        # socket would desync the next request, so close after answering.
        length = self.headers.get("Content-Length")
        if length is not None and length.strip() not in ("", "0"):
            self.close_connection = True
        status, payload, headers = self.server.app.handle(method, self.path)
        self._respond(status, payload, headers, omit_body=method == "HEAD")

    def _read_body(
        self,
    ) -> Tuple[Optional[bytes], Optional[Tuple[int, Dict[str, object]]]]:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            return None, (
                411,
                error_payload(411, "length-required", "Content-Length is required"),
            )
        try:
            length = int(length_header)
        except ValueError:
            length = -1
        if length < 0:
            return None, (
                400,
                error_payload(
                    400, "invalid-request", f"bad Content-Length {length_header!r}"
                ),
            )
        limit = self.server.max_body_bytes
        if length > limit:
            return None, (
                413,
                error_payload(
                    413,
                    "payload-too-large",
                    f"body of {length} bytes exceeds the {limit}-byte limit",
                ),
            )
        return self.rfile.read(length), None

    def _respond(
        self,
        status: int,
        payload: Union[Dict[str, object], str],
        headers: Optional[Headers] = None,
        omit_body: bool = False,
    ) -> None:
        headers = dict(headers or {})
        if isinstance(payload, str):
            # Raw text view (the Prometheus exposition); the app supplied
            # its Content-Type alongside.
            body = payload.encode("utf-8")
            content_type = headers.pop(
                "Content-Type", "text/plain; charset=utf-8"
            )
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json; charset=utf-8"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        # HEAD advertises the length GET would have sent, with no body.
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if not omit_body:
            self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)


class PredictionHTTPServer(ThreadingHTTPServer):
    """A :class:`ServingApp` bound to a threading HTTP server.

    ``start()`` brings up the whole stack — per-deployment micro-batchers,
    checkpoint daemon, accept loop in a background thread — and
    ``close()`` tears it down in reverse order, writing a final cache
    checkpoint on the way so the next process can start warm.  ``port=0``
    binds an ephemeral port (read it back from :attr:`port`), which is
    what the tests use.

    ``target`` is a :class:`~repro.serving.hub.ModelHub` or a
    :class:`~repro.serving.replica.ReplicaSupervisor`.

    Handler threads are non-daemon on purpose: ``server_close()`` joins
    them (``block_on_close``), so by the time the batchers are drained and
    the final checkpoint is written no request is still in flight.  The
    handler's socket ``timeout`` bounds how long that join can take.
    """

    # ThreadingHTTPServer defaults this to True, which would skip the join.
    daemon_threads = False

    def __init__(
        self,
        target: Union[ModelHub, ReplicaSupervisor],
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        quiet: bool = True,
    ):
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        self.app = ServingApp(target, request_timeout_s=request_timeout_s)
        self.max_body_bytes = int(max_body_bytes)
        self.quiet = quiet
        self._serve_thread: Optional[threading.Thread] = None
        self._closed = False
        super().__init__((host, port), _RequestHandler)

    # ------------------------------------------------------------ addressing
    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "PredictionHTTPServer":
        """Serve in a background thread (batchers + daemon started first)."""
        if self._closed:
            raise RuntimeError("cannot restart a closed PredictionHTTPServer")
        if self._serve_thread is None:
            self.app.start()
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="repro-http-serve", daemon=True
            )
            self._serve_thread.start()
        return self

    def run(self) -> None:
        """Serve in the foreground until interrupted (the CLI entry point)."""
        self.app.start()
        try:
            self.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop accepting, then stop the daemon (final checkpoint) and batchers."""
        if self._closed:
            return
        self._closed = True
        thread, self._serve_thread = self._serve_thread, None
        if thread is not None:
            # shutdown() blocks until serve_forever exits, so only call it
            # when the accept loop actually ran.
            self.shutdown()
            thread.join()
        self.server_close()
        self.app.stop()

    def __enter__(self) -> "PredictionHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
