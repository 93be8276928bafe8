"""Message framing and the exception codec of the replica pipe protocol.

Supervisor and worker exchange pickled tuples over one duplex
:func:`multiprocessing.Pipe` per replica:

* supervisor → worker: ``(request_id, op, payload)`` where ``op`` is one
  of the ``OP_*`` constants;
* worker → supervisor: ``(request_id, STATUS_OK, result)`` or
  ``(request_id, STATUS_ERR, encoded_exception)``, plus the two
  unsolicited lifecycle messages :data:`READY_ID`/``STATUS_READY``
  (handshake after the worker's hub is built and warmed) and
  ``STATUS_FATAL`` (the hub could not be built — the spawn fails loudly
  instead of hanging the ready-wait).

Exceptions do not pickle reliably across versions (and a traceback
object never does), so hub errors cross the pipe as ``{"kind", "message",
...}`` dicts: :func:`encode_exception` flattens the exception types the
serving stack raises on purpose, and :func:`decode_exception` rebuilds
the *same* type supervisor-side, so the HTTP layer's exception → status
mapping behaves identically whether a model is local or three processes
away.  Unknown worker-side types decode to :class:`ReplicaError` (a
server-side failure, surfaced as such).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ...graphs.graph import Edge, Node, ProgramGraph
from ..costmodel import OverCapacityError
from ..deployment import DeploymentSpecError
from ..ensemble import EnsemblePredictionResult
from ..hub import (
    DeploymentExistsError,
    DeploymentNotFoundError,
    DeploymentQuarantinedError,
    HubError,
)
from ..registry import ArtifactNotFoundError
from ..service import PredictionResult
from .config import DrainingError, ReplicaConfig, ReplicaError, ReplicaUnavailableError

#: request ops.
OP_SUBMIT = "submit"
OP_PREDICT_MANY = "predict_many"
OP_PING = "ping"
OP_ADMIN = "admin"
OP_INTROSPECT = "introspect"
OP_SHUTDOWN = "shutdown"

#: ops that are idempotent — pure inference, or read-only introspection —
#: safe to transparently re-run on another replica when the one holding
#: them dies mid-flight.
RETRYABLE_OPS = frozenset({OP_SUBMIT, OP_PREDICT_MANY, OP_INTROSPECT})

#: reply statuses.
STATUS_OK = "ok"
STATUS_ERR = "err"
STATUS_READY = "ready"
STATUS_FATAL = "fatal"

#: request id of the unsolicited lifecycle messages.
READY_ID = -1

#: exception type <-> wire kind (order matters: subclasses first, so the
#: most specific kind wins when encoding).
_KINDS: Tuple[Tuple[str, type], ...] = (
    ("over-capacity", OverCapacityError),
    ("artifact-not-found", ArtifactNotFoundError),
    ("deployment-not-found", DeploymentNotFoundError),
    ("deployment-quarantined", DeploymentQuarantinedError),
    ("deployment-exists", DeploymentExistsError),
    ("invalid-spec", DeploymentSpecError),
    ("draining", DrainingError),
    ("replica-unavailable", ReplicaUnavailableError),
    ("replica", ReplicaError),
    ("hub", HubError),
)
_DECODERS: Dict[str, type] = {kind: type_ for kind, type_ in _KINDS}

#: every type sent through the pipe RPC as (part of) a request or reply
#: payload.  Declarative on purpose: the ``pickle-safety`` lint rule
#: walks each class (transitively) and rejects process-local state —
#: locks, threads, open files — before it can blow up inside a pickle
#: call under load.  A :class:`ProgramGraph` pickles in a compact form
#: (``ProgramGraph.__reduce__``): plain per-node and per-edge tuples of
#: the :class:`Node`/:class:`Edge` fields, rebuilt and validated
#: worker-side, so those two cross as their fields, not as instances.
WIRE_TYPES: Tuple[type, ...] = (
    ReplicaConfig,
    ProgramGraph,
    Node,
    Edge,
    PredictionResult,
    EnsemblePredictionResult,
)


def encode_exception(exc: BaseException) -> Dict[str, object]:
    """Flatten one exception into the wire dict the pipe can carry."""
    for kind, exc_type in _KINDS:
        if isinstance(exc, exc_type):
            payload: Dict[str, object] = {"kind": kind, "message": str(exc)}
            if isinstance(exc, OverCapacityError):
                payload["retry_after_s"] = float(exc.retry_after_s)
            return payload
    return {
        "kind": "internal",
        "message": f"{type(exc).__name__}: {exc}",
    }


def decode_exception(payload: Dict[str, object]) -> Exception:
    """Rebuild the typed exception a worker encoded (see module doc)."""
    kind = payload.get("kind")
    message = str(payload.get("message", "replica worker error"))
    if kind == "over-capacity":
        return OverCapacityError(
            message, retry_after_s=float(payload.get("retry_after_s", 1.0))
        )
    exc_type = _DECODERS.get(str(kind))
    if exc_type is not None:
        return exc_type(message)
    return ReplicaError(f"replica worker failed: {message}")
