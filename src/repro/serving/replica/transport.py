"""Message framing and the exception codec of the replica pipe protocol.

Supervisor and worker exchange pickled tuples over one duplex
:func:`multiprocessing.Pipe` per replica:

* supervisor → worker: ``(request_id, op, payload)`` where ``op`` is one
  of the ``OP_*`` constants.  Admin has exactly one message, ``sync``,
  whose payload is the pool's whole desired state
  (:class:`~repro.serving.replica.config.PoolState`);
* worker → supervisor: ``(request_id, STATUS_OK, result)`` or
  ``(request_id, STATUS_ERR, encoded_exception)``, plus the two
  unsolicited lifecycle messages :data:`READY_ID`/``STATUS_READY``
  (handshake after the worker's hub is built and warmed) and
  ``STATUS_FATAL`` (the hub could not be built — the spawn fails loudly
  instead of hanging the ready-wait).

A worker exception crosses the pipe as its own class: it is pickled on
its own (class by reference, arguments, instance attributes such as
``retry_after_s``) and unpickled supervisor-side, so the HTTP layer's
exception → status mapping behaves identically whether a model is local
or three processes away, with no per-type table to keep in step.  An
exception that cannot make the trip — a class pickle cannot reach by
reference, an ``__init__`` its own arguments cannot rebuild — arrives as
a :class:`RemoteWorkerError`, a server-side failure (HTTP 500
``internal``), as the same exception would be in-process.
"""

from __future__ import annotations

import pickle
from typing import Dict, Tuple

from ...graphs.graph import Edge, Node, ProgramGraph
from ..ensemble import EnsemblePredictionResult
from ..hub import Routes
from ..service import PredictionResult
from .config import PoolState, ReplicaConfig

#: request ops.
OP_SUBMIT = "submit"
OP_PREDICT_MANY = "predict_many"
OP_PING = "ping"
OP_SYNC = "sync"
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
    PoolState,
    Routes,
    ProgramGraph,
    Node,
    Edge,
    PredictionResult,
    EnsemblePredictionResult,
)


class RemoteWorkerError(RuntimeError):
    """A worker exception the pipe could not carry as its own class."""


def encode_exception(exc: BaseException) -> Dict[str, object]:
    """The wire form of one worker exception: the exception pickled on its
    own (``None`` if it cannot be), plus a description to fall back on."""
    try:
        description = f"{type(exc).__qualname__}: {exc}"
    except Exception:
        description = type(exc).__qualname__
    try:
        pickled = pickle.dumps(exc)
    except Exception:
        pickled = None
    return {"description": description, "pickled": pickled}


def decode_exception(payload: Dict[str, object]) -> Exception:
    """The exception a worker encoded, rebuilt as its own class; anything
    that cannot be rebuilt becomes a :class:`RemoteWorkerError`.  Never
    raises: it runs on the supervisor's pipe reader thread."""
    try:
        exc = pickle.loads(payload["pickled"])
        if isinstance(exc, Exception):
            return exc
    except Exception:
        pass
    try:
        description = payload["description"]
    except Exception:
        description = "unreadable worker error"
    return RemoteWorkerError(f"replica worker failed: {description}")
