"""The replica supervisor: N worker processes behind one hub-shaped API.

:class:`ReplicaSupervisor` duck-types the :class:`~repro.serving.hub.ModelHub`
surface the HTTP layer consumes — ``submit``/``predict_many``, the admin
mutations, ``snapshot``/``capacity_report``/``model_health`` — but fans the
work out across long-lived worker processes (one full hub each), which is
the only way past the GIL for this CPU-bound inference stack.

Routing, lifecycle and failure handling live here:

* **Affinity routing.**  When the workers run with a cache, requests
  are placed by rendezvous (highest-random-weight) hashing of the graph's
  content fingerprint over the ready slots: the same graph always lands
  on the same replica while the pool membership is stable, so each
  worker's ``EmbeddingCache`` stays hot instead of every replica
  relearning every graph.  Affinity is keyed on the *slot index*, which
  survives respawns — and the respawned worker warm-starts from the
  slot's checkpoint dump, so the cache the routing kept hot is handed
  back to the replacement.  Keeping a cache hot is affinity's only
  purpose, so without one (``enable_cache=False``) no key is computed
  and every request goes to the replica with the fewest pending calls;
  a ``predict_many`` batch is dealt evenly over the ready replicas.
* **Lifecycle.**  Spawn → ready-handshake (with a fatal path, so a
  misconfigured worker fails the boot loudly instead of hanging it);
  heartbeat pings with a timeout-kill; automatic respawn of dead slots;
  recycle-after-N-requests with a spawn-replacement-first swap so
  recycling never pauses traffic; graceful drain on shutdown.
* **Failover.**  Every in-flight call is remembered until its reply
  arrives.  When a worker dies, its pending *idempotent* calls (pure
  inference and introspection) are transparently re-dispatched to another
  ready replica — a SIGKILLed worker fails zero requests — and only when
  the retry budget or the ready set is exhausted does the caller see a
  typed :class:`ReplicaUnavailableError` (HTTP 503 ``replica-unavailable``).
* **Desired state.**  The pool's model set is one
  :class:`~repro.serving.replica.config.PoolState` value whose routing
  table is the hub's own :class:`~repro.serving.hub.Routes`, so names,
  aliases, the default and the quarantine fence resolve here exactly as
  in a hub, with the hub's errors.  An admin mutation changes a copy of
  the state (a change the policy refuses raises before any RPC), sends
  the copy to every ready replica in one ``sync`` message, and commits it
  only when every replica has applied it; on a failure the committed
  state is synced back and the error re-raised.  Spawns and respawns
  boot from the committed state and sync to it before taking traffic.

Lock order is ``admin → routing → handle`` (never inverted): the admin
lock serialises desired-state changes and replica installs, the routing
lock guards the slot table, and each handle's mutex guards that
replica's pipe writes and pending-call map.  Reads of the committed
state take no lock: it is never mutated once published.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Dict, List, Optional, Set, Tuple

from ...concurrency import TrackedLock, TrackedRLock
from ..costmodel import DEFAULT_COST_MODEL_NAME
from ..deployment import DeploymentSpec, deployment_spec_to_dict
from ..hub import Routes, RoutingReads
from ..stats import aggregate_snapshots
from .config import (
    DrainingError,
    PoolState,
    ReplicaConfig,
    ReplicaUnavailableError,
)
from .transport import (
    OP_INTROSPECT,
    OP_PING,
    OP_PREDICT_MANY,
    OP_SHUTDOWN,
    OP_SUBMIT,
    OP_SYNC,
    READY_ID,
    RETRYABLE_OPS,
    STATUS_OK,
    STATUS_READY,
    decode_exception,
)
from .worker import worker_main

#: ceiling on one control-plane round trip (sync / introspection).
_RPC_TIMEOUT_S = 60.0


def request_affinity_key(request) -> Optional[str]:
    """Content hash of a program graph, for rendezvous routing.

    Used only when the workers run with a cache, which affinity exists to
    keep hot; a cache-less pool routes least-pending and never calls this.

    This is deliberately *not* the model-layer
    :func:`~repro.graphs.fingerprint.graph_fingerprint` (which needs the
    encoder's vocabulary, living worker-side): affinity only needs
    "identical graphs hash identically", so a cheap digest over the node
    ``kind:text`` sequence and the edge list is enough — a collision
    merely co-locates two different graphs, which costs nothing.
    """
    nodes = getattr(request, "nodes", None)
    if nodes is None:
        return None
    hasher = hashlib.sha256()
    for node in nodes:
        hasher.update(str(getattr(node, "kind", "")).encode("utf-8", "replace"))
        hasher.update(b"\x1f")
        hasher.update(str(getattr(node, "text", "")).encode("utf-8", "replace"))
        hasher.update(b"\x1e")
    hasher.update(b"\x1d")
    for edge in getattr(request, "edges", None) or ():
        part = (
            f"{getattr(edge, 'source', '')}\x1f{getattr(edge, 'target', '')}"
            f"\x1f{getattr(edge, 'flow', '')}\x1e"
        )
        hasher.update(part.encode("utf-8", "replace"))
    return hasher.hexdigest()


class _PendingCall:
    """One in-flight RPC: the caller's future plus everything needed to
    transparently re-dispatch it if the replica holding it dies."""

    __slots__ = ("future", "op", "payload", "key", "attempts", "excluded", "retryable")

    def __init__(self, op: str, payload, key: Optional[str] = None):
        self.future: Future = Future()
        self.op = op
        self.payload = payload
        self.key = key
        self.attempts = 1
        self.excluded: Set[int] = set()
        self.retryable = op in RETRYABLE_OPS


class _ReplicaHandle:
    """Supervisor-side state of one worker process (one slot)."""

    __slots__ = (
        "slot",
        "generation",
        "process",
        "conn",
        "mutex",
        "pending",
        "state",
        "served",
        "pid",
        "last_pong",
        "ready",
        "fatal",
        "reader",
    )

    def __init__(self, slot: int, generation: int, process, conn):
        self.slot = slot
        self.generation = generation
        self.process = process
        self.conn = conn
        # Guards pipe writes + the pending map + the state field.  Pipe
        # sends can block on a full buffer, hence allow_blocking.
        self.mutex = TrackedLock(
            f"replica.handle.{slot}", allow_blocking=True
        )
        self.pending: Dict[int, _PendingCall] = {}
        self.state = "starting"  # starting | ready | draining | dead
        self.served = 0
        self.pid: Optional[int] = None
        self.last_pong = time.monotonic()
        self.ready = threading.Event()
        self.fatal: Optional[Exception] = None
        self.reader: Optional[threading.Thread] = None


class _RemoteModelProxy:
    """Predictor-shaped view of one model across the pool (describe and
    snapshot only — predictions go through the supervisor's dispatch)."""

    #: the HTTP layer probes these with getattr; a remote model has no
    #: in-process stats recorder or cache to offer.
    stats = None
    cache = None

    def __init__(self, supervisor: "ReplicaSupervisor", name: Optional[str]):
        self._supervisor = supervisor
        self._name = name

    def describe(self) -> Dict[str, object]:
        return self._supervisor._introspect_one(
            "model_describe", {"name": self._name}
        )

    def snapshot(self) -> Dict[str, object]:
        return self._supervisor._merged_model_snapshot(self._name)


class _RemoteDeployment:
    """Deployment-shaped handle the HTTP admin/metrics routes consume."""

    def __init__(
        self,
        name: str,
        supervisor: "ReplicaSupervisor",
        describe_payload: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self._supervisor = supervisor
        self._describe = describe_payload
        self.predictor = _RemoteModelProxy(supervisor, name)
        self.spec = None

    def describe(self) -> Dict[str, object]:
        if self._describe is not None:
            return self._describe
        return self._supervisor._introspect_one(
            "model_health", {"name": self.name}
        )["model"]


class ReplicaSupervisor(RoutingReads):
    """Owns N replica processes; looks like a :class:`ModelHub` to callers."""

    #: the supervisor has no in-process shared infrastructure — each
    #: worker owns its own; the HTTP layer reads these attributes and
    #: treats None as "absent", exactly as for a cache-less hub.
    cache = None
    checkpoint = None
    journal = None

    #: hub methods deliberately NOT mirrored (the rpc-parity lint rule
    #: enforces the rest of the surface).  ``adopt`` takes a live
    #: predictor object, and the cost-model setters take a model instance
    #: — neither can cross a process boundary; replica deployments load
    #: from the registry and ship cost models by artifact version.
    MIRROR_EXEMPT = frozenset({"adopt", "set_cost_model", "cost_model"})
    #: supervisor-only surface with no hub counterpart.
    MIRROR_EXTRA = frozenset({"replica_status"})

    def __init__(self, config: ReplicaConfig):
        self._config = config
        self._routing = TrackedRLock("replica.routing")
        self._handles: List[Optional[_ReplicaHandle]] = [None] * config.replicas
        self._generations: Dict[int, int] = {}
        self._ids = itertools.count(1)
        # The committed desired state: the boot set plus every admin
        # mutation since; spawns are built from it, never the boot set.
        self._admin = TrackedLock("replica.admin", allow_blocking=True)
        self._state: PoolState = config.boot_state()
        self._ctx = None
        self._started = False
        self._draining = False
        self._stopping = False
        self._wake = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._created_monotonic = time.monotonic()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ReplicaSupervisor":
        with self._routing:
            if self._started:
                return self
            replicas = self._config.replicas
        if self._config.journal_dir is not None:
            os.makedirs(self._config.journal_dir, exist_ok=True)
        if self._config.checkpoint_dir is not None:
            os.makedirs(self._config.checkpoint_dir, exist_ok=True)
        self._ctx = multiprocessing.get_context(self._config.start_method)
        if self._config.start_method == "forkserver":
            # Preload the worker module (hence the serving stack) into the
            # fork server once, so every spawn/respawn after the first is
            # a cheap fork of an already-imported interpreter.
            preload = getattr(self._ctx, "set_forkserver_preload", None)
            if preload is not None:
                preload(["repro.serving.replica.worker"])
        handles = []
        for slot in range(replicas):
            handle = self._spawn(slot)
            handles.append(handle)
            with self._routing:
                self._handles[slot] = handle
        deadline = time.monotonic() + self._config.spawn_timeout_s
        try:
            for handle in handles:
                self._await_ready(handle, deadline)
        except BaseException:
            self._terminate_all()
            raise
        with self._routing:
            self._started = True
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-replica-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self) -> None:
        with self._routing:
            if not self._started or self._stopping:
                already = self._stopping
            else:
                already = False
            self._draining = True
            self._stopping = True
            handles = [h for h in self._handles if h is not None]
        self._wake.set()
        monitor, self._monitor = self._monitor, None
        if monitor is not None:
            monitor.join(timeout=self._config.drain_timeout_s)
        if already:
            return
        shutdowns: List[Tuple[_ReplicaHandle, _PendingCall]] = []
        for handle in handles:
            with handle.mutex:
                if handle.state == "ready":
                    handle.state = "draining"
            call = _PendingCall(OP_SHUTDOWN, {})
            if self._send(handle, call):
                shutdowns.append((handle, call))
        for handle, call in shutdowns:
            try:
                call.future.result(timeout=self._config.drain_timeout_s)
            except Exception:
                pass  # a worker that won't drain gets killed below
        self._terminate_all()
        with self._routing:
            self._started = False

    def __enter__(self) -> "ReplicaSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _terminate_all(self) -> None:
        with self._routing:
            handles = [h for h in self._handles if h is not None]
        for handle in handles:
            process = handle.process
            process.join(timeout=self._config.drain_timeout_s)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        for handle in handles:
            reader = handle.reader
            if reader is not None and reader is not threading.current_thread():
                reader.join(timeout=5.0)

    # ------------------------------------------------------------- spawning
    def _spawn(self, slot: int) -> _ReplicaHandle:
        with self._routing:
            generation = self._generations.get(slot, 0) + 1
            self._generations[slot] = generation
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self._config, self._state, slot, generation),
            name=f"repro-replica-{slot}-g{generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _ReplicaHandle(slot, generation, process, parent_conn)
        handle.reader = threading.Thread(
            target=self._reader,
            args=(handle,),
            name=f"repro-replica-reader-{slot}-g{generation}",
            daemon=True,
        )
        handle.reader.start()
        return handle

    def _await_ready(self, handle: _ReplicaHandle, deadline: float) -> None:
        remaining = deadline - time.monotonic()
        if not handle.ready.wait(max(remaining, 0.0)):
            handle.process.kill()
            raise ReplicaUnavailableError(
                f"replica {handle.slot} did not become ready within "
                f"{self._config.spawn_timeout_s}s"
            )
        if handle.fatal is not None:
            raise handle.fatal

    # ----------------------------------------------------------- pipe reader
    def _reader(self, handle: _ReplicaHandle) -> None:
        conn = handle.conn
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            request_id, status, payload = message
            if request_id == READY_ID:
                if status == STATUS_READY:
                    handle.pid = payload.get("pid")
                    handle.last_pong = time.monotonic()
                    with handle.mutex:
                        if handle.state == "starting":
                            handle.state = "ready"
                else:  # STATUS_FATAL: the worker's hub could not be built
                    handle.fatal = decode_exception(payload)
                    with handle.mutex:
                        handle.state = "dead"
                handle.ready.set()
                continue
            with handle.mutex:
                call = handle.pending.pop(request_id, None)
            handle.last_pong = time.monotonic()
            if call is None:
                continue
            if status == STATUS_OK:
                call.future.set_result(payload)
            else:
                call.future.set_exception(decode_exception(payload))
        self._on_connection_lost(handle)

    def _on_connection_lost(self, handle: _ReplicaHandle) -> None:
        with handle.mutex:
            was_dead = handle.state == "dead" and not handle.pending
            handle.state = "dead"
            pending = list(handle.pending.values())
            handle.pending.clear()
        if was_dead:
            return
        handle.ready.set()
        for call in pending:
            self._retry_or_fail(call, handle.slot)
        self._wake.set()  # prompt respawn, don't wait out the heartbeat tick

    def _retry_or_fail(self, call: _PendingCall, dead_slot: int) -> None:
        call.excluded.add(dead_slot)
        with self._routing:
            draining = self._draining
        if (
            draining
            or not call.retryable
            or call.attempts > self._config.max_retries
        ):
            if not call.future.done():
                call.future.set_exception(
                    ReplicaUnavailableError(
                        f"replica worker died mid-request "
                        f"({call.op!r}, attempt {call.attempts})"
                    )
                )
            return
        call.attempts += 1
        self._dispatch_call(call)

    # ------------------------------------------------------------- dispatch
    def _ready_by_load(self, excluded: Set[int]) -> List[_ReplicaHandle]:
        """Ready handles outside ``excluded``, least pending calls first
        (slot index breaks ties)."""
        with self._routing:
            handles = [h for h in self._handles if h is not None]
        candidates: List[Tuple[int, int, _ReplicaHandle]] = []
        for handle in handles:
            if handle.slot in excluded:
                continue
            with handle.mutex:
                if handle.state != "ready":
                    continue
                load = len(handle.pending)
            candidates.append((load, handle.slot, handle))
        candidates.sort(key=lambda item: item[:2])
        return [handle for _, _, handle in candidates]

    def _pick(
        self, key: Optional[str], excluded: Set[int]
    ) -> Optional[_ReplicaHandle]:
        candidates = self._ready_by_load(excluded)
        if not candidates:
            return None
        if key is None:
            return candidates[0]  # no affinity: least-loaded wins
        best: Optional[_ReplicaHandle] = None
        best_weight = b""
        for handle in candidates:
            weight = hashlib.sha256(f"{key}:{handle.slot}".encode()).digest()
            if best is None or weight > best_weight:
                best, best_weight = handle, weight
        return best

    def _send(self, handle: _ReplicaHandle, call: _PendingCall) -> bool:
        request_id = next(self._ids)
        # Pickled before the call is registered, and outside the mutex: a
        # payload that cannot be pickled raises here and leaves no pending
        # entry behind.
        message = ForkingPickler.dumps((request_id, call.op, call.payload))
        with handle.mutex:
            if handle.state == "ready":
                pass
            elif handle.state == "draining" and call.op == OP_SHUTDOWN:
                pass
            else:
                return False
            handle.pending[request_id] = call
            try:
                handle.conn.send_bytes(message)
            except (BrokenPipeError, OSError, ValueError):
                del handle.pending[request_id]
                handle.state = "dead"
                return False
        return True

    def _dispatch_call(self, call: _PendingCall) -> None:
        while True:
            handle = self._pick(call.key, call.excluded)
            if handle is None:
                if not call.future.done():
                    call.future.set_exception(
                        ReplicaUnavailableError(
                            "no ready replica available for "
                            f"{call.op!r} (pool of {self._config.replicas})"
                        )
                    )
                return
            if self._send(handle, call):
                return
            call.excluded.add(handle.slot)

    def _dispatch(self, op: str, payload, key: Optional[str]) -> _PendingCall:
        call = _PendingCall(op, payload, key=key)
        self._dispatch_call(call)
        return call

    # ----------------------------------------------------- name resolution
    @property
    def _routes(self) -> Routes:
        return self._state.routes

    def resolve(self, name: Optional[str] = None) -> _RemoteDeployment:
        return _RemoteDeployment(self._routes.resolve(name), self)

    def resolve_for_predict(self, name: Optional[str] = None) -> _RemoteDeployment:
        return _RemoteDeployment(self._canonical_for_predict(name), self)

    def _canonical_for_predict(self, name: Optional[str]) -> str:
        if self._draining:
            raise DrainingError(
                "the replica pool is draining; new requests are refused"
            )
        return self._routes.resolve(name, for_predict=True)

    # ------------------------------------------------------------ prediction
    def submit(self, name: Optional[str], request) -> Future:
        canonical = self._canonical_for_predict(name)
        # No cache, nothing for affinity to keep hot: route least-pending.
        key = request_affinity_key(request) if self._config.enable_cache else None
        call = self._dispatch(
            OP_SUBMIT, {"model": canonical, "request": request}, key=key
        )
        return call.future

    def predict(self, name: Optional[str], request):
        return self.submit(name, request).result()

    def predict_many(self, name: Optional[str], requests) -> List[object]:
        canonical = self._canonical_for_predict(name)
        requests = list(requests)
        if not requests:
            return []
        groups = self._group_by_slot(requests)
        if groups is None:
            raise ReplicaUnavailableError(
                "no ready replica available for 'predict_many' "
                f"(pool of {self._config.replicas})"
            )
        calls: List[Tuple[_PendingCall, List[int]]] = []
        for slot in sorted(groups):
            indices = groups[slot]
            call = _PendingCall(
                OP_PREDICT_MANY,
                {
                    "model": canonical,
                    "requests": [requests[i] for i in indices],
                },
            )
            with self._routing:
                handle = self._handles[slot]
            if handle is None or not self._send(handle, call):
                self._dispatch_call(call)  # affinity miss: any ready replica
            calls.append((call, indices))
        results: List[object] = [None] * len(requests)
        first_exc: Optional[BaseException] = None
        for call, indices in calls:
            try:
                group_results = call.future.result()
            except BaseException as exc:
                if first_exc is None:
                    first_exc = exc
                continue
            for position, index in enumerate(indices):
                results[index] = group_results[position]
        if first_exc is not None:
            raise first_exc
        return results

    def _group_by_slot(
        self, requests: List[object]
    ) -> Optional[Dict[int, List[int]]]:
        """Request indices per target slot (one RPC per group), or
        ``None`` when no replica is ready.

        With a cache, each member goes to its affinity-chosen replica, so
        batch members keep their cache affinity without one-RPC-per-graph
        cost.  Without one, the members are dealt round-robin over the
        ready replicas, least-loaded first, so group sizes differ by at
        most one: picking least-pending per member would put them all on
        one replica, since nothing is sent until every member is placed.
        """
        groups: Dict[int, List[int]] = {}
        if not self._config.enable_cache:
            handles = self._ready_by_load(set())
            if not handles:
                return None
            for index in range(len(requests)):
                slot = handles[index % len(handles)].slot
                groups.setdefault(slot, []).append(index)
            return groups
        for index, request in enumerate(requests):
            handle = self._pick(request_affinity_key(request), set())
            if handle is None:
                return None
            groups.setdefault(handle.slot, []).append(index)
        return groups

    # ----------------------------------------------------------------- admin
    def _ready_handles(self) -> List[_ReplicaHandle]:
        with self._routing:
            handles = [h for h in self._handles if h is not None]
        ready = []
        for handle in handles:
            with handle.mutex:
                if handle.state == "ready":
                    ready.append(handle)
        return ready

    def _mutate(self, change: Callable[[PoolState], None]) -> List[Dict[str, object]]:
        """One admin mutation, as a change to the desired state: applied to
        a copy (the routing policy raises the hub's own errors here, before
        any RPC), synced to every ready replica, committed once all have
        applied it.  Serialised, so copy-then-commit loses no update;
        returns the replicas' ``sync`` replies."""
        with self._admin:
            staged = self._state.copy()
            change(staged)
            replies = self._sync_ready(staged)
            self._state = staged
        return replies

    def _sync_calls(self, state: PoolState) -> List[_PendingCall]:
        calls = []
        for handle in self._ready_handles():
            call = _PendingCall(OP_SYNC, state)
            if self._send(handle, call):
                calls.append(call)
        return calls

    def _sync_ready(self, state: PoolState) -> List[Dict[str, object]]:
        calls = self._sync_calls(state)
        if not calls:
            raise ReplicaUnavailableError("no ready replica to apply the admin change")
        replies: List[Dict[str, object]] = []
        failure: Optional[Exception] = None
        for call in calls:
            try:
                replies.append(call.future.result(timeout=_RPC_TIMEOUT_S))
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            # The change may have landed on some replicas: converge every
            # one back on the committed state before surfacing the failure.
            for call in self._sync_calls(self._state):
                try:
                    call.future.result(timeout=_RPC_TIMEOUT_S)
                except Exception:
                    pass
            raise failure
        return replies

    def _sync_handle(self, handle: _ReplicaHandle) -> None:
        call = _PendingCall(OP_SYNC, self._state)
        if not self._send(handle, call):
            raise ReplicaUnavailableError(
                f"replica {handle.slot} died before it could be synced"
            )
        call.future.result(timeout=_RPC_TIMEOUT_S)

    def load(self, spec: DeploymentSpec, replace: bool = False) -> _RemoteDeployment:
        spec_data = deployment_spec_to_dict(spec)
        replies = self._mutate(lambda state: state.load(spec_data, replace))
        return _RemoteDeployment(
            spec.name, self, describe_payload=replies[0]["loaded"][spec.name]
        )

    def unload(self, name: str) -> _RemoteDeployment:
        self._mutate(lambda state: state.routes.remove(name))
        return _RemoteDeployment(name, self)

    def reload(self, name: str) -> _RemoteDeployment:
        replies = self._mutate(lambda state: state.reload(name))
        return _RemoteDeployment(
            name, self, describe_payload=replies[0]["loaded"][name]
        )

    def alias(self, alias: str, target: str) -> None:
        self._mutate(lambda state: state.routes.alias(alias, target))

    def unalias(self, alias: str) -> None:
        self._mutate(lambda state: state.routes.unalias(alias))

    def set_default(self, name: Optional[str]) -> None:
        self._mutate(lambda state: state.routes.set_default(name))

    def quarantine(self, name: str, reason: str = "operator request") -> None:
        self._mutate(lambda state: state.routes.quarantine(name, reason))

    def unquarantine(self, name: str) -> None:
        self._mutate(lambda state: state.routes.unquarantine(name))

    def reload_cost_model(
        self,
        name: str = DEFAULT_COST_MODEL_NAME,
        version: Optional[str] = None,
    ) -> Dict[str, object]:
        replies = self._mutate(lambda state: state.reload_cost_model(name, version))
        return replies[0]["cost_model"]

    # ---------------------------------------------------------- introspection
    def _introspect_one(self, what: str, args: Dict[str, object]):
        call = self._dispatch(OP_INTROSPECT, {"what": what, "args": args}, key=None)
        return call.future.result(timeout=_RPC_TIMEOUT_S)

    def _introspect_broadcast(
        self, what: str, args: Dict[str, object]
    ) -> List[Tuple[_ReplicaHandle, object]]:
        """Best-effort fan-out: replicas that die mid-question are simply
        absent from the answer (metrics must not 503 because one replica
        is being respawned)."""
        calls = []
        for handle in self._ready_handles():
            call = _PendingCall(OP_INTROSPECT, {"what": what, "args": args})
            call.retryable = False  # per-replica question; no failover
            if self._send(handle, call):
                calls.append((handle, call))
        results = []
        for handle, call in calls:
            try:
                results.append((handle, call.future.result(timeout=_RPC_TIMEOUT_S)))
            except Exception:
                continue
        return results

    def describe(self) -> Dict[str, object]:
        payload = self._introspect_one("describe", {})
        payload["service"] = "replica-pool"
        payload["replicas"] = self.replica_status()
        return payload

    def model_health(self, name: Optional[str] = None) -> Dict[str, object]:
        canonical = self._routes.resolve(name)
        return self._introspect_one("model_health", {"name": canonical})

    def model_drift(self, name: Optional[str] = None) -> Dict[str, object]:
        canonical = self._routes.resolve(name)
        return self._introspect_one("drift", {"name": canonical})

    def _merged_model_snapshot(self, name: Optional[str]) -> Dict[str, object]:
        canonical = self._routes.resolve(name)
        replies = self._introspect_broadcast("model_snapshot", {"name": canonical})
        snapshots = [reply["snapshot"] for _, reply in replies]
        windows = [reply["window"] for _, reply in replies]
        stages = [reply["stages"] for _, reply in replies]
        merged = aggregate_snapshots(
            snapshots, latency_windows=windows, stage_windows=stages
        )
        merged["replicas"] = len(snapshots)
        return merged

    def snapshot(self) -> Dict[str, object]:
        """Pool-wide ``/metrics`` payload, shaped like the hub's.

        Per-model sections and the overall aggregate are merged with
        :func:`~repro.serving.stats.aggregate_snapshots`, feeding it the
        workers' *raw* latency windows so the pooled percentiles are real
        statistics over all replicas' samples (``merged_from_raw_windows``
        stays true), never percentiles-of-percentiles.  Each model section
        also pools the workers' raw stage windows into ``stages``, shaped
        like one hub's per-model ``stages``.
        """
        replies = self._introspect_broadcast("metrics", {})
        model_snaps: Dict[str, List[Dict[str, object]]] = {}
        model_windows: Dict[str, List[List[float]]] = {}
        model_stages: Dict[str, List[Dict[str, List[float]]]] = {}
        all_snaps: List[Dict[str, object]] = []
        all_windows: List[List[float]] = []
        per_replica: Dict[str, Dict[str, object]] = {}
        for handle, reply in replies:
            for model, snap in (reply.get("models") or {}).items():
                model_snaps.setdefault(model, []).append(snap)
                window = (reply.get("windows") or {}).get(model, [])
                model_windows.setdefault(model, []).append(window)
                model_stages.setdefault(model, []).append(
                    (reply.get("stages") or {}).get(model, {})
                )
                all_snaps.append(snap)
                all_windows.append(window)
            per_replica[str(handle.slot)] = {
                "pid": handle.pid,
                "generation": handle.generation,
                "served": handle.served,
                "cache": reply.get("cache"),
                "pool": reply.get("pool"),
                "journal": reply.get("journal"),
                "checkpoint": reply.get("checkpoint"),
            }
        models = {
            model: aggregate_snapshots(
                snaps,
                latency_windows=model_windows[model],
                stage_windows=model_stages[model],
            )
            for model, snaps in model_snaps.items()
        }
        routes = self._routes
        return {
            "uptime_s": time.monotonic() - self._created_monotonic,
            "models": models,
            "aggregate": aggregate_snapshots(all_snaps, latency_windows=all_windows),
            "aliases": dict(routes.aliases),
            "default": routes.default,
            # No process-local infrastructure: the per-replica copies live
            # under "replicas", mirroring where the processes actually are.
            "cache": None,
            "pool": None,
            "journal": None,
            "checkpoint": None,
            "replicas": per_replica,
        }

    def capacity_report(self, name: Optional[str] = None) -> Dict[str, object]:
        """Pool capacity: per-model per-replica verdicts, with the
        predicted sustainable QPS *summed* across replicas — capacity is
        the one metric that genuinely adds up when processes multiply."""
        if name is not None:
            self._routes.resolve(name)
        replies = self._introspect_broadcast("capacity", {"name": name})
        models: Dict[str, Dict[str, object]] = {}
        cost_model = None
        total_qps = 0.0
        any_qps = False
        for handle, reply in replies:
            if cost_model is None:
                cost_model = reply.get("cost_model")
            for model, entry in (reply.get("models") or {}).items():
                merged = models.setdefault(
                    model,
                    {"replicas": {}, "predicted": {"sustainable_qps": None}},
                )
                merged["replicas"][str(handle.slot)] = entry
                predicted = entry.get("predicted")
                if isinstance(predicted, dict):
                    qps = predicted.get("sustainable_qps")
                    if isinstance(qps, (int, float)):
                        current = merged["predicted"]["sustainable_qps"] or 0.0
                        merged["predicted"]["sustainable_qps"] = current + float(qps)
                        total_qps += float(qps)
                        any_qps = True
        quarantined = self.quarantined()
        for model, merged in models.items():
            merged["quarantined"] = quarantined.get(model)
        return {
            "models": models,
            "cost_model": cost_model,
            "total_sustainable_qps": total_qps if any_qps else None,
            "replicas": {
                "ready": len(replies),
                "total": self._config.replicas,
            },
        }

    def replica_status(self) -> List[Dict[str, object]]:
        with self._routing:
            handles = [h for h in self._handles if h is not None]
        status = []
        for handle in handles:
            with handle.mutex:
                status.append(
                    {
                        "slot": handle.slot,
                        "generation": handle.generation,
                        "pid": handle.pid,
                        "state": handle.state,
                        "served": handle.served,
                        "pending": len(handle.pending),
                    }
                )
        return status

    # ------------------------------------------------------------ monitoring
    def _monitor_loop(self) -> None:
        interval = self._config.heartbeat_interval_s
        while True:
            self._wake.wait(interval)
            self._wake.clear()
            with self._routing:
                if self._stopping:
                    return
            self._tick()

    def _tick(self) -> None:
        now = time.monotonic()
        with self._routing:
            slots = list(range(len(self._handles)))
        for slot in slots:
            with self._routing:
                if self._stopping:
                    return
                handle = self._handles[slot]
            if handle is None:
                continue
            with handle.mutex:
                state = handle.state
            if state == "dead":
                self._respawn(slot, handle)
                continue
            if state != "ready":
                continue
            if not handle.process.is_alive():
                # The reader sees EOF too, but don't wait for it: fail the
                # slot over now so its pending calls move immediately.
                self._on_connection_lost(handle)
                self._respawn(slot, handle)
                continue
            if now - handle.last_pong > self._config.heartbeat_timeout_s:
                # A wedged worker: kill it; the pipe EOF fails its calls
                # over and the next tick respawns the slot.
                handle.process.kill()
                continue
            self._ping(handle)
            recycle_after = self._config.recycle_after
            if recycle_after is not None and handle.served >= recycle_after:
                self._replace_slot(slot, handle)

    def _ping(self, handle: _ReplicaHandle) -> None:
        call = _PendingCall(OP_PING, {})
        call.retryable = False

        def _pong(future: Future) -> None:
            if future.cancelled() or future.exception() is not None:
                return
            payload = future.result()
            handle.served = int(payload.get("served", handle.served))
            handle.last_pong = time.monotonic()

        call.future.add_done_callback(_pong)
        self._send(handle, call)

    def _swap_in(self, slot: int, old: _ReplicaHandle) -> bool:
        """Spawn a replacement for ``old``, sync it to the committed state
        and install it in the slot; False (replacement killed) if it
        failed or the slot moved on (shutdown, another swap)."""
        replacement = self._spawn(slot)
        try:
            self._await_ready(
                replacement, time.monotonic() + self._config.spawn_timeout_s
            )
            # Held until the slot holds the replacement: a change committed
            # while it spawned is synced here, and no later change can be
            # broadcast past it.
            with self._admin:
                self._sync_handle(replacement)
                with self._routing:
                    swapped = self._handles[slot] is old and not self._draining
                    if swapped:
                        self._handles[slot] = replacement
        except Exception:
            swapped = False
        if not swapped:
            replacement.process.kill()
        return swapped

    def _respawn(self, slot: int, old: _ReplicaHandle) -> None:
        with self._routing:
            if self._handles[slot] is not old or self._draining:
                return
        try:
            old.conn.close()
        except OSError:
            pass
        self._swap_in(slot, old)  # on failure the next tick retries

    def _replace_slot(self, slot: int, old: _ReplicaHandle) -> None:
        """Recycle: replacement first, swap, then drain the old worker —
        the slot never has zero ready processes, so traffic never pauses."""
        if not self._swap_in(slot, old):
            return
        with old.mutex:
            if old.state == "ready":
                old.state = "draining"
        drain_deadline = time.monotonic() + self._config.drain_timeout_s
        while time.monotonic() < drain_deadline:
            with old.mutex:
                remaining = len(old.pending)
                state = old.state
            if remaining == 0 or state == "dead":
                break
            time.sleep(0.02)
        call = _PendingCall(OP_SHUTDOWN, {})
        if self._send(old, call):
            try:
                call.future.result(timeout=self._config.drain_timeout_s)
            except Exception:
                pass
        old.process.join(timeout=self._config.drain_timeout_s)
        if old.process.is_alive():
            old.process.kill()
        try:
            old.conn.close()
        except OSError:
            pass
