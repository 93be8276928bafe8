"""Replica worker: one long-lived process hosting a full ModelHub.

Spawned by the :class:`~repro.serving.replica.supervisor.ReplicaSupervisor`
with its :class:`~repro.serving.replica.config.ReplicaConfig` and the
pool's current :class:`~repro.serving.replica.config.PoolState`, the
worker builds its own private :class:`~repro.serving.hub.ModelHub`
(registry, shared cache, batcher pool, per-slot journal subdirectory,
per-slot checkpoint dump doubling as the warm-up file), brings it to that
state, sends the ready handshake, and then answers pipe requests until
told to shut down:

* prediction ops (``submit``/``predict_many``) run on a small thread
  pool so concurrent RPCs from the supervisor overlap and coalesce in
  the hub's micro-batchers, exactly as concurrent HTTP handler threads
  do in the single-process server;
* control ops (``ping``/``sync``/``introspect``) are answered inline on
  the pipe reader thread, so a worker buried in inference still answers
  heartbeats immediately;
* ``sync`` is the only admin message: it carries the pool's whole
  desired state, and :meth:`ReplicaWorker._sync` reconciles the hub to
  it — at boot, after every admin mutation, and when a respawned replica
  catches up.

Failures stay typed across the pipe: anything the hub raises crosses as
its own class (:mod:`~repro.serving.replica.transport`), so remote errors
surface with the same HTTP mapping as local ones.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from ...concurrency import TrackedLock
from ..costmodel import cost_model_summary
from ..deployment import deployment_spec_from_dict
from ..hub import ModelHub
from .config import PoolState, ReplicaConfig, ReplicaError
from .transport import (
    OP_INTROSPECT,
    OP_PING,
    OP_PREDICT_MANY,
    OP_SHUTDOWN,
    OP_SUBMIT,
    OP_SYNC,
    READY_ID,
    STATUS_ERR,
    STATUS_FATAL,
    STATUS_OK,
    STATUS_READY,
    encode_exception,
)


def build_worker_hub(config: ReplicaConfig, slot: int) -> ModelHub:
    """The slot's private hub, serving nothing until its first ``sync``.

    The per-slot checkpoint dump is wired as **both** the checkpoint path
    and the warm-up path: whatever cache the previous incarnation of this
    slot persisted is loaded before the ready handshake, so a respawned
    replica enters rotation hot (the warm hand-off).
    """
    checkpoint_path = config.slot_checkpoint_path(slot)
    return ModelHub(
        config.registry_root,
        cache_capacity=config.cache_capacity,
        enable_cache=config.enable_cache,
        warmup_path=checkpoint_path,
        checkpoint_path=checkpoint_path,
        checkpoint_interval_s=config.checkpoint_interval_s,
        pool_workers=config.pool_workers,
        journal_dir=config.slot_journal_dir(slot),
        journal_record_graphs=config.journal_record_graphs,
    )


class ReplicaWorker:
    """The request loop of one replica process."""

    def __init__(
        self, conn, config: ReplicaConfig, state: PoolState, slot: int,
        generation: int,
    ):
        self._conn = conn
        self._config = config
        self._boot_state = state
        self._slot = slot
        self._generation = generation
        self._hub: Optional[ModelHub] = None
        # Generations of the deployments and the cost model this hub was
        # last brought to (0: no cost model yet).
        self._loaded: Dict[str, int] = {}
        self._cost_model_generation = 0
        self._send_lock = TrackedLock("replica.worker.send", allow_blocking=True)
        self._executor = ThreadPoolExecutor(
            max_workers=config.worker_threads,
            thread_name_prefix=f"repro-replica-{slot}",
        )
        self._served = 0

    # --------------------------------------------------------------- replies
    def _reply(self, request_id: int, status: str, payload) -> None:
        # One lock serialises pipe writes: replies come from the reader
        # thread, the executor, and batcher-future callbacks alike.
        try:
            with self._send_lock:
                self._conn.send((request_id, status, payload))
        except (OSError, ValueError, BrokenPipeError):
            pass  # the supervisor is gone; the recv loop will notice

    def _reply_error(self, request_id: int, exc: BaseException) -> None:
        self._reply(request_id, STATUS_ERR, encode_exception(exc))

    # ----------------------------------------------------------- prediction
    def _handle_submit(self, request_id: int, payload: Dict[str, object]) -> None:
        hub = self._hub
        try:
            future = hub.submit(payload.get("model"), payload["request"])
        except BaseException as exc:  # typed hub errors cross the pipe
            self._reply_error(request_id, exc)
            return

        def _finish(done, request_id=request_id):
            exc = done.exception()
            if exc is not None:
                self._reply_error(request_id, exc)
            else:
                self._served += 1
                self._reply(request_id, STATUS_OK, done.result())

        future.add_done_callback(_finish)

    def _handle_predict_many(self, request_id: int, payload: Dict[str, object]) -> None:
        def _run():
            try:
                results = self._hub.predict_many(
                    payload.get("model"), payload["requests"]
                )
            except BaseException as exc:
                self._reply_error(request_id, exc)
                return
            self._served += len(results)
            self._reply(request_id, STATUS_OK, results)

        self._executor.submit(_run)

    # ---------------------------------------------------------------- admin
    def _sync(self, state: PoolState) -> Dict[str, object]:
        """Reconcile the hub to the pool's desired ``state``.

        The only admin path: boot, every admin mutation and every
        respawned replica's catch-up all land here, so a replica can never
        enter rotation serving a stale model set.  A deployment is
        (re)built only when its generation moved; the reply carries the
        description of each deployment built and the cost model in force.
        A failure (a missing artifact, a bad spec, a registry error)
        raises typed; the supervisor then syncs the previous state back.
        """
        hub, routes = self._hub, state.routes
        # Aliases first: a stale alias would block unloading its target.
        for alias, target in hub.aliases().items():
            if routes.aliases.get(alias) != target:
                hub.unalias(alias)
        for name in hub.names():
            if name not in routes.deployments:
                hub.unload(name)
                del self._loaded[name]
        # Before any build, so new deployments bind their SLO against it.
        if state.cost_model_generation != self._cost_model_generation:
            hub.reload_cost_model(*state.cost_model)
            self._cost_model_generation = state.cost_model_generation
        loaded: Dict[str, object] = {}
        for name, (spec, generation) in routes.deployments.items():
            if self._loaded.get(name) != generation:
                deployment = hub.load(
                    deployment_spec_from_dict(spec), replace=name in self._loaded
                )
                self._loaded[name] = generation
                loaded[name] = deployment.describe()
        current = hub.aliases()
        for alias, target in routes.aliases.items():
            if current.get(alias) != target:
                hub.alias(alias, target)
        if hub.default_name != routes.default:
            hub.set_default(routes.default)
        for name in hub.quarantined():
            if name not in routes.quarantined:
                hub.unquarantine(name)
        for name, reason in routes.quarantined.items():
            hub.quarantine(name, reason)
        return {"loaded": loaded, "cost_model": cost_model_summary(hub.cost_model)}

    # ---------------------------------------------------------- introspection
    def _introspect(self, what: str, args: Dict[str, object]):
        hub = self._hub
        if what == "describe":
            return hub.describe()
        if what == "model_health":
            return hub.model_health(args.get("name"))
        if what == "model_describe":
            return hub.resolve(args.get("name")).predictor.describe()
        if what == "model_snapshot":
            predictor = hub.resolve(args.get("name")).predictor
            stats = getattr(predictor, "stats", None)
            has_windows = stats is not None and hasattr(stats, "latency_values")
            return {
                "snapshot": predictor.snapshot(),
                "window": stats.latency_values() if has_windows else [],
                "stages": stats.stage_values() if has_windows else {},
            }
        if what == "drift":
            return hub.model_drift(args.get("name"))
        if what == "capacity":
            return hub.capacity_report(args.get("name"))
        if what == "metrics":
            return self._metrics()
        raise ReplicaError(f"unknown introspection {what!r}")

    def _metrics(self) -> Dict[str, object]:
        """Per-model snapshots **plus raw latency and stage windows** — the
        honest inputs :func:`~repro.serving.stats.aggregate_snapshots`
        needs to pool percentiles across replicas."""
        hub = self._hub
        models: Dict[str, object] = {}
        windows: Dict[str, list] = {}
        stages: Dict[str, Dict[str, list]] = {}
        for name in hub.names():
            predictor = hub.resolve(name).predictor
            models[name] = predictor.snapshot()
            stats = getattr(predictor, "stats", None)
            if stats is not None and hasattr(stats, "latency_values"):
                windows[name] = stats.latency_values()
                stages[name] = stats.stage_values()
        return {
            "models": models,
            "windows": windows,
            "stages": stages,
            "cache": hub.cache.stats() if hub.cache is not None else None,
            "pool": hub.pool.telemetry(),
            "journal": hub.journal.stats() if hub.journal is not None else None,
            "checkpoint": (
                hub.checkpoint.stats() if hub.checkpoint is not None else None
            ),
        }

    # ------------------------------------------------------------- main loop
    def run(self) -> None:
        try:
            self._hub = build_worker_hub(self._config, self._slot)
            self._sync(self._boot_state)
            self._hub.start()
        except BaseException as exc:
            self._reply(READY_ID, STATUS_FATAL, encode_exception(exc))
            self._conn.close()
            return
        self._reply(
            READY_ID,
            STATUS_READY,
            {
                "pid": os.getpid(),
                "slot": self._slot,
                "generation": self._generation,
                "models": self._hub.names(),
            },
        )
        try:
            while True:
                try:
                    message = self._conn.recv()
                except (EOFError, OSError):
                    break  # supervisor gone: drain and exit
                request_id, op, payload = message
                if op == OP_SHUTDOWN:
                    # Drain in order: in-flight prediction RPCs first, then
                    # the hub (batchers, final checkpoint, journal close).
                    self._executor.shutdown(wait=True)
                    self._hub.stop()
                    self._hub = None
                    self._reply(request_id, STATUS_OK, {"served": self._served})
                    return
                if op == OP_PING:
                    self._reply(
                        request_id,
                        STATUS_OK,
                        {"pid": os.getpid(), "served": self._served},
                    )
                elif op == OP_SUBMIT:
                    self._handle_submit(request_id, payload)
                elif op == OP_PREDICT_MANY:
                    self._handle_predict_many(request_id, payload)
                elif op == OP_SYNC:
                    try:
                        result = self._sync(payload)
                    except BaseException as exc:
                        self._reply_error(request_id, exc)
                    else:
                        self._reply(request_id, STATUS_OK, result)
                elif op == OP_INTROSPECT:
                    try:
                        result = self._introspect(
                            payload["what"], payload.get("args") or {}
                        )
                    except BaseException as exc:
                        self._reply_error(request_id, exc)
                    else:
                        self._reply(request_id, STATUS_OK, result)
                else:
                    self._reply_error(
                        request_id, ReplicaError(f"unknown op {op!r}")
                    )
        finally:
            self._executor.shutdown(wait=False)
            if self._hub is not None:
                self._hub.stop()
            try:
                self._conn.close()
            except OSError:
                pass


def worker_main(
    conn, config: ReplicaConfig, state: PoolState, slot: int, generation: int
) -> None:
    """Process entry point (must stay importable: spawn/forkserver re-import
    this module in the child)."""
    # The supervisor owns shutdown: a terminal Ctrl-C goes to the whole
    # foreground process group, and the workers must keep draining while
    # the supervisor runs its graceful stop.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    ReplicaWorker(conn, config, state, slot, generation).run()
