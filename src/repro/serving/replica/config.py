"""Replica-pool configuration, desired state, and the replica-layer errors.

One :class:`ReplicaConfig` describes everything a worker process needs to
build its own :class:`~repro.serving.hub.ModelHub` — registry root, cache
and journal knobs — plus the pool's boot model set (wire-encoded
deployment specs, aliases, default routing, cost model) and the
supervisor-side lifecycle knobs (heartbeat cadence, recycle threshold,
retry budget).  It is a plain picklable dataclass because it crosses the
process boundary verbatim.

The model set a pool serves *now* is a :class:`PoolState`: the boot set
from :meth:`ReplicaConfig.boot_state`, changed by every admin mutation
since.  Every spawn and every ``sync`` message carries the whole value,
so a replica respawned hours after boot builds the model set the
operators have mutated the pool into, not the one the CLI started with.

Per-slot derivations (:meth:`ReplicaConfig.slot_journal_dir`,
:meth:`ReplicaConfig.slot_checkpoint_path`) keep the on-disk layout in
one place: each slot journals into its own subdirectory (two writers
never share a segment) and checkpoints into its own dump file (the next
incarnation of the slot warm-starts from it before entering rotation).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..hub import HubError, Routes

#: journal/checkpoint names are derived from the slot index with this
#: prefix, so a directory of per-replica journals is self-describing.
REPLICA_DIR_PREFIX = "replica-"


class ReplicaError(HubError):
    """Base class for replica-pool failures."""


class ReplicaUnavailableError(ReplicaError):
    """No ready replica could answer (pool exhausted or still spawning)."""


class DrainingError(ReplicaError):
    """The pool is shutting down; new requests are refused."""


def default_start_method() -> str:
    """``forkserver`` where available (fast respawns once the server has
    preloaded the serving stack), else ``spawn``.  Never ``fork``: the
    supervisor is multithreaded by construction (reader + monitor
    threads), and forking a multithreaded process is undefined enough to
    be banned here outright."""
    if "forkserver" in multiprocessing.get_all_start_methods():
        return "forkserver"
    return "spawn"


@dataclass
class PoolState:
    """The desired model state of a replica pool: what every worker's hub
    must serve.

    ``routes`` is the hub's own routing table, each deployment mapped to
    ``(wire spec, generation)``.  A generation is drawn from one counter
    at every load and reload (and at every cost-model reload, for the
    cost model), so a worker rebuilds exactly what changed since the
    state it last applied — including a reload that left the spec as it
    was.
    """

    routes: Routes = field(default_factory=Routes)
    cost_model: Optional[Tuple[str, Optional[str]]] = None
    cost_model_generation: int = 0
    generation: int = 0

    def copy(self) -> "PoolState":
        return replace(self, routes=self.routes.copy())

    def _next_generation(self) -> int:
        self.generation += 1
        return self.generation

    def load(self, spec: Dict[str, object], replace: bool = False) -> None:
        name = str(spec["name"])
        self.routes.install(name, (dict(spec), self._next_generation()), replace)

    def reload(self, name: str) -> None:
        spec, _ = self.routes.get(name)
        self.routes.install(name, (spec, self._next_generation()), True)

    def reload_cost_model(self, name: str, version: Optional[str]) -> None:
        self.cost_model = (name, version)
        self.cost_model_generation = self._next_generation()


@dataclass
class ReplicaConfig:
    """Everything one worker needs, plus the supervisor lifecycle knobs."""

    registry_root: str
    #: wire-encoded deployment specs (``deployment_spec_to_dict``); each
    #: worker decodes and loads them into its private hub.
    specs: List[Dict[str, object]] = field(default_factory=list)
    aliases: List[Tuple[str, str]] = field(default_factory=list)
    default: Optional[str] = None
    #: ``(name, version)`` of a calibrated cost model to load per worker.
    cost_model: Optional[Tuple[str, Optional[str]]] = None

    # -- per-worker hub knobs -------------------------------------------
    cache_capacity: int = 4096
    #: off: the workers' hubs cache nothing, and the supervisor routes
    #: least-pending instead of by graph affinity (nothing to keep hot).
    enable_cache: bool = True
    pool_workers: int = 2
    journal_dir: Optional[str] = None
    journal_record_graphs: bool = True
    #: directory of per-slot cache dumps; a respawned slot warm-starts
    #: from its predecessor's last dump before entering rotation.
    checkpoint_dir: Optional[str] = None
    checkpoint_interval_s: float = 30.0
    #: threads draining prediction RPCs inside each worker (control
    #: messages are answered inline off the pipe reader).
    worker_threads: int = 4

    # -- supervisor lifecycle knobs -------------------------------------
    replicas: int = 2
    start_method: Optional[str] = None
    spawn_timeout_s: float = 120.0
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 15.0
    #: retire a replica after it has answered this many requests
    #: (``None`` = never); the replacement is spawned and made ready
    #: *before* the old worker drains, so traffic never pauses.
    recycle_after: Optional[int] = None
    #: how many times one request may fail over to another replica after
    #: a worker death before surfacing ``ReplicaUnavailableError``.
    max_retries: int = 2
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        self.registry_root = os.fspath(self.registry_root)
        if self.journal_dir is not None:
            self.journal_dir = os.fspath(self.journal_dir)
        if self.checkpoint_dir is not None:
            self.checkpoint_dir = os.fspath(self.checkpoint_dir)
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.worker_threads < 1:
            raise ValueError("worker_threads must be >= 1")
        if self.spawn_timeout_s <= 0:
            raise ValueError("spawn_timeout_s must be > 0")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be > 0")
        if self.recycle_after is not None and self.recycle_after < 1:
            raise ValueError("recycle_after must be >= 1 (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.checkpoint_dir is not None and not self.enable_cache:
            raise ValueError("checkpoint_dir requires enable_cache")
        method = self.start_method or default_start_method()
        if method not in multiprocessing.get_all_start_methods() or method == "fork":
            raise ValueError(
                f"unsupported start_method {method!r} (the supervisor is "
                f"multithreaded; use 'forkserver' or 'spawn')"
            )
        self.start_method = method

    # ------------------------------------------------------- per-slot paths
    def slot_journal_dir(self, slot: int) -> Optional[str]:
        if self.journal_dir is None:
            return None
        return os.path.join(self.journal_dir, f"{REPLICA_DIR_PREFIX}{slot:02d}")

    def slot_checkpoint_path(self, slot: int) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(
            self.checkpoint_dir, f"{REPLICA_DIR_PREFIX}{slot:02d}.npz"
        )

    def boot_state(self) -> PoolState:
        """The pool's desired state at boot, built by the hub's routing
        policy, so a boot set a hub would refuse fails here, typed."""
        state = PoolState()
        if self.cost_model is not None:
            state.reload_cost_model(*self.cost_model)
        for spec in self.specs:
            state.load(spec)
        for alias, target in self.aliases:
            state.routes.alias(alias, target)
        if self.default:
            state.routes.set_default(self.default)
        return state
