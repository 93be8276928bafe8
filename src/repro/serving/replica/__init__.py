"""Cross-replica scale-out: a multiprocess pool of ModelHub workers.

The package splits the subsystem along the process boundary:

* :mod:`.config` — the picklable :class:`ReplicaConfig` and desired
  state (``PoolState``) that cross it, plus the replica-layer error types;
* :mod:`.transport` — the pipe protocol (ops, statuses, the exception
  codec that carries each error as its own class);
* :mod:`.worker` — the child-process side: one full hub per process;
* :mod:`.supervisor` — the parent side: spawning, affinity routing,
  heartbeats, failover, recycling, drain.
"""

from .config import (
    DrainingError,
    ReplicaConfig,
    ReplicaError,
    ReplicaUnavailableError,
    default_start_method,
)
from .supervisor import ReplicaSupervisor, request_affinity_key

__all__ = [
    "DrainingError",
    "ReplicaConfig",
    "ReplicaError",
    "ReplicaSupervisor",
    "ReplicaUnavailableError",
    "default_start_method",
    "request_affinity_key",
]
