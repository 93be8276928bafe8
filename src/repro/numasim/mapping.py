"""Thread and page mapping policies.

Thread mapping decides which cores execute the OpenMP threads; page mapping
decides which NUMA node each memory page lives on.  Both policies are
modelled at the level that matters for the timing model: how many threads
run on each node, and what fraction of each thread's accesses are local
versus remote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


class ThreadMapping:
    """Thread-mapping policy names."""

    CONTIGUOUS = "contiguous"     # pack threads node by node (compact)
    ROUND_ROBIN = "round_robin"   # scatter threads across nodes


class PageMapping:
    """Page-mapping policy names."""

    FIRST_TOUCH = "first_touch"   # pages on the node of the first writer
    LOCALITY = "locality"         # pages on the node of their dominant user
    INTERLEAVE = "interleave"     # pages round-robin across used nodes
    BALANCE = "balance"           # split between locality and interleave


THREAD_MAPPINGS = (ThreadMapping.CONTIGUOUS, ThreadMapping.ROUND_ROBIN)
PAGE_MAPPINGS = (
    PageMapping.FIRST_TOUCH,
    PageMapping.LOCALITY,
    PageMapping.INTERLEAVE,
    PageMapping.BALANCE,
)


@dataclass(frozen=True)
class Placement:
    """Result of applying thread + page mapping on a machine.

    Attributes
    ----------
    threads_per_node:
        Number of threads running on each *used* node.
    active_nodes:
        Number of nodes that run at least one thread.
    memory_nodes:
        Number of nodes holding data pages.
    local_fraction:
        Average fraction of a thread's accesses served by its own node.
    node_traffic_share:
        Per-memory-node share of total memory traffic (sums to 1); captures
        congestion when pages concentrate on few nodes (e.g. first touch
        after a serial initialisation).
    """

    threads_per_node: tuple
    active_nodes: int
    memory_nodes: int
    local_fraction: float
    node_traffic_share: tuple


def map_threads(total_threads: int, nodes: int, cores_per_node: int, policy: str) -> List[int]:
    """Distribute ``total_threads`` over ``nodes`` according to ``policy``."""
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    total_threads = min(total_threads, nodes * cores_per_node)
    counts = [0] * nodes
    if policy == ThreadMapping.CONTIGUOUS:
        remaining = total_threads
        for node in range(nodes):
            take = min(cores_per_node, remaining)
            counts[node] = take
            remaining -= take
            if remaining == 0:
                break
    elif policy == ThreadMapping.ROUND_ROBIN:
        for i in range(total_threads):
            counts[i % nodes] += 1
    else:
        raise ValueError(f"unknown thread mapping {policy!r}")
    return counts


def compute_placement(
    threads: int,
    nodes: int,
    cores_per_node: int,
    thread_mapping: str,
    page_mapping: str,
    shared_fraction: float,
    init_by_master: bool,
    locality_quality: float = 1.0,
) -> Placement:
    """Derive the placement summary used by the timing model.

    Parameters
    ----------
    shared_fraction:
        Fraction of a thread's accesses that target data shared with other
        threads (as opposed to its private partition).
    init_by_master:
        True when the benchmark initialises its data in a serial phase, which
        makes ``first_touch`` place every page on node 0.
    locality_quality:
        How well locality-style placement can actually follow the accesses
        (1 = perfectly partitionable streaming, 0 = irregular accesses whose
        pages effectively stay where they were allocated, i.e. node 0).
        Interleaving starts winning over locality once this drops, which is
        the behaviour graph-like benchmarks show on real NUMA machines.
    """
    threads_per_node = map_threads(threads, nodes, cores_per_node, thread_mapping)
    active_nodes = sum(1 for c in threads_per_node if c > 0)
    used = max(1, active_nodes)
    locality_quality = min(1.0, max(0.0, float(locality_quality)))

    thread_share = [c / max(1, threads) for c in threads_per_node]
    node0_concentration = [0.0] * nodes
    node0_concentration[0] = 1.0
    node0_local = (threads_per_node[0] if threads_per_node else 0) / max(1, threads)
    ideal_local = (1.0 - shared_fraction) + shared_fraction / used

    if page_mapping == PageMapping.FIRST_TOUCH and init_by_master:
        # Everything lives on node 0: only node-0 threads enjoy locality and
        # node 0's memory controller takes all the traffic.
        memory_nodes = 1
        local_fraction = node0_local
        traffic = list(node0_concentration)
    elif page_mapping in (PageMapping.FIRST_TOUCH, PageMapping.LOCALITY):
        # Private, partitionable data is local; the irregular remainder stays
        # concentrated where it was allocated.
        memory_nodes = used
        local_fraction = locality_quality * ideal_local + (1.0 - locality_quality) * node0_local
        traffic = [
            locality_quality * share + (1.0 - locality_quality) * conc
            for share, conc in zip(thread_share, node0_concentration)
        ]
        if locality_quality < 0.5 and used > 1:
            memory_nodes = 1
    elif page_mapping == PageMapping.INTERLEAVE:
        memory_nodes = used
        local_fraction = 1.0 / used
        traffic = [1.0 / used if c > 0 else 0.0 for c in threads_per_node]
    elif page_mapping == PageMapping.BALANCE:
        memory_nodes = used
        locality_local = locality_quality * ideal_local + (1.0 - locality_quality) * node0_local
        interleave_local = 1.0 / used
        local_fraction = 0.5 * (locality_local + interleave_local)
        locality_traffic = [
            locality_quality * share + (1.0 - locality_quality) * conc
            for share, conc in zip(thread_share, node0_concentration)
        ]
        traffic = [
            0.5 * lt + 0.5 * (1.0 / used if c > 0 else 0.0)
            for lt, c in zip(locality_traffic, threads_per_node)
        ]
    else:
        raise ValueError(f"unknown page mapping {page_mapping!r}")

    total_traffic = sum(traffic)
    if total_traffic <= 0:
        traffic = [1.0] + [0.0] * (nodes - 1)
        total_traffic = 1.0
    traffic = [t / total_traffic for t in traffic]

    return Placement(
        threads_per_node=tuple(threads_per_node),
        active_nodes=active_nodes,
        memory_nodes=memory_nodes,
        local_fraction=min(1.0, max(0.0, float(local_fraction))),
        node_traffic_share=tuple(traffic),
    )
