"""Analytical timing model for NUMA + prefetcher configurations.

The model is a roofline-style composition of four components:

1. **Compute**: FLOPs over the effective issue rate (reduced by dependency
   chains and branch mispredictions).
2. **Latency**: demand misses that reach DRAM pay local or remote latency
   depending on the page placement; hardware prefetchers hide a
   pattern-dependent fraction of that latency; memory-level parallelism
   overlaps part of the rest.
3. **Bandwidth**: demand plus prefetch traffic is spread over the memory
   nodes according to the page placement; the most loaded node and the
   cross-node interconnect bound the streaming throughput.
4. **Synchronisation / serial**: Amdahl serial fraction, barriers, atomics,
   critical sections and load imbalance.

None of the constants claims cycle accuracy — the goal is that the *relative
ordering* of configurations responds to workload characteristics the way it
does on real machines: bandwidth-bound streams want many nodes, interleaved
pages and prefetchers on; latency-bound irregular kernels want locality and
prefetchers off; synchronisation-heavy kernels want fewer threads; and a
serial first-touch initialisation makes ``first_touch`` placement a trap.

Two paths evaluate the model.  :meth:`NumaPrefetchSimulator.simulate` is the
scalar reference: one configuration, with its counters, per-call series and
time breakdown.  :meth:`NumaPrefetchSimulator.simulate_space` is the space
pass that labeling runs: it computes the page placement once per NUMA point
and the prefetcher effect once per setting, then evaluates the time of every
configuration as array arithmetic over a (configurations x fields) table, in
the scalar path's operation order, so both paths give the same times (a
golden test holds them to rtol 1e-12).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .configuration import Configuration
from .counters import PerformanceCounters, SimulationResult
from .mapping import Placement, compute_placement
from .prefetchers import PrefetchEffect, PrefetcherSetting, prefetcher_effect
from .profile import WorkloadProfile
from .topology import MachineTopology

#: fixed cost (microseconds) of one OpenMP barrier, plus a per-thread term.
BARRIER_BASE_US = 1.5
BARRIER_PER_LOG_THREAD_US = 0.9
#: per-thread fork/join + loop-scheduling overhead per region call (microseconds).
SCHEDULING_US_PER_THREAD = 0.6
#: cost of one uncontended atomic operation (nanoseconds).
ATOMIC_BASE_NS = 18.0
#: additional cost per extra sharer of a contended atomic line (nanoseconds).
ATOMIC_CONTENTION_NS = 9.0
#: cache line (false) sharing penalty per iteration per extra sharer (ns).
FALSE_SHARING_NS = 2.5


@dataclass
class EngineConfig:
    """Simulator knobs."""

    measurement_noise: float = 0.0      # lognormal sigma on the final time
    default_calls: Optional[int] = None  # override profile.calls when set
    seed: int = 1234


class NumaPrefetchSimulator:
    """Simulates one region under one configuration on one machine."""

    def __init__(self, machine: MachineTopology, config: Optional[EngineConfig] = None):
        self.machine = machine
        self.engine_config = config or EngineConfig()

    # ------------------------------------------------------------------ API
    def simulate(
        self,
        profile: WorkloadProfile,
        configuration: Configuration,
        rng: Optional[np.random.Generator] = None,
    ) -> SimulationResult:
        """Simulate ``profile`` under ``configuration``; returns the result."""
        calls = self.engine_config.default_calls or profile.calls
        base_time, counters, breakdown = self._single_call_time(profile, configuration)

        per_call: List[float] = []
        noise = self.engine_config.measurement_noise
        local_rng = (rng or self._noise_rng(profile, configuration)) if noise > 0.0 else None
        for call_index in range(calls):
            call_time = base_time * self._phase_factor(profile, configuration, call_index)
            if noise > 0.0:
                call_time *= float(np.exp(local_rng.normal(0.0, noise)))
            per_call.append(call_time)
        total = float(np.sum(per_call))
        return SimulationResult(
            time_seconds=total,
            counters=counters,
            per_call_times=per_call,
            breakdown=breakdown,
        )

    def simulate_space(
        self,
        profile: WorkloadProfile,
        configurations: Iterable[Configuration],
    ) -> "SpaceResults":
        """Simulate the region across a whole configuration space in one
        array pass (see :class:`SpaceResults`)."""
        configurations = list(configurations)
        return SpaceResults(self, profile, configurations, self._space_times(profile, configurations))

    # ------------------------------------------------------------- internals
    def _noise_rng(self, profile: WorkloadProfile, configuration: Configuration) -> np.random.Generator:
        """The measurement-noise stream of one (region, configuration,
        machine) triple.  It is seeded from a digest of the triple, not from
        the built-in ``hash()``, which salts strings per process, so every
        process draws the same noise."""
        digest = hashlib.blake2b(
            repr((profile.name, configuration.key, self.machine.name)).encode(), digest_size=8
        ).digest()
        return np.random.default_rng(
            (int.from_bytes(digest, "little") ^ self.engine_config.seed) & 0xFFFFFFFFFFFFFFFF
        )

    def _placement(
        self, profile: WorkloadProfile, configuration: Configuration
    ) -> Tuple[int, Placement]:
        """Threads actually run and the page placement of a configuration's
        NUMA point (its prefetchers play no part)."""
        machine = self.machine
        nodes = min(configuration.nodes, machine.num_nodes)
        threads = min(configuration.threads, nodes * machine.cores_per_node)
        threads = max(1, threads)
        placement = compute_placement(
            threads=threads,
            nodes=nodes,
            cores_per_node=machine.cores_per_node,
            thread_mapping=configuration.thread_mapping,
            page_mapping=configuration.page_mapping,
            shared_fraction=profile.shared_fraction,
            init_by_master=profile.init_by_master,
            locality_quality=1.0 - 0.85 * profile.irregular_fraction,
        )
        return threads, placement

    @staticmethod
    def _effect(profile: WorkloadProfile, setting: PrefetcherSetting) -> PrefetchEffect:
        return prefetcher_effect(
            setting,
            profile.sequential_fraction,
            profile.strided_fraction,
            profile.irregular_fraction,
            profile.branch_regularity,
        )

    def _phase_factor(
        self, profile: WorkloadProfile, configuration: Configuration, call_index: int
    ) -> float:
        """Per-call behaviour drift (Figure 12).

        Regions with ``phase_variability`` > 0 alternate between a fast and a
        slow phase; the slow phase is more memory-bound and therefore suffers
        more when prefetchers are disabled or threads are packed.
        """
        v = profile.phase_variability
        if v <= 0.0:
            return 1.0
        phase = math.sin(2.0 * math.pi * (call_index / max(2.0, profile.calls / 2.0)))
        swing = 0.5 * v * (1.0 + phase)
        # Slow phases get slower when fewer prefetchers are enabled.
        prefetch_relief = 0.15 * configuration.prefetchers.enabled_count / 4.0
        return 1.0 + swing * (1.0 - prefetch_relief)

    def _single_call_time(
        self, profile: WorkloadProfile, configuration: Configuration
    ):
        machine = self.machine
        threads, placement = self._placement(profile, configuration)
        if profile.scalability_limit is not None:
            effective_threads = min(threads, profile.scalability_limit)
        else:
            effective_threads = threads
        effect = self._effect(profile, configuration.prefetchers)

        # ----------------------------------------------------------- compute
        iterations_per_thread = profile.iterations / effective_threads
        critical_path_iterations = iterations_per_thread * profile.load_imbalance
        flops = critical_path_iterations * profile.flops_per_iter
        issue_efficiency = (
            (0.35 + 0.65 * (1.0 - profile.dependency_chain))
            * (0.7 + 0.3 * profile.branch_regularity)
        )
        peak_flops_per_core = machine.frequency_ghz * 1e9 * machine.flops_per_cycle
        compute_time = flops / (peak_flops_per_core * issue_efficiency)

        # ------------------------------------------------------------ caches
        miss_ratios = self._miss_ratios(profile, placement, effect)
        line_bytes = machine.l1.line_bytes

        accesses_per_iter = max(1.0, profile.bytes_per_iter / 8.0)
        accesses = critical_path_iterations * accesses_per_iter
        dram_lines_per_thread = (
            critical_path_iterations * profile.bytes_per_iter * miss_ratios["to_dram"] / line_bytes
        )

        # --------------------------------------------------------- bandwidth
        write_factor = 1.0 + profile.write_ratio  # write-allocate + writeback
        demand_bytes_total = (
            profile.iterations
            * profile.bytes_per_iter
            * miss_ratios["to_dram"]
            * write_factor
        )
        traffic_bytes_total = demand_bytes_total * effect.bandwidth_overhead
        node_shares = np.asarray(placement.node_traffic_share[: machine.num_nodes])
        if node_shares.size == 0:
            node_shares = np.array([1.0])
        hottest_share = float(node_shares.max())
        hottest_node_bytes = traffic_bytes_total * hottest_share
        bandwidth_time = hottest_node_bytes / (machine.node_bandwidth_gbs * 1e9)
        local_fraction = placement.local_fraction
        remote_bytes = traffic_bytes_total * (1.0 - local_fraction)
        links = max(1, placement.active_nodes)
        interconnect_time = remote_bytes / (machine.interconnect_bandwidth_gbs * 1e9 * links)
        bandwidth_time = max(bandwidth_time, interconnect_time)

        # ----------------------------------------------------------- latency
        effective_latency_ns = (
            machine.dram_latency_ns * local_fraction
            + machine.remote_latency_ns * (1.0 - local_fraction)
        )
        # Memory-level parallelism: streams expose many outstanding misses,
        # pointer chases almost none.
        mlp = 1.5 + 8.5 * (profile.sequential_fraction + 0.6 * profile.strided_fraction)
        mlp *= 0.5 + 0.5 * (1.0 - profile.dependency_chain)
        mlp = max(1.0, mlp)
        uncovered = max(0.05, 1.0 - effect.latency_coverage)
        # Queueing delay at the memory controllers: when the configuration
        # pushes the hottest node close to its bandwidth limit, every miss
        # waits longer.  This is the mechanism that makes prefetcher overshoot
        # and thread over-subscription actively harmful rather than neutral.
        raw_latency_time = dram_lines_per_thread * effective_latency_ns * 1e-9 * uncovered / mlp
        demand_period = max(compute_time + raw_latency_time, 1e-9)
        utilization_estimate = min(0.95, bandwidth_time / demand_period)
        queueing_factor = 1.0 / (1.0 - 0.85 * utilization_estimate)
        latency_time = raw_latency_time * queueing_factor

        # ------------------------------------------------ synchronisation etc.
        barrier_time = (
            profile.barriers_per_call
            * (BARRIER_BASE_US + BARRIER_PER_LOG_THREAD_US * math.log2(max(2, threads)))
            * 1e-6
        )
        scheduling_time = SCHEDULING_US_PER_THREAD * threads * 1e-6
        # Contended atomics serialise through the owning cache line: the cost
        # is paid on the *total* number of atomic operations and grows with
        # the number of sharers (line ping-pong).
        sharers = max(1.0, threads * profile.shared_fraction)
        total_atomics = profile.atomics_per_iter * profile.iterations
        if total_atomics > 0:
            # Atomics on shared lines serialise and get slower as more threads
            # bounce the line; atomics on private data scale with the threads.
            shared_atomics = total_atomics * profile.shared_fraction
            private_atomics = total_atomics - shared_atomics
            atomic_time = (
                shared_atomics * (ATOMIC_BASE_NS + ATOMIC_CONTENTION_NS * (sharers - 1.0))
                + private_atomics * ATOMIC_BASE_NS / effective_threads
            ) * 1e-9
        else:
            atomic_time = 0.0
        if threads > 1 and profile.false_sharing > 0.0:
            # Each falsely-shared store forces a line transfer from another
            # core; transfers that cross the socket boundary are far more
            # expensive, so false sharing primarily punishes multi-node runs.
            sharers_on_line = min(threads - 1, 7)
            cross_node_fraction = (
                (placement.active_nodes - 1) / placement.active_nodes
                if placement.active_nodes > 1
                else 0.0
            )
            transfer_ns = FALSE_SHARING_NS * (1.0 + 5.0 * cross_node_fraction)
            false_sharing_time = (
                profile.false_sharing
                * iterations_per_thread
                * transfer_ns
                * sharers_on_line
                * 1e-9
            )
        else:
            false_sharing_time = 0.0
        parallel_core_time = compute_time + latency_time + atomic_time + false_sharing_time
        parallel_time = max(parallel_core_time, bandwidth_time) + barrier_time + scheduling_time
        critical_time = profile.critical_fraction * parallel_core_time * (threads - 1)

        single_thread_work = (
            profile.iterations
            * profile.flops_per_iter
            / (peak_flops_per_core * issue_efficiency)
        )
        serial_time = profile.serial_fraction * single_thread_work

        total_time = serial_time + parallel_time + critical_time
        total_time = max(total_time, 1e-7)

        # ----------------------------------------------------------- counters
        dram_bandwidth_gbs = traffic_bytes_total / total_time / 1e9
        utilization = dram_bandwidth_gbs / (
            machine.node_bandwidth_gbs * max(1, placement.memory_nodes)
        )
        instructions = profile.iterations * (
            profile.flops_per_iter + accesses_per_iter + 2.0
        )
        cycles = total_time * machine.frequency_ghz * 1e9 * threads
        ipc = instructions / max(1.0, cycles)
        active_cores = threads
        power = (
            machine.base_power_w * max(1, placement.active_nodes) / machine.num_nodes
            + machine.core_power_w * active_cores
            + machine.dram_power_per_gbs_w * dram_bandwidth_gbs
        )
        stall_fraction = min(
            0.99, (latency_time + max(0.0, bandwidth_time - compute_time)) / total_time
        )
        counters = PerformanceCounters(
            package_power_w=float(power),
            l3_miss_ratio=float(miss_ratios["l3"]),
            l2_miss_ratio=float(miss_ratios["l2"]),
            l1_miss_ratio=float(miss_ratios["l1"]),
            dram_bandwidth_gbs=float(dram_bandwidth_gbs),
            remote_access_ratio=float(1.0 - local_fraction),
            bandwidth_utilization=float(min(1.5, utilization)),
            ipc=float(min(8.0, ipc)),
            stall_fraction=float(stall_fraction),
            prefetch_traffic_ratio=float(effect.bandwidth_overhead - 1.0),
        )
        breakdown = {
            "compute": compute_time,
            "latency": latency_time,
            "bandwidth": bandwidth_time,
            "barrier": barrier_time,
            "atomic": atomic_time,
            "false_sharing": false_sharing_time,
            "serial": serial_time,
            "critical": critical_time,
        }
        return total_time, counters, breakdown

    # ------------------------------------------------------------------
    def _miss_ratios(self, profile: WorkloadProfile, placement, effect) -> Dict[str, float]:
        """Approximate miss ratios at each level plus the DRAM-bound fraction
        of demand bytes."""
        machine = self.machine
        streaming = profile.sequential_fraction + profile.strided_fraction
        irregular = profile.irregular_fraction
        resident = profile.cache_resident_fraction

        # Effective cache capacity per thread: private L1/L2 plus an L3 share
        # that shrinks as more threads are packed per node.
        threads_per_node = max(1, max(placement.threads_per_node))
        l3_share_kb = machine.l3.size_kb / threads_per_node
        working_set_kb = max(1.0, profile.working_set_kb)

        def fit(capacity_kb: float) -> float:
            return min(1.0, capacity_kb / working_set_kb)

        line_elems = machine.l1.line_bytes / 8.0
        # Streaming data misses once per line regardless of capacity; strided
        # accesses may skip lines (approximated the same way).
        streaming_l1_miss = 1.0 / line_elems
        irregular_l1_miss = 1.0 - fit(machine.l1.size_kb)
        l1_miss = (
            streaming * streaming_l1_miss
            + irregular * irregular_l1_miss
            + resident * 0.01
        )
        l1_miss = min(1.0, l1_miss + effect.pollution * 0.2)

        l2_survive = 1.0 - fit(machine.l2.size_kb) * 0.6
        l3_survive = 1.0 - fit(l3_share_kb) * 0.8
        # Footprints far larger than the LLC defeat any reuse.
        footprint_factor = min(
            1.0, profile.footprint_mb * 1024.0 / max(1.0, machine.l3.size_kb)
        )
        l3_survive = max(l3_survive, footprint_factor * streaming * 0.9)

        l2_miss = min(1.0, max(0.02, l2_survive) * (0.6 + 0.4 * irregular))
        l3_miss = min(1.0, max(0.02, l3_survive) * (0.7 + 0.3 * irregular))
        l3_miss = min(1.0, l3_miss + effect.pollution * 0.15)

        # "to_dram" is the fraction of demand *bytes* that reach DRAM.
        # Streaming bytes reach DRAM whenever the footprint exceeds the LLC;
        # irregular bytes follow the composed miss path.
        streaming_dram = streaming * footprint_factor
        irregular_dram = irregular * irregular_l1_miss * max(0.2, l3_miss)
        to_dram = min(1.0, streaming_dram + irregular_dram + resident * 0.005)

        return {
            "l1": float(min(1.0, l1_miss)),
            "l2": float(min(1.0, l2_miss)),
            "l3": float(min(1.0, l3_miss)),
            "to_dram": float(to_dram),
        }

    # ------------------------------------------------------------------
    def _space_times(
        self, profile: WorkloadProfile, configurations: List[Configuration]
    ) -> np.ndarray:
        """Total time of every configuration: :meth:`simulate`'s
        ``time_seconds`` computed as arrays over the configurations, with
        every expression kept in the scalar path's operation order."""
        machine = self.machine
        # Configurations share NUMA points (threads, nodes, mappings) and
        # prefetcher settings: each is evaluated once, then gathered.
        points, point_of = _group(
            [(c.threads, c.nodes, c.thread_mapping, c.page_mapping) for c in configurations],
            configurations,
        )
        point_rows = []
        for configuration in points:
            threads, placement = self._placement(profile, configuration)
            point_rows.append((
                threads,
                max(placement.threads_per_node),
                placement.active_nodes,
                placement.local_fraction,
                max(placement.node_traffic_share[: machine.num_nodes], default=1.0),
                math.log2(max(2, threads)),
            ))
        prefetchers = [c.prefetchers for c in configurations]
        settings, setting_of = _group(
            [(p.l2_streamer, p.l2_adjacent, p.dcu_next, p.dcu_ip) for p in prefetchers],
            prefetchers,
        )
        setting_rows = []
        for setting in settings:
            effect = self._effect(profile, setting)
            setting_rows.append((
                effect.bandwidth_overhead,
                effect.pollution,
                max(0.05, 1.0 - effect.latency_coverage),
                setting.enabled_count,
            ))
        threads, packed, active_nodes, local_fraction, hottest_share, log_threads = (
            np.array(point_rows, dtype=np.float64)[point_of].T
        )
        overhead, pollution, uncovered, enabled = (
            np.array(setting_rows, dtype=np.float64)[setting_of].T
        )

        # ----------------------------------------------------------- compute
        if profile.scalability_limit is not None:
            effective_threads = np.minimum(threads, profile.scalability_limit)
        else:
            effective_threads = threads
        iterations_per_thread = profile.iterations / effective_threads
        critical_path_iterations = iterations_per_thread * profile.load_imbalance
        flops = critical_path_iterations * profile.flops_per_iter
        issue_efficiency = (
            (0.35 + 0.65 * (1.0 - profile.dependency_chain))
            * (0.7 + 0.3 * profile.branch_regularity)
        )
        peak_flops_per_core = machine.frequency_ghz * 1e9 * machine.flops_per_cycle
        compute_time = flops / (peak_flops_per_core * issue_efficiency)

        # ------------------------------------------------------------ caches
        streaming = profile.sequential_fraction + profile.strided_fraction
        irregular = profile.irregular_fraction
        working_set_kb = max(1.0, profile.working_set_kb)
        irregular_l1_miss = 1.0 - min(1.0, machine.l1.size_kb / working_set_kb)
        l3_share_kb = machine.l3.size_kb / np.maximum(1.0, packed)
        footprint_factor = min(
            1.0, profile.footprint_mb * 1024.0 / max(1.0, machine.l3.size_kb)
        )
        l3_survive = np.maximum(
            1.0 - np.minimum(1.0, l3_share_kb / working_set_kb) * 0.8,
            footprint_factor * streaming * 0.9,
        )
        l3_miss = np.minimum(1.0, np.maximum(0.02, l3_survive) * (0.7 + 0.3 * irregular))
        l3_miss = np.minimum(1.0, l3_miss + pollution * 0.15)
        to_dram = np.minimum(
            1.0,
            streaming * footprint_factor
            + irregular * irregular_l1_miss * np.maximum(0.2, l3_miss)
            + profile.cache_resident_fraction * 0.005,
        )
        dram_lines_per_thread = (
            critical_path_iterations * profile.bytes_per_iter * to_dram / machine.l1.line_bytes
        )

        # --------------------------------------------------------- bandwidth
        write_factor = 1.0 + profile.write_ratio
        traffic_bytes_total = (
            profile.iterations * profile.bytes_per_iter * to_dram * write_factor * overhead
        )
        bandwidth_time = traffic_bytes_total * hottest_share / (machine.node_bandwidth_gbs * 1e9)
        interconnect_time = traffic_bytes_total * (1.0 - local_fraction) / (
            machine.interconnect_bandwidth_gbs * 1e9 * np.maximum(1.0, active_nodes)
        )
        bandwidth_time = np.maximum(bandwidth_time, interconnect_time)

        # ----------------------------------------------------------- latency
        effective_latency_ns = (
            machine.dram_latency_ns * local_fraction
            + machine.remote_latency_ns * (1.0 - local_fraction)
        )
        mlp = 1.5 + 8.5 * (profile.sequential_fraction + 0.6 * profile.strided_fraction)
        mlp *= 0.5 + 0.5 * (1.0 - profile.dependency_chain)
        mlp = max(1.0, mlp)
        raw_latency_time = dram_lines_per_thread * effective_latency_ns * 1e-9 * uncovered / mlp
        demand_period = np.maximum(compute_time + raw_latency_time, 1e-9)
        utilization_estimate = np.minimum(0.95, bandwidth_time / demand_period)
        latency_time = raw_latency_time * (1.0 / (1.0 - 0.85 * utilization_estimate))

        # ------------------------------------------------ synchronisation etc.
        barrier_time = (
            profile.barriers_per_call
            * (BARRIER_BASE_US + BARRIER_PER_LOG_THREAD_US * log_threads)
            * 1e-6
        )
        scheduling_time = SCHEDULING_US_PER_THREAD * threads * 1e-6
        total_atomics = profile.atomics_per_iter * profile.iterations
        if total_atomics > 0:
            sharers = np.maximum(1.0, threads * profile.shared_fraction)
            shared_atomics = total_atomics * profile.shared_fraction
            private_atomics = total_atomics - shared_atomics
            atomic_time = (
                shared_atomics * (ATOMIC_BASE_NS + ATOMIC_CONTENTION_NS * (sharers - 1.0))
                + private_atomics * ATOMIC_BASE_NS / effective_threads
            ) * 1e-9
        else:
            atomic_time = 0.0
        if profile.false_sharing > 0.0:
            cross_node_fraction = np.where(
                active_nodes > 1, (active_nodes - 1) / active_nodes, 0.0
            )
            transfer_ns = FALSE_SHARING_NS * (1.0 + 5.0 * cross_node_fraction)
            false_sharing_time = np.where(
                threads > 1,
                profile.false_sharing
                * iterations_per_thread
                * transfer_ns
                * np.minimum(threads - 1, 7)
                * 1e-9,
                0.0,
            )
        else:
            false_sharing_time = 0.0
        parallel_core_time = compute_time + latency_time + atomic_time + false_sharing_time
        parallel_time = (
            np.maximum(parallel_core_time, bandwidth_time) + barrier_time + scheduling_time
        )
        critical_time = profile.critical_fraction * parallel_core_time * (threads - 1)
        single_thread_work = (
            profile.iterations
            * profile.flops_per_iter
            / (peak_flops_per_core * issue_efficiency)
        )
        serial_time = profile.serial_fraction * single_thread_work
        base_time = np.maximum(serial_time + parallel_time + critical_time, 1e-7)

        # ------------------------------------------------------ per-call sum
        calls = self.engine_config.default_calls or profile.calls
        per_call = np.repeat(base_time[:, None], calls, axis=1)
        variability = profile.phase_variability
        if variability > 0.0:
            swing = np.array([
                0.5 * variability
                * (1.0 + math.sin(2.0 * math.pi * (call / max(2.0, profile.calls / 2.0))))
                for call in range(calls)
            ])
            prefetch_relief = 0.15 * enabled / 4.0
            per_call *= 1.0 + swing[None, :] * (1.0 - prefetch_relief[:, None])
        noise = self.engine_config.measurement_noise
        if noise > 0.0:
            for index, configuration in enumerate(configurations):
                draws = self._noise_rng(profile, configuration).normal(0.0, noise, size=calls)
                per_call[index] *= np.exp(draws)
        return per_call.sum(axis=1)


def _group(keys: List[Tuple], items: List) -> Tuple[List, np.ndarray]:
    """One item per distinct key (keys in first-seen order), and the index
    of each item's key in that list."""
    firsts = dict(zip(keys, items))
    position = {key: index for index, key in enumerate(firsts)}
    return list(firsts.values()), np.array([position[key] for key in keys], dtype=np.intp)


class SpaceResults(Mapping[Configuration, SimulationResult]):
    """One region simulated across a configuration space.

    ``time_seconds[i]`` is the time of ``configurations[i]``, from the array
    pass.  Looking a configuration up builds its full
    :class:`SimulationResult` (counters, per-call series, breakdown) with the
    scalar :meth:`NumaPrefetchSimulator.simulate`, so only the lookups a
    caller makes pay for it.
    """

    def __init__(
        self,
        simulator: NumaPrefetchSimulator,
        profile: WorkloadProfile,
        configurations: List[Configuration],
        time_seconds: np.ndarray,
    ):
        self.configurations = configurations
        self.time_seconds = time_seconds
        self._simulator = simulator
        self._profile = profile
        self._times = dict(zip(configurations, time_seconds.tolist()))

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self._times)

    def __contains__(self, configuration: object) -> bool:
        return configuration in self._times

    def __getitem__(self, configuration: Configuration) -> SimulationResult:
        if configuration not in self._times:
            raise KeyError(configuration)
        return self._simulator.simulate(self._profile, configuration)

    def times(self) -> Dict[Configuration, float]:
        """Configuration -> time in seconds, without building any result."""
        return dict(self._times)


def simulate(
    profile: WorkloadProfile,
    configuration: Configuration,
    machine: MachineTopology,
    engine_config: Optional[EngineConfig] = None,
) -> SimulationResult:
    """One-shot convenience wrapper."""
    return NumaPrefetchSimulator(machine, engine_config).simulate(profile, configuration)
