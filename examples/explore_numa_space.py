"""Explore how NUMA and prefetcher settings interact for different kinds of
OpenMP regions on the simulated Sandy Bridge machine — the motivation section
of the paper in one script.

Run with:  python examples/explore_numa_space.py
"""

from repro.numasim import (
    NumaPrefetchSimulator,
    WorkloadProfile,
    build_configuration_space,
    default_configuration,
    sandy_bridge,
)

PROFILES = {
    "bandwidth-bound stream": WorkloadProfile(
        "stream", iterations=5e6, flops_per_iter=2, bytes_per_iter=24, footprint_mb=512,
        working_set_kb=16_384, sequential_fraction=0.9, strided_fraction=0.05,
        irregular_fraction=0.0, shared_fraction=0.05,
    ),
    "irregular graph kernel": WorkloadProfile(
        "graph", iterations=2e6, flops_per_iter=2, bytes_per_iter=16, footprint_mb=512,
        working_set_kb=65_536, sequential_fraction=0.1, strided_fraction=0.05,
        irregular_fraction=0.8, dependency_chain=0.6, shared_fraction=0.6,
    ),
    "synchronisation heavy": WorkloadProfile(
        "sync", iterations=2e5, flops_per_iter=10, bytes_per_iter=8, footprint_mb=4,
        working_set_kb=64, sequential_fraction=0.2, strided_fraction=0.1,
        irregular_fraction=0.0, atomics_per_iter=0.3, barriers_per_call=20,
        shared_fraction=0.6,
    ),
    "compute dense": WorkloadProfile(
        "compute", iterations=1e6, flops_per_iter=60, bytes_per_iter=8, footprint_mb=8,
        working_set_kb=128, sequential_fraction=0.3, strided_fraction=0.1,
        irregular_fraction=0.0, dependency_chain=0.1,
    ),
}


def main() -> None:
    machine = sandy_bridge()
    simulator = NumaPrefetchSimulator(machine)
    space = build_configuration_space(machine)
    default = default_configuration(machine)
    print(f"machine: {machine.name}, configuration space: {len(space)} points\n")
    print(f"{'workload':26s} {'best configuration':42s} {'speedup':>8s}")
    for name, profile in PROFILES.items():
        times = simulator.simulate_space(profile, space).times()
        best = min(times, key=times.get)
        speedup = times[default] / times[best]
        print(f"{name:26s} {best.describe():42s} {speedup:7.2f}x")
    print("\nDifferent regions want very different configurations — exactly the")
    print("search space the paper's GNN learns to navigate from static IR alone.")


if __name__ == "__main__":
    main()
