"""Quickstart: build a region, compile it under flag sequences, inspect its
graph, simulate the NUMA/prefetcher space and find its best configuration.

Run with:  python examples/quickstart.py
"""

from repro.graphs import build_graph
from repro.ir import print_module
from repro.numasim import (
    NumaPrefetchSimulator,
    build_configuration_space,
    default_configuration,
    skylake,
)
from repro.passes import apply_flag_sequence, sample_flag_sequences
from repro.workloads import KernelSpec, Pattern, derive_profile, generate_region_module


def main() -> None:
    # 1. Describe an OpenMP parallel region (a streaming triad kernel).
    spec = KernelSpec(
        name="example triad",
        family="rodinia",
        pattern=Pattern.TRIAD,
        iterations=2e6,
        footprint_mb=256.0,
        working_set_kb=16_000.0,
    )

    # 2. Lower it to the mini-IR and look at the outlined region.
    module = generate_region_module(spec)
    print("=== generated IR (excerpt) ===")
    print("\n".join(print_module(module).splitlines()[:25]))

    # 3. Compile it under a couple of random flag sequences (augmentation).
    for sequence in sample_flag_sequences(3, seed=7):
        variant = apply_flag_sequence(module, list(sequence))
        graph = build_graph(variant)
        print(f"sequence {sequence.name}: {list(sequence)} -> {graph}")

    # 4. Simulate the NUMA x prefetcher space and report the best configuration.
    machine = skylake()
    simulator = NumaPrefetchSimulator(machine)
    profile = derive_profile(spec)
    space = build_configuration_space(machine)
    times = simulator.simulate_space(profile, space).times()
    default = default_configuration(machine)
    best = min(times, key=times.get)
    print("\n=== configuration search on", machine.name, "===")
    print(f"default: {default.describe():45s} {times[default] * 1e3:8.3f} ms")
    print(f"best:    {best.describe():45s} {times[best] * 1e3:8.3f} ms")
    print(f"speedup over default: {times[default] / times[best]:.2f}x")


if __name__ == "__main__":
    main()
