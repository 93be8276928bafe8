"""Configuration labelling: full-space exploration and label reduction.

Step C of the paper's workflow: every region is executed once across the
whole NUMA × prefetcher space (here: simulated) to find its best
configuration.  :class:`MachineDataset` times a region with one space pass
of the simulator (:meth:`NumaPrefetchSimulator.simulate_space`: every
configuration's time from array arithmetic) and builds a full result only
for the default configuration, whose counters and per-call series the
dynamic model reads; the scalar :meth:`NumaPrefetchSimulator.simulate` is
the reference the space pass is tested against.

Following Sánchez Barrera et al., the space is then reduced to a small set
of representative configurations (13 by default, 6 and 2 for the
label-count study of Figure 6) chosen so that picking the best
configuration *within the reduced set* preserves almost all of the gains of
the full exploration.  The reduced configurations are the class labels every
model in the project predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..numasim.configuration import Configuration, build_configuration_space, default_configuration
from ..numasim.engine import EngineConfig, NumaPrefetchSimulator
from ..numasim.profile import WorkloadProfile
from ..numasim.topology import MachineTopology
from ..workloads.suite import Region


@dataclass
class RegionTiming:
    """Simulated timings of one region across the configuration space."""

    region_name: str
    times: Dict[Configuration, float]
    default_time: float
    counters_at_default: np.ndarray
    per_call_at_default: List[float] = field(default_factory=list)

    def best_configuration(self, subset: Optional[Sequence[Configuration]] = None) -> Configuration:
        candidates = subset if subset is not None else list(self.times)
        return min(candidates, key=lambda cfg: self.times[cfg])

    def best_time(self, subset: Optional[Sequence[Configuration]] = None) -> float:
        return self.times[self.best_configuration(subset)]

    def speedup_of(self, configuration: Configuration) -> float:
        return self.default_time / self.times[configuration]

    def error_of(self, configuration: Configuration, subset: Optional[Sequence[Configuration]] = None) -> float:
        """Relative difference between the chosen and the best configuration.

        The paper computes errors as the absolute difference divided by the
        maximum of the two values, so a perfect prediction scores 0 and a
        2x-slower prediction scores 0.5.
        """
        chosen = self.times[configuration]
        best = self.best_time(subset)
        denom = max(chosen, best)
        return 0.0 if denom == 0 else abs(chosen - best) / denom


class MachineDataset:
    """Timings of every region of a suite on one machine."""

    def __init__(
        self,
        machine: MachineTopology,
        regions: Sequence[Region],
        engine_config: Optional[EngineConfig] = None,
        input_size: Optional[str] = None,
    ):
        self.machine = machine
        self.regions = list(regions)
        self.simulator = NumaPrefetchSimulator(machine, engine_config)
        self.space: List[Configuration] = build_configuration_space(machine)
        self.default = default_configuration(machine)
        self.input_size = input_size
        self.timings: Dict[str, RegionTiming] = {}
        self._populate()

    # ------------------------------------------------------------------
    def _profile_of(self, region: Region) -> WorkloadProfile:
        if self.input_size is None:
            return region.profile
        return region.profile_at(self.input_size)

    def _populate(self) -> None:
        for region in self.regions:
            results = self.simulator.simulate_space(self._profile_of(region), self.space)
            times = results.times()
            default_result = results[self.default]
            self.timings[region.name] = RegionTiming(
                region_name=region.name,
                times=times,
                default_time=times[self.default],
                counters_at_default=default_result.counters.as_vector(),
                per_call_at_default=list(default_result.per_call_times),
            )

    # ------------------------------------------------------------------
    def timing(self, region_name: str) -> RegionTiming:
        return self.timings[region_name]

    def region_names(self) -> List[str]:
        return [region.name for region in self.regions]

    def full_exploration_speedups(self) -> Dict[str, float]:
        """Best achievable speedup over the default, per region."""
        return {
            name: timing.default_time / timing.best_time()
            for name, timing in self.timings.items()
        }

    def average_full_speedup(self) -> float:
        speedups = list(self.full_exploration_speedups().values())
        return float(np.mean(speedups)) if speedups else 1.0


@dataclass
class LabelSpace:
    """A reduced set of representative configurations used as class labels."""

    configurations: List[Configuration]
    machine_name: str

    @property
    def num_labels(self) -> int:
        return len(self.configurations)

    def label_of(self, configuration: Configuration) -> int:
        return self.configurations.index(configuration)

    def configuration_of(self, label: int) -> Configuration:
        return self.configurations[label]

    def best_label_for(self, timing: RegionTiming) -> int:
        best = timing.best_configuration(self.configurations)
        return self.configurations.index(best)

    def labels_for(self, dataset: MachineDataset) -> Dict[str, int]:
        return {
            name: self.best_label_for(timing) for name, timing in dataset.timings.items()
        }


def select_label_space(
    dataset: MachineDataset,
    num_labels: int = 13,
    always_include_default: bool = True,
) -> LabelSpace:
    """Greedy selection of representative configurations.

    Iteratively adds the configuration that most reduces the total time of
    all regions when each region runs its best configuration from the chosen
    subset — the same "minimise their number while maximising their gains"
    criterion the paper borrows from Sánchez Barrera et al.
    """
    if num_labels < 1:
        raise ValueError("num_labels must be >= 1")
    space = dataset.space
    region_names = dataset.region_names()
    times = np.array(
        [[dataset.timing(name).times[cfg] for cfg in space] for name in region_names]
    )  # (regions, configs)

    chosen: List[int] = []
    if always_include_default:
        chosen.append(space.index(dataset.default))

    current_best = (
        times[:, chosen].min(axis=1) if chosen else np.full(len(region_names), np.inf)
    )
    while len(chosen) < min(num_labels, len(space)):
        best_candidate = -1
        best_total = float(current_best.sum())
        improved = False
        for idx in range(len(space)):
            if idx in chosen:
                continue
            candidate_best = np.minimum(current_best, times[:, idx])
            total = float(candidate_best.sum())
            if total < best_total - 1e-15:
                best_total = total
                best_candidate = idx
                improved = True
        if not improved:
            # No configuration improves any region: fill with diverse extras.
            remaining = [i for i in range(len(space)) if i not in chosen]
            if not remaining:
                break
            best_candidate = remaining[0]
        chosen.append(best_candidate)
        current_best = times[:, chosen].min(axis=1)

    configurations = [space[i] for i in chosen]
    return LabelSpace(configurations=configurations, machine_name=dataset.machine.name)


def label_space_quality(dataset: MachineDataset, label_space: LabelSpace) -> float:
    """Fraction of full-exploration gains preserved by the reduced labels.

    1.0 means picking the best configuration among the labels is as good as
    exploring the whole space (the paper reports 99% for 13 labels).
    """
    total_full = 0.0
    total_reduced = 0.0
    total_default = 0.0
    for name in dataset.region_names():
        timing = dataset.timing(name)
        total_full += timing.default_time / timing.best_time()
        total_reduced += timing.default_time / timing.best_time(label_space.configurations)
        total_default += 1.0
    full_gain = total_full - total_default
    reduced_gain = total_reduced - total_default
    if full_gain <= 0:
        return 1.0
    return float(reduced_gain / full_gain)
