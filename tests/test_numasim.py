"""Tests for the NUMA/prefetcher simulator."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.numasim import (
    Configuration,
    EngineConfig,
    NumaPrefetchSimulator,
    PageMapping,
    PrefetcherSetting,
    ThreadMapping,
    WorkloadProfile,
    all_prefetcher_settings,
    build_configuration_space,
    build_numa_points,
    compute_placement,
    default_configuration,
    machine_by_name,
    map_threads,
    prefetcher_effect,
    sandy_bridge,
    skylake,
    skylake_gold,
    space_summary,
    translate_configuration,
)
from repro.numasim.counters import COUNTER_NAMES, PerformanceCounters


class TestTopology:
    def test_presets_are_valid(self):
        for machine in (sandy_bridge(), skylake(), skylake_gold()):
            assert machine.validate() == []
            assert machine.total_cores == machine.num_nodes * machine.cores_per_node

    def test_paper_testbed_shapes(self):
        assert sandy_bridge().num_nodes == 4
        assert sandy_bridge().total_cores == 32
        assert skylake().num_nodes == 2
        assert skylake().total_cores == 48

    def test_machine_by_name(self):
        assert machine_by_name("skylake").name == "skylake"
        with pytest.raises(KeyError):
            machine_by_name("pentium-pro")


class TestPrefetchers:
    def test_sixteen_settings(self):
        settings_list = all_prefetcher_settings()
        assert len(settings_list) == 16
        assert len({s.mask for s in settings_list}) == 16

    def test_msr_encoding_inverts_mask(self):
        setting = PrefetcherSetting.all_on()
        assert setting.msr_value == 0
        assert PrefetcherSetting.all_off().msr_value == 0xF

    def test_mask_round_trip(self):
        for mask in range(16):
            assert PrefetcherSetting.from_mask(mask).mask == mask

    def test_streamers_help_sequential(self):
        on = prefetcher_effect(PrefetcherSetting.all_on(), 0.9, 0.05, 0.0)
        off = prefetcher_effect(PrefetcherSetting.all_off(), 0.9, 0.05, 0.0)
        assert on.latency_coverage > off.latency_coverage
        assert off.latency_coverage == 0.0

    def test_prefetchers_pollute_irregular(self):
        on = prefetcher_effect(PrefetcherSetting.all_on(), 0.0, 0.0, 0.9)
        assert on.pollution > 0.0
        assert on.bandwidth_overhead > 1.0
        assert on.latency_coverage < 0.1

    @given(
        st.integers(min_value=0, max_value=15),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=40, deadline=None)
    def test_effect_bounds(self, mask, sequential, irregular):
        sequential, irregular = min(sequential, 1 - 0), min(irregular, max(0.0, 1 - sequential))
        effect = prefetcher_effect(PrefetcherSetting.from_mask(mask), sequential, 0.0, irregular)
        assert 0.0 <= effect.latency_coverage <= 0.95
        assert 1.0 <= effect.bandwidth_overhead <= 1.9
        assert 0.0 <= effect.pollution <= 0.5


class TestMapping:
    def test_contiguous_packs_nodes(self):
        counts = map_threads(10, 4, 8, ThreadMapping.CONTIGUOUS)
        assert counts == [8, 2, 0, 0]

    def test_round_robin_scatters(self):
        counts = map_threads(10, 4, 8, ThreadMapping.ROUND_ROBIN)
        assert counts == [3, 3, 2, 2]

    def test_first_touch_after_serial_init_concentrates_traffic(self):
        placement = compute_placement(
            threads=16,
            nodes=4,
            cores_per_node=8,
            thread_mapping=ThreadMapping.ROUND_ROBIN,
            page_mapping=PageMapping.FIRST_TOUCH,
            shared_fraction=0.1,
            init_by_master=True,
        )
        assert placement.memory_nodes == 1
        assert placement.node_traffic_share[0] == pytest.approx(1.0)
        assert placement.local_fraction < 0.5

    def test_interleave_balances_traffic(self):
        placement = compute_placement(
            threads=16,
            nodes=4,
            cores_per_node=8,
            thread_mapping=ThreadMapping.ROUND_ROBIN,
            page_mapping=PageMapping.INTERLEAVE,
            shared_fraction=0.5,
            init_by_master=True,
        )
        assert max(placement.node_traffic_share) == pytest.approx(0.25)

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(list(PageMapping.__dict__.values())[1:5]),
        st.floats(min_value=0, max_value=1),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_placement_invariants(self, threads, nodes, page_mapping, shared, master):
        if page_mapping not in ("first_touch", "locality", "interleave", "balance"):
            return
        placement = compute_placement(
            threads=threads,
            nodes=nodes,
            cores_per_node=16,
            thread_mapping=ThreadMapping.CONTIGUOUS,
            page_mapping=page_mapping,
            shared_fraction=shared,
            init_by_master=master,
        )
        assert 0.0 <= placement.local_fraction <= 1.0
        assert placement.active_nodes >= 1
        assert sum(placement.node_traffic_share) == pytest.approx(1.0)


class TestConfigurationSpace:
    def test_space_sizes_close_to_paper(self):
        skylake_space = build_configuration_space(skylake())
        sandy_space = build_configuration_space(sandy_bridge())
        assert space_summary(skylake_space)["prefetcher_settings"] == 16
        # Paper: 288 (Skylake) and 320 (Sandy Bridge); ours are the same order.
        assert 200 <= len(skylake_space) <= 400
        assert 300 <= len(sandy_space) <= 700
        assert len(sandy_space) > len(skylake_space)

    def test_default_configuration_in_space(self):
        machine = skylake()
        space = build_configuration_space(machine)
        default = default_configuration(machine)
        assert default in space
        assert default.threads == machine.total_cores
        assert default.prefetchers.enabled_count == 4

    def test_no_duplicate_points(self):
        space = build_configuration_space(sandy_bridge())
        assert len({c.key for c in space}) == len(space)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            Configuration(0, 1, ThreadMapping.CONTIGUOUS, PageMapping.LOCALITY, PrefetcherSetting.all_on())
        with pytest.raises(ValueError):
            Configuration(4, 1, "diagonal", PageMapping.LOCALITY, PrefetcherSetting.all_on())

    def test_translation_rescales_threads(self):
        source, target = sandy_bridge(), skylake()
        config = Configuration(32, 4, ThreadMapping.CONTIGUOUS, PageMapping.LOCALITY, PrefetcherSetting.all_on())
        translated = translate_configuration(config, source, target)
        assert translated.threads == 48
        assert translated.nodes == 2
        assert translated.page_mapping == config.page_mapping
        back = translate_configuration(translated, target, source)
        assert back.threads == 32 and back.nodes == 4


def _profile(**overrides) -> WorkloadProfile:
    base = dict(
        name="test",
        iterations=1e6,
        flops_per_iter=4.0,
        bytes_per_iter=16.0,
        footprint_mb=128.0,
        working_set_kb=8192.0,
        sequential_fraction=0.7,
        strided_fraction=0.1,
        irregular_fraction=0.1,
    )
    base.update(overrides)
    return WorkloadProfile(**base)


class TestEngine:
    def test_simulation_is_deterministic(self):
        machine = skylake()
        simulator = NumaPrefetchSimulator(machine)
        config = default_configuration(machine)
        a = simulator.simulate(_profile(), config)
        b = simulator.simulate(_profile(), config)
        assert a.time_seconds == pytest.approx(b.time_seconds)

    def test_time_scales_with_iterations(self):
        machine = skylake()
        simulator = NumaPrefetchSimulator(machine)
        config = default_configuration(machine)
        small = simulator.simulate(_profile(iterations=1e5), config)
        large = simulator.simulate(_profile(iterations=1e7), config)
        assert large.time_seconds > small.time_seconds * 10

    def test_counters_are_physical(self):
        machine = sandy_bridge()
        simulator = NumaPrefetchSimulator(machine)
        result = simulator.simulate(_profile(), default_configuration(machine))
        counters = result.counters
        assert counters.package_power_w > 0
        assert 0 <= counters.l3_miss_ratio <= 1
        assert 0 <= counters.remote_access_ratio <= 1
        assert counters.dram_bandwidth_gbs >= 0
        vector = counters.as_vector()
        assert vector.shape == (len(COUNTER_NAMES),)
        assert PerformanceCounters.from_vector(vector).as_dict() == counters.as_dict()

    def test_sync_heavy_prefers_fewer_threads(self):
        machine = sandy_bridge()
        simulator = NumaPrefetchSimulator(machine)
        profile = _profile(
            iterations=2e5,
            footprint_mb=4.0,
            working_set_kb=64.0,
            sequential_fraction=0.2,
            strided_fraction=0.1,
            irregular_fraction=0.0,
            atomics_per_iter=0.3,
            barriers_per_call=20.0,
            shared_fraction=0.6,
        )
        pf = PrefetcherSetting.all_on()
        few = Configuration(4, 1, ThreadMapping.CONTIGUOUS, PageMapping.FIRST_TOUCH, pf)
        many = Configuration(32, 4, ThreadMapping.CONTIGUOUS, PageMapping.LOCALITY, pf)
        assert simulator.simulate(profile, few).time_seconds < simulator.simulate(profile, many).time_seconds

    def test_irregular_prefers_prefetchers_off(self):
        machine = sandy_bridge()
        simulator = NumaPrefetchSimulator(machine)
        profile = _profile(
            sequential_fraction=0.05,
            strided_fraction=0.05,
            irregular_fraction=0.85,
            working_set_kb=65536.0,
            footprint_mb=512.0,
            shared_fraction=0.5,
            dependency_chain=0.7,
        )
        base = Configuration(32, 4, ThreadMapping.CONTIGUOUS, PageMapping.INTERLEAVE, PrefetcherSetting.all_on())
        off = base.with_prefetchers(PrefetcherSetting.all_off())
        assert simulator.simulate(profile, off).time_seconds < simulator.simulate(profile, base).time_seconds

    def test_streaming_benefits_from_prefetchers_when_latency_bound(self):
        machine = skylake()
        simulator = NumaPrefetchSimulator(machine)
        profile = _profile(
            iterations=5e5,
            sequential_fraction=0.9,
            strided_fraction=0.05,
            irregular_fraction=0.0,
            footprint_mb=64.0,
            working_set_kb=4096.0,
            flops_per_iter=12.0,
        )
        pf_on = Configuration(2, 1, ThreadMapping.CONTIGUOUS, PageMapping.FIRST_TOUCH, PrefetcherSetting.all_on())
        pf_off = pf_on.with_prefetchers(PrefetcherSetting.all_off())
        assert simulator.simulate(profile, pf_on).time_seconds <= simulator.simulate(profile, pf_off).time_seconds

    def test_full_space_yields_headroom_over_default(self):
        machine = sandy_bridge()
        simulator = NumaPrefetchSimulator(machine)
        space = build_configuration_space(machine)
        default = default_configuration(machine)
        profile = _profile(
            iterations=3e4,
            footprint_mb=2.0,
            working_set_kb=64.0,
            barriers_per_call=40.0,
            shared_fraction=0.3,
            scalability_limit=8,
        )
        results = simulator.simulate_space(profile, space)
        best = min(results.values(), key=lambda r: r.time_seconds)
        assert results[default].time_seconds / best.time_seconds > 1.3

    def test_per_call_series_and_noise(self):
        machine = skylake()
        simulator = NumaPrefetchSimulator(machine, EngineConfig(measurement_noise=0.05))
        profile = _profile(phase_variability=0.5)
        result = simulator.simulate(profile, default_configuration(machine))
        assert len(result.per_call_times) == profile.calls
        assert max(result.per_call_times) > min(result.per_call_times)

    def test_breakdown_sums_reasonably(self):
        machine = skylake()
        simulator = NumaPrefetchSimulator(machine)
        result = simulator.simulate(_profile(), default_configuration(machine))
        assert set(result.breakdown) >= {"compute", "latency", "bandwidth", "serial"}
        assert all(v >= 0 for v in result.breakdown.values())

    @given(
        st.floats(min_value=0.0, max_value=0.9),
        st.integers(min_value=1, max_value=48),
    )
    @settings(max_examples=30, deadline=None)
    def test_time_always_positive(self, irregular, threads):
        machine = skylake()
        simulator = NumaPrefetchSimulator(machine)
        profile = _profile(
            sequential_fraction=min(0.9, 1.0 - irregular) * 0.9,
            strided_fraction=0.0,
            irregular_fraction=irregular,
        )
        config = Configuration(
            threads, 2, ThreadMapping.ROUND_ROBIN, PageMapping.LOCALITY, PrefetcherSetting.all_on()
        )
        result = simulator.simulate(profile, config)
        assert result.time_seconds > 0
        assert np.isfinite(result.time_seconds)


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _assert_space_matches_scalar(simulator, profile, space):
    results = simulator.simulate_space(profile, space)
    scalar = np.array([simulator.simulate(profile, cfg).time_seconds for cfg in space])
    np.testing.assert_allclose(results.time_seconds, scalar, rtol=1e-12, atol=0.0)
    assert results.times() == dict(zip(space, results.time_seconds.tolist()))


class TestSpacePass:
    """The array pass of ``simulate_space`` against the scalar reference."""

    @pytest.mark.parametrize("machine_name", ["skylake", "sandy-bridge"])
    @pytest.mark.parametrize("case", ["default", "size-2", "noise"])
    def test_every_region_and_configuration_matches_simulate(
        self, region_suite, machine_name, case
    ):
        machine = machine_by_name(machine_name)
        engine = EngineConfig(measurement_noise=0.05 if case == "noise" else 0.0)
        simulator = NumaPrefetchSimulator(machine, engine)
        space = build_configuration_space(machine)
        for region in region_suite:
            profile = region.profile_at(case) if case == "size-2" else region.profile
            _assert_space_matches_scalar(simulator, profile, space)

    @given(
        machine_name=st.sampled_from(["skylake", "sandy-bridge"]),
        pattern=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        scalability_limit=st.one_of(st.none(), st.integers(1, 64)),
        init_by_master=st.booleans(),
        atomics_per_iter=st.sampled_from([0.0, 0.05, 1.5]),
        false_sharing=st.floats(0.0, 1.0),
        critical_fraction=st.floats(0.0, 0.3),
        phase_variability=st.floats(0.0, 1.0),
        working_set_kb=st.floats(1.0, 1e6),
        calls=st.integers(1, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_profiles_match_simulate(
        self, machine_name, pattern, scalability_limit, init_by_master,
        atomics_per_iter, false_sharing, critical_fraction, phase_variability,
        working_set_kb, calls,
    ):
        total = max(1.0, sum(pattern))
        sequential, strided, irregular = (value / total for value in pattern)
        profile = _profile(
            sequential_fraction=sequential,
            strided_fraction=strided,
            irregular_fraction=irregular,
            scalability_limit=scalability_limit,
            init_by_master=init_by_master,
            atomics_per_iter=atomics_per_iter,
            shared_fraction=0.4,
            false_sharing=false_sharing,
            critical_fraction=critical_fraction,
            phase_variability=phase_variability,
            working_set_kb=working_set_kb,
            calls=calls,
        )
        machine = machine_by_name(machine_name)
        simulator = NumaPrefetchSimulator(machine)
        _assert_space_matches_scalar(simulator, profile, build_configuration_space(machine))

    def test_lookup_builds_the_scalar_result(self):
        machine = skylake()
        simulator = NumaPrefetchSimulator(machine)
        space = build_configuration_space(machine)
        results = simulator.simulate_space(_profile(phase_variability=0.3), space)
        assert len(results) == len(space) and list(results) == space
        default = default_configuration(machine)
        expected = simulator.simulate(_profile(phase_variability=0.3), default)
        assert results[default] == expected
        foreign = Configuration(
            3, 1, ThreadMapping.CONTIGUOUS, PageMapping.FIRST_TOUCH, PrefetcherSetting.all_on()
        )
        assert foreign not in results
        with pytest.raises(KeyError):
            results[foreign]

    def test_noise_does_not_depend_on_the_hash_seed(self):
        code = (
            "from repro.numasim import EngineConfig, NumaPrefetchSimulator, "
            "build_configuration_space, skylake\n"
            "from repro.workloads import build_suite\n"
            "machine = skylake()\n"
            "simulator = NumaPrefetchSimulator(machine, EngineConfig(measurement_noise=0.05))\n"
            "space = build_configuration_space(machine)\n"
            "profile = build_suite(families=['clomp'], limit=1)[0].profile\n"
            "print(repr(simulator.simulate(profile, space[5]).time_seconds))\n"
            "print(simulator.simulate_space(profile, space).time_seconds.tolist())\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            completed = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                timeout=120, check=True,
            )
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]


class TestProfiles:
    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile("bad", sequential_fraction=0.8, strided_fraction=0.3, irregular_fraction=0.2)
        with pytest.raises(ValueError):
            WorkloadProfile("bad", load_imbalance=0.5)

    def test_scaled_profile_grows(self):
        profile = _profile()
        scaled = profile.scaled(4.0, name_suffix="@big")
        assert scaled.iterations == profile.iterations * 4
        assert scaled.footprint_mb == profile.footprint_mb * 4
        assert scaled.name.endswith("@big")

    def test_arithmetic_intensity(self):
        assert _profile(flops_per_iter=8, bytes_per_iter=4).arithmetic_intensity == 2.0
