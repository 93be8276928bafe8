"""Hub routing overhead: direct service vs hub-routed multi-model serving.

The hub's promise is that named-model routing is one locked dict lookup —
deploying many models behind one API must not tax the hot path.  This
benchmark exports a trained fold into a registry, serves it twice (a bare
:class:`PredictionService`, and the same artifact as one of two
deployments inside a :class:`ModelHub`), replays the same burst through
both, and records the QPS ratio.  The headline numbers land in
``BENCH_serving.json`` via the recording hook in ``conftest.py``.
"""

import os
import time

import pytest

from repro.graphs import GraphBuilder
from repro.serving import BatchingConfig, DeploymentSpec, ModelHub, PredictionService
from repro.workloads import build_suite

BURST = 32
ROUNDS = 3


@pytest.fixture(scope="module")
def hub_setup(tmp_path_factory, pipeline, skylake_evaluation):
    root = os.fspath(tmp_path_factory.mktemp("hub-bench-registry"))
    refs = pipeline.export_artifacts(skylake_evaluation, root, name="bench")
    builder = GraphBuilder()
    regions = build_suite()
    graphs = [builder.build_module(region.module) for region in regions]
    burst = [graphs[i % len(graphs)] for i in range(BURST)]
    return root, refs[0].name, burst


def test_hub_routing_overhead(benchmark, hub_setup):
    root, artifact, burst = hub_setup
    batching = BatchingConfig(max_batch_size=BURST, max_delay_s=0.001)
    knobs = dict(batching=batching, enable_cache=False)

    direct = PredictionService.from_registry(root, artifact, batching=batching)
    direct_elapsed = float("inf")
    expected = None
    for _ in range(ROUNDS):
        round_start = time.perf_counter()
        expected = [r.label for r in direct.predict_many(burst)]
        direct_elapsed = min(direct_elapsed, time.perf_counter() - round_start)
    direct_qps = len(burst) / direct_elapsed

    # The same artifact inside a hub, with a second deployment and an alias
    # loaded next to it so routing is exercised against a populated table.
    hub = ModelHub(root, enable_cache=False)
    hub.load(DeploymentSpec(name="primary", artifact=artifact, **knobs))
    hub.load(DeploymentSpec(name="shadow", fold_group="bench", **knobs))
    hub.alias("prod", "primary")

    def hub_burst():
        return [r.label for r in hub.predict_many("prod", burst)]

    hub_labels = benchmark.pedantic(hub_burst, rounds=ROUNDS, iterations=1)
    hub_elapsed = benchmark.stats.stats.min
    hub_qps = len(burst) / hub_elapsed
    hub.stop()

    overhead = direct_qps / hub_qps
    benchmark.extra_info["direct_qps"] = round(direct_qps, 1)
    benchmark.extra_info["hub_qps"] = round(hub_qps, 1)
    benchmark.extra_info["hub_routing_overhead"] = round(overhead, 3)
    print(
        f"\nhub serving ({BURST}-request burst): direct {direct_qps:.0f} QPS, "
        f"hub-routed (via alias, 2 models loaded) {hub_qps:.0f} QPS "
        f"(routing overhead {overhead:.3f}x)"
    )

    # Routing must not change a single answer...
    assert hub_labels == expected
    # ...and must stay within noise of the direct service (generous guard:
    # the lookup is a dict access; 1.5x would mean something is very wrong).
    assert overhead < 1.5
