"""Prediction-journal overhead: journalled vs bare hub serving.

The journal's promise is that recording every served prediction costs the
hot path almost nothing — ``record()`` is one lock and a deque append;
JSON serialization and the disk write happen on a background thread.
This benchmark serves the identical burst through two hubs built from the
same exported artifact — one with ``journal_dir`` set, one without — and
records the QPS ratio.  The ISSUE acceptance bound is 1.15x; the numbers
land in ``BENCH_serving.json`` via the recording hook in ``conftest.py``.
"""

import os
import time

import pytest

from repro.graphs import GraphBuilder
from repro.serving import BatchingConfig, DeploymentSpec, JournalReader, ModelHub
from repro.workloads import build_suite

BURST = 32
ROUNDS = 5


@pytest.fixture(scope="module")
def journal_setup(tmp_path_factory, pipeline, skylake_evaluation):
    root = os.fspath(tmp_path_factory.mktemp("journal-bench-registry"))
    refs = pipeline.export_artifacts(skylake_evaluation, root, name="bench")
    builder = GraphBuilder()
    regions = build_suite()
    graphs = [builder.build_module(region.module) for region in regions]
    burst = [graphs[i % len(graphs)] for i in range(BURST)]
    return root, refs[0].name, burst


def test_journal_write_overhead(benchmark, journal_setup, tmp_path_factory):
    root, artifact, burst = journal_setup
    knobs = dict(
        batching=BatchingConfig(max_batch_size=BURST, max_delay_s=0.001),
        enable_cache=False,
    )
    journal_dir = os.fspath(tmp_path_factory.mktemp("journal-bench") / "journal")

    bare = ModelHub(root, enable_cache=False)
    bare.load(DeploymentSpec(name="m", artifact=artifact, **knobs))
    journalled = ModelHub(root, enable_cache=False, journal_dir=journal_dir)
    journalled.load(DeploymentSpec(name="m", artifact=artifact, **knobs))

    def journalled_burst():
        return [r.label for r in journalled.predict_many("m", burst)]

    # Warm both hubs untimed, then interleave the timed rounds bare /
    # journalled so scheduler noise lands on both sides alike — a
    # two-phase measurement makes the ratio guard flaky under suite load.
    expected = [r.label for r in bare.predict_many("m", burst)]
    labels = journalled_burst()
    bare_elapsed = journalled_elapsed = float("inf")
    for _ in range(ROUNDS):
        round_start = time.perf_counter()
        bare.predict_many("m", burst)
        bare_elapsed = min(bare_elapsed, time.perf_counter() - round_start)
        round_start = time.perf_counter()
        journalled_burst()
        journalled_elapsed = min(
            journalled_elapsed, time.perf_counter() - round_start
        )
    bare_qps = len(burst) / bare_elapsed
    journalled_qps = len(burst) / journalled_elapsed
    bare.stop()

    # The pedantic rounds feed pytest-benchmark's table; the guard above
    # uses the paired timings.
    benchmark.pedantic(journalled_burst, rounds=ROUNDS, iterations=1)
    journal_stats = journalled.journal.stats()
    journalled.stop()

    overhead = bare_qps / journalled_qps
    benchmark.extra_info["bare_qps"] = round(bare_qps, 1)
    benchmark.extra_info["journalled_qps"] = round(journalled_qps, 1)
    benchmark.extra_info["journal_overhead"] = round(overhead, 3)
    print(
        f"\njournalled serving ({BURST}-request burst): bare {bare_qps:.0f} QPS, "
        f"journalled {journalled_qps:.0f} QPS (overhead {overhead:.3f}x, "
        f"{journal_stats['written']} records written async)"
    )

    # Journalling must not change a single answer...
    assert labels == expected
    # ...must actually have recorded the traffic (benchmark rounds + the
    # pedantic warm-up all hit the journalled hub, durably on disk)...
    assert journal_stats["dropped"] == 0
    records = JournalReader(journal_dir).records()
    assert len(records) >= ROUNDS * BURST
    assert all(record["model"] == "m" for record in records)
    # ...and the hot-path cost must stay inside the ISSUE acceptance bound.
    assert overhead <= 1.15
