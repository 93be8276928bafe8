"""Serving throughput: single-request vs micro-batched QPS and cache speedup.

Uses a trained fold predictor from the shared benchmark pipeline and replays
a 64-request burst of real region graphs through the prediction service
three ways: one request at a time, micro-batched, and cache-hot.  QPS and
speedup ratios land in the benchmark JSON via ``benchmark.extra_info``.

Speedup assertions compare best-of-N timings for *both* paths, so a GC
pause or scheduler hiccup in one round cannot fail the gate.
"""

import time

import numpy as np
import pytest

from repro.serving import BatchingConfig, EmbeddingCache, PredictionService

BURST = 64
ROUNDS = 3


@pytest.fixture(scope="module")
def serving_setup(pipeline, skylake_evaluation):
    fold = skylake_evaluation.folds[0]
    samples = pipeline.region_samples(
        pipeline.region_names(), fold.explored_sequence
    )
    graphs = [sample.graph for sample in samples]
    # A 64-request burst of distinct graphs (regions repeat round-robin only
    # if the suite is smaller than the burst).
    burst = [graphs[i % len(graphs)] for i in range(BURST)]
    return fold.predictor, burst


def _service(predictor, enable_cache=True):
    return PredictionService(
        model=predictor.model,
        encoder=predictor.encoder,
        batching=BatchingConfig(max_batch_size=BURST),
        cache=EmbeddingCache(2 * BURST) if enable_cache else None,
    )


def _best_of(fn, rounds=ROUNDS):
    """(fastest elapsed seconds, last result) over ``rounds`` runs."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_single_vs_micro_batched_throughput(benchmark, serving_setup):
    predictor, burst = serving_setup

    def one_at_a_time():
        service = _service(predictor, enable_cache=False)
        return [service.predict(graph) for graph in burst]

    def micro_batched():
        service = _service(predictor, enable_cache=False)
        return service.predict_many(burst)

    single_elapsed, single_results = _best_of(one_at_a_time)
    # Record the serving-relevant number under the benchmark fixture, but
    # assert on symmetric best-of-N timings.
    batched_results = benchmark.pedantic(micro_batched, rounds=ROUNDS, iterations=1)
    batched_elapsed = min(benchmark.stats.stats.min, _best_of(micro_batched)[0])

    single_qps = len(burst) / single_elapsed
    batched_qps = len(burst) / batched_elapsed
    speedup = batched_qps / single_qps
    benchmark.extra_info["single_qps"] = round(single_qps, 1)
    benchmark.extra_info["micro_batched_qps"] = round(batched_qps, 1)
    benchmark.extra_info["batching_speedup"] = round(speedup, 2)
    print(
        f"\nserving throughput ({BURST}-request burst): "
        f"single {single_qps:.0f} QPS, micro-batched {batched_qps:.0f} QPS "
        f"({speedup:.1f}x)"
    )

    # Identical answers, and batching must amortise to >= 2x throughput.
    assert [r.label for r in single_results] == [r.label for r in batched_results]
    assert speedup >= 2.0


def test_cache_hit_speedup(benchmark, serving_setup):
    predictor, burst = serving_setup
    service = _service(predictor)

    start = time.perf_counter()
    cold = service.predict_many(burst)
    cold_elapsed = time.perf_counter() - start

    hot = benchmark.pedantic(service.predict_many, args=(burst,), rounds=ROUNDS, iterations=1)
    hot_elapsed = benchmark.stats.stats.min

    speedup = cold_elapsed / hot_elapsed
    benchmark.extra_info["cold_qps"] = round(len(burst) / cold_elapsed, 1)
    benchmark.extra_info["hot_qps"] = round(len(burst) / hot_elapsed, 1)
    benchmark.extra_info["cache_hit_speedup"] = round(speedup, 2)
    print(
        f"\ncache speedup ({BURST}-request burst): cold {cold_elapsed * 1e3:.1f} ms, "
        f"hot {hot_elapsed * 1e3:.1f} ms ({speedup:.1f}x), "
        f"hit rate {service.stats.cache_hit_rate:.2f}"
    )

    assert all(result.cache_hit for result in hot)
    assert np.array_equal(
        np.array([r.label for r in cold]), np.array([r.label for r in hot])
    )
    assert speedup >= 2.0
