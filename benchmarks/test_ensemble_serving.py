"""Ensemble serving cost and cache warm-start benefit.

Exports every trained fold of the shared benchmark pipeline into a
registry, then measures (a) single-fold vs multi-fold-ensemble QPS over a
64-request burst — the price of combining every fold's probabilities
behind one endpoint, which the fold-stacked inference engine
(:mod:`repro.engine`) holds well below linear in the member count (one
execution plan per micro-batch, one stacked sweep for all folds; guarded
by an in-test threshold) — and (b) cold-start vs warm-start latency,
where the warm service's cache is loaded from a dumped fingerprint →
logits table before it serves, so it answers its whole first burst from
cache.

Timing gates are deliberately loose (best-of-N on both sides) so scheduler
noise cannot fail the suite; the interesting numbers land in
``benchmark.extra_info``.
"""

import os
import time

import numpy as np
import pytest

from repro.serving import (
    BatchingConfig,
    EmbeddingCache,
    EnsemblePredictionService,
    PredictionService,
)

BURST = 64
ROUNDS = 3


@pytest.fixture(scope="module")
def ensemble_setup(pipeline, skylake_evaluation, tmp_path_factory):
    root = os.fspath(tmp_path_factory.mktemp("ensemble-bench-registry"))
    refs = pipeline.export_artifacts(skylake_evaluation, root, name="skylake-bench")
    fold = skylake_evaluation.folds[0]
    samples = pipeline.region_samples(pipeline.region_names(), fold.explored_sequence)
    graphs = [sample.graph for sample in samples]
    burst = [graphs[i % len(graphs)] for i in range(BURST)]
    return root, refs, burst


def _best_of(fn, rounds=ROUNDS):
    """(fastest elapsed seconds, last result) over ``rounds`` runs."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_single_fold_vs_ensemble_throughput(benchmark, ensemble_setup):
    root, refs, burst = ensemble_setup

    # Construction (registry load + checksum verification + fold stacking)
    # happens outside the timed region — same methodology as the cold/warm
    # benchmark below — so the cost ratio measures serving alone: with the
    # cache disabled, every timed call pays the full planned forward.
    batching = BatchingConfig(max_batch_size=BURST)
    single_service = PredictionService.from_registry(
        root, refs[0].name, batching=batching
    )
    ensemble_service = EnsemblePredictionService.from_registry(
        root, "skylake-bench", batching=batching
    )

    single_elapsed, single_results = _best_of(lambda: single_service.predict_many(burst))
    ensemble_results = benchmark.pedantic(
        ensemble_service.predict_many, args=(burst,), rounds=ROUNDS, iterations=1
    )
    ensemble_elapsed = min(
        benchmark.stats.stats.min,
        _best_of(lambda: ensemble_service.predict_many(burst))[0],
    )

    num_members = len(refs)
    single_qps = len(burst) / single_elapsed
    ensemble_qps = len(burst) / ensemble_elapsed
    cost_ratio = single_qps / ensemble_qps
    benchmark.extra_info["num_members"] = num_members
    benchmark.extra_info["single_fold_qps"] = round(single_qps, 1)
    benchmark.extra_info["ensemble_qps"] = round(ensemble_qps, 1)
    benchmark.extra_info["ensemble_cost_ratio"] = round(cost_ratio, 2)
    print(
        f"\nensemble serving ({BURST}-request burst, {num_members} folds): "
        f"single fold {single_qps:.0f} QPS, ensemble {ensemble_qps:.0f} QPS "
        f"({cost_ratio:.1f}x cost for {num_members}x the models)"
    )

    # Deterministic combination: a second ensemble pass answers identically.
    replay = EnsemblePredictionService.from_registry(
        root, "skylake-bench", batching=batching
    ).predict_many(burst)
    assert [r.label for r in replay] == [r.label for r in ensemble_results]
    assert all(len(r.per_fold_labels) == num_members for r in ensemble_results)
    assert all(0.0 <= r.agreement <= 1.0 for r in ensemble_results)
    assert len(single_results) == len(ensemble_results) == BURST

    # The engine ran the fold-stacked path: one plan per chunk, fanned to
    # every member in a single sweep.
    engine = ensemble_service.snapshot()["engine"]
    assert ensemble_service.describe()["fold_stacked"] is True
    assert engine["stacked_forwards"] > 0
    assert engine["mean_fold_fanout"] == float(num_members)

    # Perf guard (generous): serving an F-fold ensemble must stay well
    # below linear-in-folds (the pre-engine cost was ~1.0*F + combination
    # overhead, ~5.1x at 5 folds).  Clean runs measure ~2.9x at 5 folds,
    # but on a busy single-core box the same code has measured up to ~4.1x
    # — the guard sits above that noise band (4.75 at 5 folds, 2.2 at the
    # CI smoke's 2 folds) so it only fires when the stacked win is really
    # gone, not on scheduler jitter.
    threshold = 0.85 * num_members + 0.5
    assert cost_ratio <= threshold, (
        f"ensemble cost ratio {cost_ratio:.2f} regressed above {threshold:.2f} "
        f"for {num_members} folds — the fold-stacked engine win is gone"
    )


def test_cold_vs_warm_start(benchmark, ensemble_setup, tmp_path_factory):
    root, refs, burst = ensemble_setup
    warm_path = os.fspath(tmp_path_factory.mktemp("ensemble-bench-warm") / "warmup.npz")

    def fresh(warmup_path=None):
        cache = EmbeddingCache(1024)
        if warmup_path is not None:
            cache.load(warmup_path)
        return EnsemblePredictionService.from_registry(
            root,
            "skylake-bench",
            batching=BatchingConfig(max_batch_size=BURST),
            cache=cache,
        )

    # Cold start: a fresh service pays one forward sweep per fold per
    # chunk.  Construction (registry load + checksum verification) happens
    # outside the timed region so cold and warm both time predict_many
    # alone — the speedup measures only the cache, not artefact loading.
    cold_elapsed = float("inf")
    cold_results = None
    for _ in range(ROUNDS):
        cold_service = fresh()
        start = time.perf_counter()
        cold_results = cold_service.predict_many(burst)
        cold_elapsed = min(cold_elapsed, time.perf_counter() - start)

    primed = fresh()
    primed.predict_many(burst)
    dumped = primed.dump_cache(warm_path)

    warm_service = fresh(warmup_path=warm_path)
    warm_results = benchmark.pedantic(
        warm_service.predict_many, args=(burst,), rounds=ROUNDS, iterations=1
    )
    warm_elapsed = benchmark.stats.stats.min

    speedup = cold_elapsed / warm_elapsed
    benchmark.extra_info["cold_qps"] = round(len(burst) / cold_elapsed, 1)
    benchmark.extra_info["warm_qps"] = round(len(burst) / warm_elapsed, 1)
    benchmark.extra_info["warm_start_speedup"] = round(speedup, 2)
    benchmark.extra_info["warm_entries"] = dumped
    print(
        f"\nwarm start ({BURST}-request burst, {len(refs)} folds): "
        f"cold {cold_elapsed * 1e3:.1f} ms, warm {warm_elapsed * 1e3:.1f} ms "
        f"({speedup:.1f}x), {dumped} entries persisted"
    )

    # The restarted server answers its entire first burst from cache, with
    # bit-identical combined probabilities.
    assert all(result.cache_hit for result in warm_results)
    assert [r.label for r in warm_results] == [r.label for r in cold_results]
    for cold, warm in zip(cold_results, warm_results):
        assert np.array_equal(cold.probabilities, warm.probabilities)
    assert speedup >= 2.0
