"""Tests for the online serving subsystem: registry, cache, batcher, service."""

import os
import threading

import numpy as np
import pytest

from repro.core import (
    HybridModelConfig,
    HybridStaticDynamicClassifier,
    StaticConfigurationPredictor,
    StaticModelConfig,
)
from repro.engine import build_plan
from repro.graphs import GraphBuilder, GraphEncoder, graph_fingerprint
from repro.graphs.batching import collate
from repro.serving import (
    ArtifactIntegrityError,
    ArtifactNotFoundError,
    ArtifactRegistry,
    BatcherWorkerPool,
    BatchingConfig,
    DeploymentSpec,
    EmbeddingCache,
    EnsemblePredictionService,
    ModelHub,
    PredictionService,
    SerializationError,
    ServingStats,
    combine_majority_vote,
    combine_mean_softmax,
    configuration_from_dict,
    configuration_to_dict,
    label_space_from_dict,
    label_space_to_dict,
    vocabulary_from_dict,
)

NUM_LABELS = 4


def small_predictor(num_labels=NUM_LABELS, seed=3, graph_vector_dim=8):
    """A small (untrained — weights are deterministic) predictor."""
    return StaticConfigurationPredictor(
        num_labels=num_labels,
        encoder=GraphEncoder(),
        config=StaticModelConfig(
            hidden_dim=8,
            graph_vector_dim=graph_vector_dim,
            num_rgcn_layers=1,
            epochs=1,
            seed=seed,
        ),
    )


@pytest.fixture(scope="module")
def predictor():
    return small_predictor()


@pytest.fixture(scope="module")
def fitted_hybrid():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(24, 8))
    errors = rng.uniform(0.0, 0.5, size=24)
    hybrid = HybridStaticDynamicClassifier(HybridModelConfig(use_ga_selection=False))
    hybrid.fit(vectors, errors)
    return hybrid


@pytest.fixture(scope="module")
def sample_graphs(small_suite):
    builder = GraphBuilder()
    encoder = GraphEncoder()
    return [encoder.encode(builder.build_module(region.module)) for region in small_suite]


@pytest.fixture(scope="module")
def label_space(tiny_evaluation):
    return tiny_evaluation.label_space


# ---------------------------------------------------------------- registry


class TestSerialization:
    def test_configuration_round_trip(self, label_space):
        for configuration in label_space.configurations:
            data = configuration_to_dict(configuration)
            assert configuration_from_dict(data) == configuration

    def test_label_space_round_trip(self, label_space):
        restored = label_space_from_dict(label_space_to_dict(label_space))
        assert restored.machine_name == label_space.machine_name
        assert restored.configurations == label_space.configurations
        assert restored.num_labels == label_space.num_labels

    def test_hybrid_round_trip(self, fitted_hybrid):
        restored = HybridStaticDynamicClassifier.from_dict(fitted_hybrid.to_dict())
        rng = np.random.default_rng(7)
        probes = rng.normal(size=(40, 8))
        assert np.array_equal(
            restored.needs_dynamic(probes), fitted_hybrid.needs_dynamic(probes)
        )
        assert restored.config == fitted_hybrid.config
        assert restored.selected_dimensions == fitted_hybrid.selected_dimensions


class TestSerializationErrors:
    """Malformed artefact JSON fails with a named field, not a KeyError."""

    def test_configuration_missing_field(self, label_space):
        data = configuration_to_dict(label_space.configurations[0])
        del data["threads"]
        with pytest.raises(SerializationError, match="threads"):
            configuration_from_dict(data)

    def test_configuration_wrong_type(self, label_space):
        data = configuration_to_dict(label_space.configurations[0])
        data["nodes"] = "two"
        with pytest.raises(SerializationError, match="nodes"):
            configuration_from_dict(data)

    def test_configuration_bool_is_not_an_int(self, label_space):
        data = configuration_to_dict(label_space.configurations[0])
        data["threads"] = True
        with pytest.raises(SerializationError, match="threads"):
            configuration_from_dict(data)

    def test_configuration_non_object(self):
        with pytest.raises(SerializationError, match="JSON object"):
            configuration_from_dict(["not", "a", "dict"])

    def test_label_space_configurations_must_be_a_list(self, label_space):
        data = label_space_to_dict(label_space)
        data["configurations"] = {"oops": 1}
        with pytest.raises(SerializationError, match="list"):
            label_space_from_dict(data)

    def test_label_space_missing_machine_name(self, label_space):
        data = label_space_to_dict(label_space)
        del data["machine_name"]
        with pytest.raises(SerializationError, match="machine_name"):
            label_space_from_dict(data)

    def test_label_space_broken_entry_names_the_field(self, label_space):
        data = label_space_to_dict(label_space)
        data["configurations"][0] = {"threads": 2}
        with pytest.raises(SerializationError, match="missing required field"):
            label_space_from_dict(data)

    def test_vocabulary_missing_tokens(self):
        with pytest.raises(SerializationError, match="tokens"):
            vocabulary_from_dict({})

    def test_vocabulary_tokens_wrong_shape(self):
        with pytest.raises(SerializationError, match="list of strings"):
            vocabulary_from_dict({"tokens": [1, 2, 3]})

    def test_serialization_error_is_a_value_error(self):
        # Callers that predate the structured errors catch ValueError.
        assert issubclass(SerializationError, ValueError)


class TestConstructorPathValidation:
    """Regression: a miswired object argument once sailed through ``str()``
    and became a directory literally named
    ``<repro.serving.registry.ArtifactRegistry object at 0x...>`` at the
    repo root.  Every path-taking serving constructor now validates with
    ``os.fspath()``, which raises on non-path objects instead of minting
    a repr-named path."""

    def test_non_path_objects_raise_type_error(self, tmp_path):
        from repro.serving import (
            CheckpointDaemon,
            EmbeddingCache,
            JournalWriter,
            ModelHub,
        )

        miswired = object()
        with pytest.raises(TypeError):
            ArtifactRegistry(miswired)
        with pytest.raises(TypeError):
            JournalWriter(miswired)
        with pytest.raises(TypeError):
            CheckpointDaemon(EmbeddingCache(capacity=4), miswired)
        with pytest.raises(TypeError):
            ModelHub(journal_dir=miswired)
        # Nothing repr-named leaked onto disk along the way.
        assert not [name for name in os.listdir(os.getcwd()) if name.startswith("<")]

    def test_pathlike_objects_still_accepted(self, tmp_path):
        from repro.serving import JournalWriter

        registry = ArtifactRegistry(tmp_path / "registry")
        assert registry.root == str(tmp_path / "registry")
        writer = JournalWriter(tmp_path / "journal")
        writer.close()
        assert (tmp_path / "journal").is_dir()


class TestArtifactRegistry:
    def test_save_load_round_trip(self, tmp_path, predictor, sample_graphs, fitted_hybrid):
        registry = ArtifactRegistry(tmp_path)
        ref = registry.save("model", predictor, hybrid=fitted_hybrid)
        assert ref.version == "v0001"

        artifact = registry.load("model")
        rebuilt = artifact.build_predictor()
        original = predictor.predict_label_for_graphs(sample_graphs)
        restored = rebuilt.predict_label_for_graphs(sample_graphs)
        assert np.array_equal(original, restored)
        assert artifact.hybrid is not None
        assert artifact.num_labels == NUM_LABELS
        # Vocabulary round-trips exactly.
        assert artifact.encoder.vocabulary.tokens == predictor.encoder.vocabulary.tokens

    def test_versioning_monotonic(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        first = registry.save("model", predictor)
        second = registry.save("model", predictor)
        assert (first.version, second.version) == ("v0001", "v0002")
        assert registry.versions("model") == ["v0001", "v0002"]
        assert registry.latest_version("model") == "v0002"
        assert registry.names() == ["model"]
        assert registry.load("model").ref.version == "v0002"
        assert registry.load("model", "v0001").ref.version == "v0001"

    def test_missing_artifact_raises(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        with pytest.raises(ArtifactNotFoundError):
            registry.load("nope")
        with pytest.raises(ArtifactNotFoundError):
            registry.load("nope", "v0001")

    def test_load_rejects_traversal_and_staging_versions(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        ref = registry.save("model", predictor)
        # Name/version are path components: separators, dot-prefixes and
        # non-"vNNNN" versions (e.g. a torn staging dir) must not resolve.
        for name in ("../model", "a/b", "a\\b", ".hidden", ""):
            with pytest.raises(ArtifactNotFoundError):
                registry.load(name)
        for version in ("../v0001", f"{ref.version}.staging-1-aa", "latest"):
            with pytest.raises(ArtifactNotFoundError):
                registry.load("model", version)

    def test_checksum_mismatch_detected(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        ref = registry.save("model", predictor)
        vocab_path = tmp_path / "model" / ref.version / "vocabulary.json"
        vocab_path.write_text(vocab_path.read_text() + "\n")
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            registry.load("model")
        # Unverified loads still work (explicit opt-out).
        assert registry.load("model", verify=False) is not None

    def test_missing_file_detected(self, tmp_path, predictor, fitted_hybrid):
        registry = ArtifactRegistry(tmp_path)
        ref = registry.save("model", predictor, hybrid=fitted_hybrid)
        (tmp_path / "model" / ref.version / "hybrid.json").unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            registry.verify("model")

    def test_invalid_name_rejected(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        for bad in ("", ".hidden", "a/b", "a\\b"):
            with pytest.raises(ValueError):
                registry.save(bad, predictor)

    def test_torn_staging_dir_is_invisible(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        registry.save("model", predictor)
        # Simulate a save killed between writing the manifest and the atomic
        # rename: a complete-looking "*.staging" directory is left behind.
        staging = tmp_path / "model" / "v0002.staging"
        staging.mkdir()
        (staging / "manifest.json").write_text("{}")
        assert registry.versions("model") == ["v0001"]
        assert registry.save("model", predictor).version == "v0002"

    def test_versions_sort_numerically_past_v9999(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        for version in ("v9999", "v10000"):
            directory = tmp_path / "model" / version
            directory.mkdir(parents=True)
            (directory / "manifest.json").write_text("{}")
        assert registry.versions("model") == ["v9999", "v10000"]
        assert registry.latest_version("model") == "v10000"
        assert registry.save("model", predictor).version == "v10001"

    def test_save_retries_version_allocation_on_collision(self, tmp_path, predictor):
        # Regression: two concurrent writers both compute v0002; the loser's
        # os.replace used to die with ENOTEMPTY.  Simulate losing the race by
        # letting a competitor claim the computed version mid-save.
        registry = ArtifactRegistry(tmp_path)
        registry.save("model", predictor)
        competitor = ArtifactRegistry(tmp_path)
        real_next_version = registry._next_version
        raced = []

        def racing_next_version(name):
            version = real_next_version(name)
            if not raced:
                raced.append(version)
                competitor.save("model", predictor)  # steals this version
            return version

        registry._next_version = racing_next_version
        ref = registry.save("model", predictor)
        assert raced == ["v0002"]
        assert ref.version == "v0003"
        assert registry.versions("model") == ["v0001", "v0002", "v0003"]
        # The retried artefact's manifest records the version it really got,
        # and its checksums still verify.
        loaded = registry.load("model", "v0003")
        assert loaded.manifest["version"] == "v0003"

    def test_concurrent_saves_allocate_unique_versions(self, tmp_path, predictor):
        errors = []
        refs = []
        barrier = threading.Barrier(4)

        def writer():
            try:
                barrier.wait(timeout=10)
                refs.append(ArtifactRegistry(tmp_path).save("model", predictor))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        versions = sorted(ref.version for ref in refs)
        assert len(set(versions)) == 4
        assert ArtifactRegistry(tmp_path).versions("model") == versions
        for version in versions:
            ArtifactRegistry(tmp_path).verify("model", version)

    def test_fold_groups_discovery(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        for name in ("demo-fold0", "demo-fold1", "demo-fold10", "other-fold2", "solo"):
            registry.save(name, predictor)
        groups = registry.fold_groups()
        assert set(groups) == {"demo", "other"}
        assert list(groups["demo"]) == [0, 1, 10]  # numeric, not lexicographic
        assert groups["demo"][10] == "demo-fold10"
        assert registry.fold_members("other") == {2: "other-fold2"}
        assert registry.fold_members("missing") == {}


class TestRegistryRetention:
    def test_gc_keeps_newest_versions(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        for _ in range(4):
            registry.save("model", predictor)
        removed = registry.gc("model", keep_last=2)
        assert removed == ["v0001", "v0002"]
        assert registry.versions("model") == ["v0003", "v0004"]
        assert registry.load("model").ref.version == "v0004"

    def test_gc_never_deletes_the_latest(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        ref = registry.save("model", predictor)
        assert registry.gc("model", keep_last=1) == []
        assert registry.versions("model") == [ref.version]
        with pytest.raises(ValueError, match="keep_last"):
            registry.gc("model", keep_last=0)

    def test_gc_dry_run_deletes_nothing(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        for _ in range(3):
            registry.save("model", predictor)
        doomed = registry.gc("model", keep_last=1, dry_run=True)
        assert doomed == ["v0001", "v0002"]
        assert registry.versions("model") == ["v0001", "v0002", "v0003"]

    def test_gc_spares_pinned_versions(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        for _ in range(3):
            registry.save("model", predictor)
        registry.pin("model", "v0001")
        assert registry.is_pinned("model", "v0001")
        assert registry.pinned_versions("model") == ["v0001"]
        assert registry.gc("model", keep_last=1) == ["v0002"]
        assert registry.versions("model") == ["v0001", "v0003"]
        # Pinning is a retention marker, not a payload change.
        registry.verify("model", "v0001")
        registry.unpin("model", "v0001")
        assert registry.gc("model", keep_last=1) == ["v0001"]
        assert registry.versions("model") == ["v0003"]

    def test_gc_unknown_name(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        assert registry.gc("nope", keep_last=1) == []
        with pytest.raises(ValueError):
            registry.gc("../evil", keep_last=1)

    def test_pin_validates_target(self, tmp_path, predictor):
        registry = ArtifactRegistry(tmp_path)
        registry.save("model", predictor)
        with pytest.raises(ArtifactNotFoundError):
            registry.pin("model", "v0099")
        with pytest.raises(ArtifactNotFoundError):
            registry.pin("nope", "v0001")


# ----------------------------------------------------------------- caching


class TestEmbeddingCache:
    def test_lru_eviction_order(self):
        cache = EmbeddingCache(capacity=2)
        for key in ("a", "b"):
            cache.put(key, np.zeros(2), np.zeros(3))
        assert cache.get("a") is not None  # promotes "a"
        cache.put("c", np.ones(2), np.ones(3))  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_entries_are_isolated_copies(self):
        cache = EmbeddingCache(capacity=4)
        logits = np.array([1.0, 2.0])
        cache.put("k", logits, np.zeros(2))
        logits[0] = 99.0
        entry = cache.get("k")
        assert entry.logits[0] == 1.0

    def test_stats(self):
        cache = EmbeddingCache(capacity=4)
        cache.put("k", np.zeros(1), np.zeros(1))
        cache.get("k")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1.0
        assert stats["misses"] == 1.0
        assert stats["hit_rate"] == 0.5

    def test_clear_resets_counters(self):
        cache = EmbeddingCache(capacity=2)
        for key in ("a", "b", "c"):  # evicts "a"
            cache.put(key, np.zeros(1), np.zeros(1))
        cache.get("b")
        cache.get("gone")
        cache.clear()
        # A cleared cache must not report the dead population's hit rate.
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        assert cache.hit_rate == 0.0
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0.0
        assert stats["hit_rate"] == 0.0
        cache.get("anything")
        assert cache.hit_rate == 0.0
        cache.put("x", np.zeros(1), np.zeros(1))
        cache.get("x")
        assert cache.hit_rate == 0.5

    def test_dump_load_round_trip_bit_identical(self, tmp_path):
        cache = EmbeddingCache(capacity=4)
        cache.put("first", np.array([0.1, 0.2, 0.3]), np.array([1.0, -1.0]))
        cache.put("second", np.array([9.0, -9.0, 0.5]), np.array([0.25, 0.75]))
        cache.get("first")  # promote: "second" is now least recently used
        path = str(tmp_path / "cache.npz")
        assert cache.dump(path) == 2

        restored = EmbeddingCache(capacity=4)
        assert restored.load(path) == 2
        entry = restored.get("first")
        assert np.array_equal(entry.logits, np.array([0.1, 0.2, 0.3]))
        assert np.array_equal(entry.graph_vector, np.array([1.0, -1.0]))
        assert "second" in restored

    def test_load_preserves_lru_order(self, tmp_path):
        cache = EmbeddingCache(capacity=4)
        cache.put("old", np.zeros(1), np.zeros(1))
        cache.put("new", np.ones(1), np.ones(1))
        cache.get("old")  # "new" becomes the eviction candidate
        path = str(tmp_path / "cache.npz")
        cache.dump(path)

        tiny = EmbeddingCache(capacity=1)
        tiny.load(path)
        assert "old" in tiny
        assert tiny.evictions == 1

    def test_load_rejects_foreign_file(self, tmp_path):
        path = str(tmp_path / "not-a-dump.npz")
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ValueError, match="dump"):
            EmbeddingCache(capacity=4).load(path)

    def test_dump_empty_cache(self, tmp_path):
        path = str(tmp_path / "empty.npz")
        assert EmbeddingCache(capacity=4).dump(path) == 0
        fresh = EmbeddingCache(capacity=4)
        assert fresh.load(path) == 0
        assert len(fresh) == 0


class TestServingStats:
    def test_counters_and_percentiles(self):
        stats = ServingStats(latency_window=16)
        for latency in (0.01, 0.02, 0.03, 0.04):
            stats.record_request(latency, cache_hit=latency > 0.02)
        stats.record_batch(2)
        stats.record_batch(2)
        snapshot = stats.snapshot()
        assert snapshot["total_requests"] == 4
        assert snapshot["cache_hits"] == 2
        assert snapshot["cache_hit_rate"] == 0.5
        assert snapshot["batch_histogram"] == {2: 2}
        assert snapshot["mean_batch_size"] == 2.0
        assert 0.01 <= snapshot["latency_p50_s"] <= 0.04
        assert snapshot["latency_p95_s"] >= snapshot["latency_p50_s"]
        assert snapshot["qps"] > 0

    def test_snapshot_is_internally_consistent_mid_burst(self):
        # Every recorded request is a cache hit, so in any *consistent* view
        # hits == requests; a snapshot whose counters are read at different
        # times (the old unlocked reads) could observe hits > requests.
        stats = ServingStats()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                stats.record_request(0.0001, cache_hit=True)
                stats.record_batch(2)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(300):
                snapshot = stats.snapshot()
                assert snapshot["cache_hits"] == snapshot["total_requests"]
                total = snapshot["total_requests"]
                assert snapshot["cache_hit_rate"] == (1.0 if total else 0.0)
                assert snapshot["total_batches"] * 2 == sum(
                    size * count for size, count in snapshot["batch_histogram"].items()
                )
        finally:
            stop.set()
            thread.join(timeout=10)


# ----------------------------------------------------------------- batcher


def pooled_queue(runner, workers=1, **knobs):
    """A fresh one-queue pool: ``(pool, queue)``; tests close the pool."""
    pool = BatcherWorkerPool(workers=workers)
    return pool, pool.batcher_factory(runner, **knobs)


class TestPooledBatcher:
    def test_batches_respect_max_size_and_order(self):
        batches = []

        def runner(items):
            batches.append(len(items))
            return [item * 10 for item in items]

        pool, batcher = pooled_queue(runner, max_batch_size=4, max_wait_s=0.01)
        futures = [batcher.submit(i) for i in range(10)]
        with pool, batcher:
            results = [future.result(timeout=5) for future in futures]
        assert results == [i * 10 for i in range(10)]
        assert batches[0] == 4  # pre-start queue drains in full batches
        assert sum(batches) == 10
        assert all(size <= 4 for size in batches)

    def test_runner_exception_propagates(self):
        def runner(items):
            raise RuntimeError("boom")

        pool, batcher = pooled_queue(runner, max_batch_size=2, max_wait_s=0.001)
        with pool, batcher:
            future = batcher.submit(1)
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=5)

    def test_submit_after_close_rejected(self):
        pool, batcher = pooled_queue(lambda items: items, max_batch_size=2)
        with pool:
            batcher.start()
            batcher.close()
            with pytest.raises(RuntimeError):
                batcher.submit(1)

    def test_close_without_start_fails_queued_futures(self):
        pool, batcher = pooled_queue(lambda items: items, max_batch_size=2)
        future = batcher.submit(1)
        batcher.close()
        with pytest.raises(RuntimeError, match="before start"):
            future.result(timeout=5)
        pool.close()

    def test_started_close_drains_queue(self):
        import time as time_module

        def slow_runner(items):
            time_module.sleep(0.02)
            return items

        pool, batcher = pooled_queue(slow_runner, max_batch_size=1, max_wait_s=0.0)
        futures = [batcher.submit(i) for i in range(4)]
        batcher.start()
        # Even with a close timeout shorter than the drain, queued futures
        # must be served by the live worker, not failed spuriously.
        batcher.close(timeout=0.01)
        assert [future.result(timeout=5) for future in futures] == [0, 1, 2, 3]
        pool.close()

    def test_cancelled_future_does_not_kill_the_batcher(self):
        pool, batcher = pooled_queue(
            lambda items: [i * 10 for i in items], max_batch_size=4
        )
        doomed = batcher.submit(1)
        assert doomed.cancel()  # cancelled while queued, before start
        survivor = batcher.submit(2)
        with pool, batcher:
            # The worker must skip the cancelled future and keep serving.
            assert survivor.result(timeout=5) == 20
            late = batcher.submit(3)
            assert late.result(timeout=5) == 30

    def test_result_count_mismatch_is_an_error(self):
        pool, batcher = pooled_queue(lambda items: [], max_batch_size=2, max_wait_s=0.001)
        with pool, batcher:
            future = batcher.submit(1)
            with pytest.raises(RuntimeError, match="results"):
                future.result(timeout=5)

    def test_close_while_batch_mid_flight_serves_everything(self):
        # close() arriving while the runner is inside a batch must neither
        # drop that batch nor the requests queued behind it.
        started = threading.Event()
        release = threading.Event()

        def runner(items):
            started.set()
            release.wait(timeout=10)
            return items

        pool, batcher = pooled_queue(runner, max_batch_size=1, max_wait_s=0.0)
        batcher.start()
        in_flight = batcher.submit("in-flight")
        assert started.wait(timeout=10)
        queued = batcher.submit("queued")
        closer = threading.Thread(target=batcher.close)
        closer.start()
        release.set()
        assert in_flight.result(timeout=10) == "in-flight"
        assert queued.result(timeout=10) == "queued"
        closer.join(timeout=10)
        assert not closer.is_alive()
        with pytest.raises(RuntimeError):
            batcher.submit("too late")
        pool.close()

    def test_cancelled_future_in_mixed_batch_is_skipped(self):
        batches = []

        def runner(items):
            batches.append(list(items))
            return [item * 10 for item in items]

        pool, batcher = pooled_queue(runner, max_batch_size=4)
        keep_first = batcher.submit(1)
        doomed = batcher.submit(2)
        keep_second = batcher.submit(3)
        assert doomed.cancel()
        with pool, batcher:
            # The live neighbours of a cancelled future still get answers,
            # mapped to the right items.
            assert keep_first.result(timeout=5) == 10
            assert keep_second.result(timeout=5) == 30
        assert all(2 not in batch for batch in batches)
        assert doomed.cancelled()

    def test_restart_after_close_is_rejected(self):
        pool, batcher = pooled_queue(lambda items: items, max_batch_size=2)
        with pool:
            with batcher:
                pass
            with pytest.raises(RuntimeError, match="closed"):
                batcher.start()


class TestPooledBatcherScheduling:
    def test_workers_and_fanout_validated(self):
        with pytest.raises(ValueError, match="workers"):
            BatcherWorkerPool(workers=0)
        with pytest.raises(ValueError, match="fanout"):
            pooled_queue(lambda items: items, fanout=0)

    def test_multiple_workers_drain_concurrently(self):
        """With a reentrant runner, two workers genuinely overlap batches —
        the second batch completes while the first is still in flight."""
        import time as _time

        in_flight = []
        overlap_seen = threading.Event()
        lock = threading.Lock()

        def runner(items):
            with lock:
                in_flight.append(1)
                if len(in_flight) > 1:
                    overlap_seen.set()
            _time.sleep(0.05)
            with lock:
                in_flight.pop()
            return [item * 2 for item in items]

        pool, batcher = pooled_queue(runner, workers=2, max_batch_size=1, max_wait_s=0.0)
        with pool, batcher:
            futures = [batcher.submit(i) for i in range(6)]
            results = [future.result(timeout=10) for future in futures]
        assert results == [0, 2, 4, 6, 8, 10]
        assert overlap_seen.is_set()

    def test_telemetry_reports_fanout_and_dispatches(self):
        pool, batcher = pooled_queue(lambda items: items, max_batch_size=4, fanout=5)
        telemetry = batcher.telemetry()
        assert telemetry["fanout"] == 5
        assert telemetry["batches_dispatched"] == 0
        with pool, batcher:
            futures = [batcher.submit(i) for i in range(4)]
            [future.result(timeout=10) for future in futures]
            telemetry = batcher.telemetry()
        assert telemetry["batches_dispatched"] >= 1
        assert telemetry["items_dispatched"] == 4

    def test_multi_worker_close_drains_everything(self):
        processed = []

        def runner(items):
            processed.extend(items)
            return items

        pool, batcher = pooled_queue(runner, workers=3, max_batch_size=2)
        batcher.start()
        futures = [batcher.submit(i) for i in range(20)]
        batcher.close()
        for future in futures:
            assert future.done()
        assert sorted(processed) == list(range(20))
        pool.close()


# ----------------------------------------------------------------- service


def make_service(
    predictor,
    max_batch_size=32,
    max_delay_s=0.02,
    enable_cache=True,
    cache=None,
    **knobs,
):
    """A standalone service with its own 64-entry cache (unless disabled
    or handed one); ``knobs`` go to the constructor (``pool``, ...)."""
    if cache is None and enable_cache:
        cache = EmbeddingCache(64)
    return PredictionService(
        model=predictor.model,
        encoder=predictor.encoder,
        batching=BatchingConfig(max_batch_size=max_batch_size, max_delay_s=max_delay_s),
        cache=cache,
        **knobs,
    )


def adopted_into_hub(predictor, **hub_knobs):
    """A one-deployment hub serving a hand-built service over the hub's
    cache (warmed from ``warmup_path``, best-effort) and pool."""
    hub = ModelHub(**hub_knobs)
    service = make_service(predictor, cache=hub.cache, pool=hub.pool)
    hub.adopt("default", service)
    return hub, service


class TestPredictionService:
    def test_service_config_validates_knobs(self, predictor):
        for bad in (
            dict(max_batch_size=0),
            dict(max_batch_size=-1),
            dict(max_delay_s=-0.1),
        ):
            with pytest.raises(ValueError):
                BatchingConfig(**bad)
        with pytest.raises(ValueError):
            EmbeddingCache(0)
        with pytest.raises(ValueError):
            make_service(predictor, latency_window=0)
        with pytest.raises(ValueError):
            BatcherWorkerPool(workers=0)

    def test_micro_batched_identical_to_per_request(self, predictor, sample_graphs):
        service = make_service(predictor, enable_cache=False)
        batched = service.predict_many(sample_graphs)
        singles = [service.predict(graph) for graph in sample_graphs]
        for one, many in zip(singles, batched):
            assert one.label == many.label
            assert np.allclose(one.probabilities, many.probabilities)
            assert np.allclose(one.graph_vector, many.graph_vector)
            assert one.fingerprint == many.fingerprint

    def test_cache_hit_on_repeat(self, predictor, sample_graphs):
        service = make_service(predictor)
        first = service.predict(sample_graphs[0])
        second = service.predict(sample_graphs[0])
        assert not first.cache_hit
        assert second.cache_hit
        assert second.label == first.label
        assert np.array_equal(second.probabilities, first.probabilities)
        assert np.array_equal(second.graph_vector, first.graph_vector)
        assert service.cache.hits == 1
        assert service.stats.cache_hit_rate == 0.5
        # The hit did not trigger another forward pass.
        assert service.stats.total_batches == 1

    def test_duplicates_within_one_call_share_one_forward(self, predictor, sample_graphs):
        service = make_service(predictor, enable_cache=False)
        graph = sample_graphs[0]
        results = service.predict_many([graph, graph, graph])
        assert service.stats.total_batches == 1
        assert service.stats.batch_histogram == {1: 1}
        assert len({result.label for result in results}) == 1
        assert np.array_equal(results[0].probabilities, results[2].probabilities)

    def test_duplicates_do_not_inflate_cache_misses(self, predictor, sample_graphs):
        service = make_service(predictor)
        graph = sample_graphs[0]
        service.predict_many([graph, graph, graph])
        # One real miss; the two duplicates piggyback on the pending forward.
        assert service.cache.misses == 1
        assert service.predict(graph).cache_hit
        assert service.cache.hit_rate == 0.5

    def test_chunks_respect_max_batch_size(self, predictor, sample_graphs):
        service = make_service(predictor, enable_cache=False, max_batch_size=5)
        service.predict_many(sample_graphs)  # 12 distinct graphs -> 5 + 5 + 2
        assert service.stats.total_batches == 3
        assert service.stats.batch_histogram == {5: 2, 2: 1}

    def test_accepts_raw_program_graph(self, predictor, small_suite):
        service = make_service(predictor)
        program_graph = GraphBuilder().build_module(small_suite[0].module)
        encoded = predictor.encoder.encode(program_graph)
        result = service.predict(program_graph)
        assert result.fingerprint == graph_fingerprint(encoded)

    def test_rejects_unknown_request_type(self, predictor):
        service = make_service(predictor)
        with pytest.raises(TypeError):
            service.predict("not a graph")

    def test_no_label_space_means_no_configuration(self, predictor, sample_graphs):
        service = make_service(predictor)
        result = service.predict(sample_graphs[0])
        assert result.configuration is None
        assert result.needs_profiling is None

    def test_hybrid_and_label_space_attached(
        self, sample_graphs, label_space, fitted_hybrid
    ):
        matched = small_predictor(num_labels=label_space.num_labels)
        service = PredictionService(
            model=matched.model,
            encoder=matched.encoder,
            label_space=label_space,
            hybrid=fitted_hybrid,
        )
        result = service.predict(sample_graphs[0])
        assert result.configuration == label_space.configuration_of(result.label)
        assert isinstance(result.needs_profiling, bool)

    def test_mismatched_label_space_rejected_at_construction(self, label_space):
        # A head that emits more labels than the label space defines would
        # silently answer ``configuration=None``; it must fail loudly here.
        mismatched = small_predictor(num_labels=label_space.num_labels + 1)
        with pytest.raises(ValueError, match="label space"):
            PredictionService(
                model=mismatched.model,
                encoder=mismatched.encoder,
                label_space=label_space,
            )

    def test_cache_dump_and_warm_up_round_trip(self, predictor, sample_graphs, tmp_path):
        service = make_service(predictor)
        cold = service.predict_many(sample_graphs)
        path = str(tmp_path / "warm.npz")
        assert service.dump_cache(path) == len(service.cache)

        hub, _ = adopted_into_hub(predictor, cache_capacity=64, warmup_path=path)
        first = hub.predict(None, sample_graphs[0])
        # The very first request after a restart is already a hit ...
        assert first.cache_hit
        assert first.label == cold[0].label
        assert np.array_equal(first.probabilities, cold[0].probabilities)
        # ... and the explicit method does the same for a running service.
        fresh = make_service(predictor)
        assert fresh.warm_up(path) == len(sample_graphs)
        assert fresh.predict(sample_graphs[1]).cache_hit

    def test_missing_warmup_path_is_a_cold_start(self, predictor, sample_graphs, tmp_path):
        hub, _ = adopted_into_hub(
            predictor, cache_capacity=64, warmup_path=str(tmp_path / "absent.npz")
        )
        assert not hub.predict(None, sample_graphs[0]).cache_hit

    def test_warm_up_from_a_different_model_stays_cold(
        self, predictor, sample_graphs, tmp_path
    ):
        # Cache keys carry a weights digest: a dump from an old model
        # version must never replay its (stale) logits through a new one.
        old_service = make_service(predictor)
        old_results = old_service.predict_many(sample_graphs)
        path = str(tmp_path / "old-model.npz")
        old_service.dump_cache(path)

        retrained = small_predictor(seed=99)
        hub, _ = adopted_into_hub(retrained, cache_capacity=64, warmup_path=path)
        result = hub.predict(None, sample_graphs[0])
        assert not result.cache_hit
        assert not np.array_equal(result.probabilities, old_results[0].probabilities)

    def test_warm_up_requires_cache(self, predictor, tmp_path):
        service = make_service(predictor, enable_cache=False)
        with pytest.raises(RuntimeError, match="cache"):
            service.dump_cache(str(tmp_path / "warm.npz"))
        with pytest.raises(RuntimeError, match="cache"):
            service.warm_up(str(tmp_path / "warm.npz"))

    def test_submit_rejects_bad_type_before_batching(self, predictor, sample_graphs):
        # Invalid requests must fail at submit time instead of poisoning a
        # whole micro-batch of valid concurrent requests.
        service = make_service(predictor)
        with pytest.raises(TypeError):
            service.submit("not a graph")
        future = service.submit(sample_graphs[0])
        with service:
            assert future.result(timeout=10).name == sample_graphs[0].name

    def test_submit_after_stop_restarts_batcher(self, predictor, sample_graphs):
        service = make_service(predictor)
        with service:
            service.submit(sample_graphs[0]).result(timeout=10)
        # After stop(), a started service transparently restarts on demand
        # rather than queueing into a batcher that never runs.
        future = service.submit(sample_graphs[1])
        assert future.result(timeout=10).label == service.predict(sample_graphs[1]).label
        service.stop()

    def test_repeated_stop_restart_cycles(self, predictor, sample_graphs):
        # Each stop() closes the queue and its private pool for good; the
        # service must hand every later submit fresh ones, any number of
        # times.
        service = make_service(predictor)
        expected = service.predict(sample_graphs[0]).label
        service.start()
        for _ in range(3):
            future = service.submit(sample_graphs[0])
            assert future.result(timeout=10).label == expected
            service.stop()

    def test_async_submit_matches_sync_and_batches(self, predictor, sample_graphs):
        sync_service = make_service(predictor, enable_cache=False)
        expected = [result.label for result in sync_service.predict_many(sample_graphs)]

        service = make_service(predictor, enable_cache=False, max_delay_s=0.05)
        futures = [service.submit(graph) for graph in sample_graphs]
        with service:
            results = [future.result(timeout=10) for future in futures]
        assert [result.label for result in results] == expected
        # The pre-start queue was answered in one micro-batch.
        assert service.stats.total_batches == 1
        assert service.stats.batch_histogram == {len(sample_graphs): 1}


def _batcher_threads(exclude=()):
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-hub-batcher-") and thread not in exclude
    ]


class TestFrontendPool:
    """A standalone front-end drains its queue with a private one-worker
    pool that lives from the first start()/submit() to stop(); a hub
    deployment drains through the hub's shared pool, which its stop()
    must leave running."""

    def test_stop_joins_the_private_pool_threads(self, predictor, sample_graphs):
        before = set(threading.enumerate())
        service = make_service(predictor).start()
        service.submit(sample_graphs[0]).result(timeout=10)
        threads = _batcher_threads(exclude=before)
        assert len(threads) == 1  # one private worker
        service.stop()
        assert not any(thread.is_alive() for thread in threads)

    def test_submit_restarts_the_private_pool_on_demand(self, predictor, sample_graphs):
        service = make_service(predictor)
        expected = service.predict(sample_graphs[0]).label
        for cycle in range(3):
            before = set(threading.enumerate())
            if cycle == 0:
                service.start()  # later cycles restart from submit() alone
            assert service.submit(sample_graphs[0]).result(timeout=10).label == expected
            threads = _batcher_threads(exclude=before)
            assert threads and all(thread.is_alive() for thread in threads)
            service.stop()
            assert not any(thread.is_alive() for thread in threads)

    def test_deployment_stop_leaves_the_shared_pool_serving(
        self, predictor, sample_graphs
    ):
        hub = ModelHub(pool_workers=2)
        first = make_service(predictor, cache=hub.cache, pool=hub.pool)
        second = make_service(small_predictor(seed=5), cache=hub.cache, pool=hub.pool)
        hub.adopt("first", first)
        hub.adopt("second", second)
        with hub:
            hub.submit("first", sample_graphs[0]).result(timeout=10)
            threads = list(hub.pool._threads)
            first.stop()
            assert all(thread.is_alive() for thread in threads)
            result = hub.submit("second", sample_graphs[1]).result(timeout=10)
            assert result.label == second.predict(sample_graphs[1]).label
            assert hub.pool.telemetry()["members"] == 1
        assert not any(thread.is_alive() for thread in threads)


class TestLockFreeConcurrency:
    """Inference is stateless (no forward locks) — concurrent callers must
    get exactly the answers a sequential caller gets."""

    def test_two_threads_predict_many_simultaneously(self, predictor, sample_graphs):
        service = make_service(predictor, enable_cache=False)
        expected = service.predict_many(sample_graphs)
        errors = []
        barrier = threading.Barrier(2)

        def worker():
            try:
                barrier.wait(timeout=5)
                for _ in range(5):
                    results = service.predict_many(sample_graphs)
                    for got, want in zip(results, expected):
                        assert got.label == want.label
                        assert np.array_equal(got.probabilities, want.probabilities)
                        assert np.array_equal(got.graph_vector, want.graph_vector)
            except Exception as exc:  # propagate to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors

    def test_two_threads_on_one_ensemble(self, exported_ensemble, sample_graphs):
        root, _ = exported_ensemble
        service = EnsemblePredictionService.from_registry(root, "ens")
        expected = service.predict_many(sample_graphs)
        errors = []
        barrier = threading.Barrier(2)

        def worker():
            try:
                barrier.wait(timeout=5)
                for _ in range(3):
                    results = service.predict_many(sample_graphs)
                    for got, want in zip(results, expected):
                        assert got.label == want.label
                        assert got.per_fold_labels == want.per_fold_labels
                        assert np.array_equal(got.probabilities, want.probabilities)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors

    def test_services_carry_no_forward_lock(self, predictor):
        # The attribute is gone, not just unused: nothing in the serving
        # layer may serialise engine forwards again.
        service = make_service(predictor)
        assert not hasattr(service, "_forward_lock")

    def test_multi_worker_batcher_end_to_end(self, predictor, sample_graphs):
        sync = make_service(predictor, enable_cache=False)
        expected = [result.label for result in sync.predict_many(sample_graphs)]
        with BatcherWorkerPool(workers=2) as pool:
            service = make_service(predictor, enable_cache=False, pool=pool)
            futures = [service.submit(graph) for graph in sample_graphs]
            with service:
                results = [future.result(timeout=30) for future in futures]
        assert [result.label for result in results] == expected


# ---------------------------------------------------------------- ensemble


class TestCombinationStrategies:
    def test_mean_softmax_takes_argmax_of_mean(self):
        stacked = np.array([[10.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        label, probabilities = combine_mean_softmax(stacked)
        assert label == 0
        assert probabilities.shape == (3,)
        assert abs(probabilities.sum() - 1.0) < 1e-12
        assert probabilities[0] > probabilities[1] > probabilities[2]

    def test_majority_vote_counts_fold_argmaxes(self):
        stacked = np.array([[10.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        label, shares = combine_majority_vote(stacked)
        assert label == 0
        assert np.allclose(shares, [2 / 3, 1 / 3])

    def test_majority_vote_tie_breaks_on_mean_probability(self):
        # One vote each, but fold 0 is far more confident about label 1.
        stacked = np.array([[0.0, 5.0], [4.0, 0.0]])
        label, shares = combine_majority_vote(stacked)
        assert label == 1
        assert np.allclose(shares, [0.5, 0.5])

    def test_majority_vote_exact_tie_falls_to_lower_label(self):
        stacked = np.array([[0.0, 10.0], [10.0, 0.0]])
        label, _ = combine_majority_vote(stacked)
        assert label == 0

    def test_config_validates_strategy(self, exported_ensemble):
        root, _ = exported_ensemble
        with pytest.raises(ValueError, match="strategy"):
            EnsemblePredictionService.from_registry(root, "ens", strategy="median")
        with pytest.raises(ValueError):
            BatchingConfig(max_delay_s=-1.0)
        with pytest.raises(ValueError):
            EnsemblePredictionService.from_registry(root, "ens", latency_window=0)


@pytest.fixture(scope="module")
def exported_ensemble(tiny_pipeline, tiny_evaluation, tmp_path_factory):
    """All tiny-evaluation folds exported under one ensemble base name."""
    root = str(tmp_path_factory.mktemp("ensemble-registry"))
    refs = tiny_pipeline.export_artifacts(tiny_evaluation, root, name="ens")
    return root, refs


class TestEnsemblePredictionService:
    def test_discovers_every_exported_fold(self, exported_ensemble, tiny_evaluation):
        root, refs = exported_ensemble
        assert len(refs) >= 3
        registry = ArtifactRegistry(root)
        members = registry.fold_members("ens")
        assert sorted(members) == sorted(fold.fold for fold in tiny_evaluation.folds)
        service = EnsemblePredictionService.from_registry(root, "ens")
        assert service.num_members == len(refs)

    def test_deterministic_under_both_strategies(self, exported_ensemble, sample_graphs):
        root, _ = exported_ensemble
        for strategy in ("mean-softmax", "majority-vote"):
            first = EnsemblePredictionService.from_registry(
                root, "ens", strategy=strategy, cache=EmbeddingCache(64)
            )
            second = EnsemblePredictionService.from_registry(
                root, "ens", strategy=strategy, cache=EmbeddingCache(64)
            )
            results_a = first.predict_many(sample_graphs)
            results_b = second.predict_many(sample_graphs)
            assert [r.label for r in results_a] == [r.label for r in results_b]
            for a, b in zip(results_a, results_b):
                assert np.array_equal(a.probabilities, b.probabilities)
                assert a.per_fold_labels == b.per_fold_labels
            # Re-answering through the same (now cache-hot) service agrees too.
            replay = first.predict_many(sample_graphs)
            assert [r.label for r in replay] == [r.label for r in results_a]
            assert all(r.cache_hit for r in replay)

    def test_results_report_fold_agreement(self, exported_ensemble, sample_graphs):
        root, refs = exported_ensemble
        service = EnsemblePredictionService.from_registry(root, "ens")
        for result in service.predict_many(sample_graphs):
            assert set(result.per_fold_labels) == set(service.members)
            votes = sum(
                1 for label in result.per_fold_labels.values() if label == result.label
            )
            assert result.agreement == pytest.approx(votes / len(refs))
            assert 0.0 <= result.agreement <= 1.0
            assert result.unanimous == (
                len(set(result.per_fold_labels.values())) == 1
            )
            assert abs(result.probabilities.sum() - 1.0) < 1e-9

    def test_majority_label_has_plurality(self, exported_ensemble, sample_graphs):
        root, _ = exported_ensemble
        service = EnsemblePredictionService.from_registry(
            root, "ens", strategy="majority-vote"
        )
        for result in service.predict_many(sample_graphs):
            counts = {}
            for label in result.per_fold_labels.values():
                counts[label] = counts.get(label, 0) + 1
            assert counts[result.label] == max(counts.values())

    def test_configuration_and_profiling_mapping(
        self, exported_ensemble, sample_graphs, tiny_evaluation
    ):
        root, _ = exported_ensemble
        service = EnsemblePredictionService.from_registry(root, "ens")
        result = service.predict(sample_graphs[0])
        expected = tiny_evaluation.label_space.configuration_of(result.label)
        assert result.configuration == expected
        assert isinstance(result.needs_profiling, bool)

    def test_profiling_vote_is_each_requests_member_majority(
        self, exported_ensemble, sample_graphs
    ):
        # The vote runs once per member over the whole call; it must equal
        # the majority of the members' own classifiers on each request.
        root, _ = exported_ensemble
        service = EnsemblePredictionService.from_registry(
            root, "ens"
        )
        members = list(service.members.values())
        assert all(member.hybrid is not None for member in members)
        results = service.predict_many(sample_graphs)
        for graph, result in zip(sample_graphs, results):
            plan = build_plan(collate([graph]))
            votes = sum(
                bool(member.hybrid.needs_dynamic(member.model.infer(plan)[1])[0])
                for member in members
            )
            assert result.needs_profiling == (votes * 2 >= len(members))

    def test_shared_cache_is_keyed_by_version_set(self, exported_ensemble, sample_graphs):
        root, _ = exported_ensemble
        shared = EmbeddingCache(capacity=64)
        full = EnsemblePredictionService.from_registry(root, "ens", cache=shared)
        members = sorted(ArtifactRegistry(root).fold_members("ens"))
        subset = EnsemblePredictionService.from_registry(
            root, "ens", folds=members[:2], cache=shared
        )
        assert not full.predict(sample_graphs[0]).cache_hit
        # Same request, same shared cache — but a different model-version
        # set must never replay the other ensemble's logits.
        assert not subset.predict(sample_graphs[0]).cache_hit
        assert full.predict(sample_graphs[0]).cache_hit
        assert subset.predict(sample_graphs[0]).cache_hit

    def test_subset_selection_and_missing_folds(self, exported_ensemble):
        root, _ = exported_ensemble
        members = sorted(ArtifactRegistry(root).fold_members("ens"))
        service = EnsemblePredictionService.from_registry(root, "ens", folds=members[:1])
        assert service.num_members == 1
        with pytest.raises(ArtifactNotFoundError):
            EnsemblePredictionService.from_registry(root, "ens", folds=[99])
        with pytest.raises(ArtifactNotFoundError):
            EnsemblePredictionService.from_registry(root, "no-such-base")

    def test_warm_start_round_trip(self, exported_ensemble, sample_graphs, tmp_path):
        root, _ = exported_ensemble
        cold = EnsemblePredictionService.from_registry(
            root, "ens", cache=EmbeddingCache(64)
        )
        cold_results = cold.predict_many(sample_graphs)
        path = str(tmp_path / "ensemble-warm.npz")
        assert cold.dump_cache(path) == len(sample_graphs)

        hub = ModelHub(root)
        hub.load(DeploymentSpec(name="ens", fold_group="ens", warmup_path=path))
        first = hub.predict("ens", sample_graphs[0])
        assert first.cache_hit
        assert first.label == cold_results[0].label
        assert np.array_equal(first.probabilities, cold_results[0].probabilities)
        assert first.per_fold_labels == cold_results[0].per_fold_labels

    def test_async_submit_matches_sync(self, exported_ensemble, sample_graphs):
        root, _ = exported_ensemble
        sync = EnsemblePredictionService.from_registry(root, "ens")
        expected = [result.label for result in sync.predict_many(sample_graphs)]
        service = EnsemblePredictionService.from_registry(root, "ens")
        futures = [service.submit(graph) for graph in sample_graphs]
        with service:
            results = [future.result(timeout=30) for future in futures]
        assert [result.label for result in results] == expected

    def test_snapshot_describes_the_ensemble(self, exported_ensemble, sample_graphs):
        root, refs = exported_ensemble
        service = EnsemblePredictionService.from_registry(
            root, "ens", cache=EmbeddingCache(64)
        )
        service.predict_many(sample_graphs)
        snapshot = service.snapshot()
        assert snapshot["strategy"] == "mean-softmax"
        assert snapshot["num_members"] == len(refs)
        assert len(snapshot["members"]) == len(refs)
        assert snapshot["total_requests"] == len(sample_graphs)
        # One fold-stacked engine sweep answers every member per chunk.
        assert snapshot["total_batches"] == 1
        assert snapshot["fold_stacked"] is True
        engine = snapshot["engine"]
        assert engine["plans_built"] == 1
        assert engine["stacked_forwards"] == 1
        assert engine["fanned_folds"] == len(refs)
        assert engine["mean_fold_fanout"] == float(len(refs))
        assert snapshot["cache"]["size"] == float(len(sample_graphs))

    def test_heterogeneous_members_fall_back_to_per_fold_engine(
        self, tmp_path, sample_graphs
    ):
        """Members that share vocabulary and head size but differ in an
        architecture knob cannot stack; the ensemble must still serve them
        (per-fold engine loop over the shared plan), just without the
        fold-stacked fast path."""
        registry = ArtifactRegistry(tmp_path)
        registry.save("mixed-fold0", small_predictor(seed=1))
        wider = StaticConfigurationPredictor(
            num_labels=NUM_LABELS,
            encoder=GraphEncoder(),
            config=StaticModelConfig(
                hidden_dim=12, graph_vector_dim=8, num_rgcn_layers=1, epochs=1, seed=2
            ),
        )
        registry.save("mixed-fold1", wider)
        service = EnsemblePredictionService.from_registry(str(tmp_path), "mixed")
        assert service._stacked is None
        assert service.describe()["fold_stacked"] is False
        result = service.predict(sample_graphs[0])
        assert len(result.per_fold_labels) == 2
        snapshot = service.snapshot()
        assert snapshot["engine"]["stacked_forwards"] == 0
        assert snapshot["engine"]["fanned_folds"] == 2

    def test_mismatched_members_rejected(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        registry.save("bad-fold0", small_predictor(num_labels=4))
        registry.save("bad-fold1", small_predictor(num_labels=5))
        with pytest.raises(ValueError, match="label"):
            EnsemblePredictionService.from_registry(str(tmp_path), "bad")

    def test_conflicting_label_spaces_rejected(self, tmp_path, label_space):
        from repro.core import LabelSpace

        # Same size, same machine — but label index i means a different
        # configuration. Combining these would be silently wrong.
        permuted = LabelSpace(
            configurations=list(reversed(label_space.configurations)),
            machine_name=label_space.machine_name,
        )
        registry = ArtifactRegistry(tmp_path)
        matched = small_predictor(num_labels=label_space.num_labels)
        registry.save("twist-fold0", matched, label_space=label_space)
        registry.save("twist-fold1", matched, label_space=permuted)
        with pytest.raises(ValueError, match="conflicting label spaces"):
            EnsemblePredictionService.from_registry(str(tmp_path), "twist")

    def test_empty_membership_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            EnsemblePredictionService({})


# -------------------------------------------------------------- end-to-end


class TestEndToEnd:
    def test_train_export_reload_serve(self, tiny_pipeline, tiny_evaluation, tmp_path):
        """Acceptance: train -> export -> reload -> identical predictions."""
        refs = tiny_pipeline.export_artifacts(tiny_evaluation, tmp_path, name="e2e")
        assert len(refs) == len(tiny_evaluation.folds)
        registry = ArtifactRegistry(tmp_path)

        for fold, ref in zip(tiny_evaluation.folds, refs):
            registry.verify(ref.name)
            samples = tiny_pipeline.region_samples(
                fold.validation_regions, fold.explored_sequence
            )
            graphs = [sample.graph for sample in samples]
            if not graphs:
                continue
            in_memory = fold.predictor.predict_label_for_graphs(graphs)

            service = PredictionService.from_registry(
                tmp_path, ref.name, cache=EmbeddingCache(1024)
            )
            served = service.predict_many(graphs)
            assert np.array_equal(in_memory, np.array([r.label for r in served]))
            # Per-request path agrees with the micro-batched path.
            service.cache.clear()
            singles = [service.predict(graph) for graph in graphs]
            assert [r.label for r in singles] == [r.label for r in served]
            # The exported label space maps labels onto real configurations.
            for result in served:
                expected = tiny_evaluation.label_space.configuration_of(result.label)
                assert result.configuration == expected

    def test_exported_metadata_describes_fold(self, tiny_pipeline, tiny_evaluation, tmp_path):
        refs = tiny_pipeline.export_artifacts(
            tiny_evaluation, tmp_path, name="meta", folds=[tiny_evaluation.folds[0].fold]
        )
        assert len(refs) == 1
        artifact = ArtifactRegistry(tmp_path).load(refs[0].name)
        metadata = artifact.manifest["metadata"]
        fold = tiny_evaluation.folds[0]
        assert metadata["machine"] == tiny_evaluation.machine_name
        assert metadata["fold"] == fold.fold
        assert metadata["explored_sequence"] == fold.explored_sequence
        assert set(metadata["validation_regions"]) == set(fold.validation_regions)

    def test_exported_metadata_describes_ensemble_membership(
        self, tiny_pipeline, tiny_evaluation, tmp_path
    ):
        refs = tiny_pipeline.export_artifacts(tiny_evaluation, tmp_path, name="memb")
        registry = ArtifactRegistry(tmp_path)
        expected_names = [f"memb-fold{fold.fold}" for fold in tiny_evaluation.folds]
        for ref in refs:
            ensemble_meta = registry.load(ref.name).manifest["metadata"]["ensemble"]
            assert ensemble_meta["base"] == "memb"
            assert ensemble_meta["num_members"] == len(tiny_evaluation.folds)
            assert ensemble_meta["member_names"] == expected_names
        # A subset export still records the *full* roster, so incremental
        # exports under one base name never disagree about membership.
        only_first = tiny_pipeline.export_artifacts(
            tiny_evaluation, tmp_path, name="memb", folds=[tiny_evaluation.folds[0].fold]
        )
        assert len(only_first) == 1
        subset_meta = registry.load(only_first[0].name).manifest["metadata"]["ensemble"]
        assert subset_meta["member_names"] == expected_names
        assert subset_meta["num_members"] == len(tiny_evaluation.folds)
