"""Tests for the multi-model serving hub.

Covers the declarative :class:`DeploymentSpec` (validation + wire codec),
the shared :class:`BatcherWorkerPool`, :class:`ModelHub` runtime mutation
(load/unload/reload, aliases, default routing, the shared namespaced
cache), parity of hub-served answers with standalone services (bit-identical,
in-process and over HTTP — including one process serving a single-fold
model next to a 5-fold ensemble), and the
concurrency contract: load/unload/alias flips racing in-flight predicts
never 500 and never serve a torn deployment.
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.core import StaticConfigurationPredictor, StaticModelConfig
from repro.graphs import GraphBuilder, GraphEncoder
from repro.serving import (
    ArtifactNotFoundError,
    ArtifactRegistry,
    BatcherWorkerPool,
    BatchingConfig,
    Deployment,
    DeploymentExistsError,
    DeploymentNotFoundError,
    DeploymentSpec,
    DeploymentSpecError,
    EmbeddingCache,
    EnsemblePredictionService,
    HubError,
    ModelHub,
    PredictionHTTPServer,
    PredictionService,
    Predictor,
    ServingApp,
    deployment_spec_from_dict,
    deployment_spec_to_dict,
    program_graph_to_dict,
)

NUM_LABELS = 4
ENSEMBLE_FOLDS = 5


def small_predictor(seed=3):
    """A small (untrained — weights are deterministic) predictor."""
    return StaticConfigurationPredictor(
        num_labels=NUM_LABELS,
        encoder=GraphEncoder(),
        config=StaticModelConfig(
            hidden_dim=8, graph_vector_dim=8, num_rgcn_layers=1, epochs=1, seed=seed
        ),
    )


@pytest.fixture(scope="module")
def raw_graphs(small_suite):
    builder = GraphBuilder()
    return [builder.build_module(region.module) for region in small_suite][:6]


@pytest.fixture(scope="module")
def registry_root(tmp_path_factory):
    """A read-only module registry: 'demo' (two versions) + a 5-fold group."""
    root = tmp_path_factory.mktemp("hub-registry")
    registry = ArtifactRegistry(root)
    registry.save("demo", small_predictor(seed=1))  # v0001
    registry.save("demo", small_predictor(seed=2))  # v0002 (the latest)
    for fold in range(ENSEMBLE_FOLDS):
        registry.save(f"ens-fold{fold}", small_predictor(seed=10 + fold))
    return str(root)


def result_payloads(results, drop=("latency_s", "cache_hit")):
    """Wire-encode in-process results, minus the timing-dependent fields."""
    from repro.serving import result_to_dict

    encoded = []
    for result in results:
        payload = result_to_dict(result)
        for key in drop:
            payload.pop(key, None)
        encoded.append(payload)
    return encoded


def strip(payload, drop=("latency_s", "cache_hit")):
    return {key: value for key, value in payload.items() if key not in drop}


def _request(server, method, path, payload=None, raw_body=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = raw_body
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


# ---------------------------------------------------------- deployment spec


class TestDeploymentSpec:
    def test_single_and_ensemble_kinds(self):
        single = DeploymentSpec(name="m", artifact="demo", version="v0001")
        assert (single.kind, single.target) == ("single", "demo")
        ensemble = DeploymentSpec(name="e", fold_group="ens", strategy="majority-vote")
        assert (ensemble.kind, ensemble.target) == ("ensemble", "ens")

    def test_exactly_one_target_required(self):
        with pytest.raises(DeploymentSpecError, match="exactly one"):
            DeploymentSpec(name="m")
        with pytest.raises(DeploymentSpecError, match="exactly one"):
            DeploymentSpec(name="m", artifact="a", fold_group="b")

    def test_latest_normalises_to_none(self):
        assert DeploymentSpec(name="m", artifact="a", version="latest").version is None

    def test_bad_version_pin_rejected(self):
        with pytest.raises(DeploymentSpecError, match="version pin"):
            DeploymentSpec(name="m", artifact="a", version="1.2.3")

    def test_version_pin_on_ensemble_rejected(self):
        with pytest.raises(DeploymentSpecError, match="version"):
            DeploymentSpec(name="m", fold_group="ens", version="v0001")

    def test_folds_only_for_ensembles(self):
        with pytest.raises(DeploymentSpecError, match="folds"):
            DeploymentSpec(name="m", artifact="a", folds=(0, 1))

    def test_url_hostile_names_rejected(self):
        for name in ("", "a/b", ".hidden", "-flag", "a b", "a" * 200):
            with pytest.raises(DeploymentSpecError, match="name"):
                DeploymentSpec(name=name, artifact="a")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(DeploymentSpecError, match="strategy"):
            DeploymentSpec(name="m", fold_group="ens", strategy="coin-flip")

    def test_knob_validation_names_the_knob(self):
        # One validation path: the spec's blocks and knobs raise the
        # spec's own error, naming the knob.
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchingConfig(max_batch_size=0)
        with pytest.raises(DeploymentSpecError, match="max_batch_size"):
            deployment_spec_from_dict(
                {"name": "m", "artifact": "a", "batching": {"max_batch_size": 0}}
            )
        with pytest.raises(DeploymentSpecError, match="latency_window"):
            DeploymentSpec(name="m", artifact="a", latency_window=0)

    def test_wire_round_trip(self):
        spec = DeploymentSpec(
            name="e", fold_group="ens", strategy="majority-vote", folds=(0, 2)
        )
        assert deployment_spec_from_dict(deployment_spec_to_dict(spec)) == spec

    def test_wire_unknown_field_rejected(self):
        with pytest.raises(DeploymentSpecError, match="unknown field"):
            deployment_spec_from_dict({"name": "m", "artifact": "a", "nope": 1})

    def test_wire_name_from_path_cross_checked(self):
        data = {"artifact": "a"}
        assert deployment_spec_from_dict(data, name="m").name == "m"
        with pytest.raises(DeploymentSpecError, match="addressed"):
            deployment_spec_from_dict({"name": "other", "artifact": "a"}, name="m")

    def test_wire_non_object_rejected(self):
        with pytest.raises(DeploymentSpecError, match="object"):
            deployment_spec_from_dict([1, 2])

    def test_both_frontends_satisfy_the_predictor_protocol(self):
        service = PredictionService(
            model=small_predictor().model, encoder=GraphEncoder()
        )
        assert isinstance(service, Predictor)


# ------------------------------------------------------- shared batcher pool


class TestBatcherWorkerPool:
    def test_one_pool_drains_many_queues(self):
        pool = BatcherWorkerPool(workers=2)
        seen = {"a": [], "b": []}

        def runner(key):
            def run(items):
                seen[key].append(len(items))
                return [f"{key}:{item}" for item in items]

            return run

        with pool:
            qa = pool.batcher_factory(runner("a"), max_batch_size=8, max_wait_s=0.005)
            qb = pool.batcher_factory(runner("b"), max_batch_size=8, max_wait_s=0.005)
            qa.start()
            qb.start()
            futures = [qa.submit(i) for i in range(4)] + [qb.submit(i) for i in range(3)]
            results = [future.result(timeout=5) for future in futures]
        assert results == ["a:0", "a:1", "a:2", "a:3", "b:0", "b:1", "b:2"]
        telemetry = pool.telemetry()
        assert telemetry["items_dispatched"] == 7
        assert telemetry["workers"] == 2

    def test_submits_before_start_form_one_batch(self):
        pool = BatcherWorkerPool(workers=1)
        batches = []

        def runner(items):
            batches.append(len(items))
            return list(items)

        queue = pool.batcher_factory(runner, max_batch_size=16, max_wait_s=0.0)
        futures = [queue.submit(i) for i in range(5)]
        time.sleep(0.02)  # nothing drains before start()
        assert not batches
        queue.start()
        assert [future.result(timeout=5) for future in futures] == list(range(5))
        assert batches == [5]
        pool.close()

    def test_max_batch_size_splits_dispatch(self):
        pool = BatcherWorkerPool(workers=1)
        batches = []

        def runner(items):
            batches.append(len(items))
            return list(items)

        queue = pool.batcher_factory(runner, max_batch_size=2, max_wait_s=0.0)
        futures = [queue.submit(i) for i in range(5)]
        queue.start()
        for future in futures:
            future.result(timeout=5)
        assert sorted(batches, reverse=True) == [2, 2, 1]
        pool.close()

    def test_runner_error_propagates_to_the_batch(self):
        pool = BatcherWorkerPool(workers=1)

        def runner(items):
            raise RuntimeError("boom")

        with pool:
            queue = pool.batcher_factory(runner, max_wait_s=0.0).start()
            future = queue.submit(1)
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=5)

    def test_close_drains_queued_work(self):
        pool = BatcherWorkerPool(workers=1)
        queue = pool.batcher_factory(lambda items: list(items), max_batch_size=64, max_wait_s=5.0)
        queue.start()
        futures = [queue.submit(i) for i in range(3)]
        queue.close()  # skips the 5s batching window: closing = dispatchable
        assert [future.result(timeout=1) for future in futures] == [0, 1, 2]
        pool.close()

    def test_close_before_start_fails_pending_futures(self):
        pool = BatcherWorkerPool(workers=1)
        queue = pool.batcher_factory(lambda items: list(items))
        future = queue.submit(1)
        queue.close()
        with pytest.raises(RuntimeError, match="closed before start"):
            future.result(timeout=1)
        with pytest.raises(RuntimeError):
            queue.submit(2)
        pool.close()

    def test_pool_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            BatcherWorkerPool(workers=0)

    def test_pool_reopens_after_a_completed_close(self):
        pool = BatcherWorkerPool(workers=1)
        first = pool.batcher_factory(lambda items: list(items), max_wait_s=0.0).start()
        assert first.submit(1).result(timeout=5) == 1
        pool.close()
        # A fully-closed pool reopens on the next registration (a stopped
        # hub can start again; post-stop submits restart on demand).
        second = pool.batcher_factory(lambda items: list(items), max_wait_s=0.0).start()
        assert second.submit(2).result(timeout=5) == 2
        pool.close()

    def test_timed_out_close_still_resolves_queued_futures(self):
        pool = BatcherWorkerPool(workers=1)
        release = threading.Event()

        def runner(items):
            release.wait(5)
            return list(items)

        queue = pool.batcher_factory(runner, max_batch_size=1, max_wait_s=0.0).start()
        first = queue.submit(1)  # occupies the only worker until released
        time.sleep(0.05)
        second = queue.submit(2)  # still queued when close() times out
        queue.close(timeout=0.05)
        release.set()
        # The member stayed registered, so the pool drains the leftover
        # item instead of stranding its future forever.
        assert first.result(timeout=5) == 1
        assert second.result(timeout=5) == 2
        pool.close()


# ----------------------------------------------------------------- the hub


class TestModelHub:
    def make_hub(self, registry_root, **overrides):
        defaults = dict(cache_capacity=256, pool_workers=1)
        defaults.update(overrides)
        return ModelHub(registry_root, **defaults)

    def test_load_single_and_ensemble(self, registry_root, raw_graphs):
        hub = self.make_hub(registry_root)
        hub.load(DeploymentSpec(name="demo", artifact="demo"))
        hub.load(DeploymentSpec(name="ens", fold_group="ens"))
        assert hub.names() == ["demo", "ens"]
        assert len(hub) == 2
        single = hub.predict("demo", raw_graphs[0])
        assert 0 <= single.label < NUM_LABELS
        combined = hub.predict("ens", raw_graphs[0])
        assert len(combined.per_fold_labels) == ENSEMBLE_FOLDS
        # Served from the registry's latest version.
        describe = hub.resolve("demo").describe()
        assert describe["serving"]["artifact"] == "demo@v0002"
        hub.stop()

    def test_version_pin(self, registry_root):
        hub = self.make_hub(registry_root)
        hub.load(DeploymentSpec(name="old", artifact="demo", version="v0001"))
        assert hub.resolve("old").describe()["serving"]["artifact"] == "demo@v0001"
        hub.stop()

    def test_duplicate_name_rejected_unless_replaced(self, registry_root):
        hub = self.make_hub(registry_root)
        hub.load(DeploymentSpec(name="m", artifact="demo"))
        with pytest.raises(DeploymentExistsError):
            hub.load(DeploymentSpec(name="m", artifact="demo"))
        replacement = hub.load(
            DeploymentSpec(name="m", artifact="demo", version="v0001"), replace=True
        )
        assert replacement.describe()["serving"]["artifact"] == "demo@v0001"
        hub.stop()

    def test_unknown_artifact_fails_load(self, registry_root):
        hub = self.make_hub(registry_root)
        with pytest.raises(ArtifactNotFoundError):
            hub.load(DeploymentSpec(name="m", artifact="nope"))
        assert hub.names() == []
        hub.stop()

    def test_unload_and_default_reassignment(self, registry_root):
        hub = self.make_hub(registry_root)
        hub.load(DeploymentSpec(name="a", artifact="demo"))
        hub.load(DeploymentSpec(name="b", artifact="demo"))
        assert hub.default_name == "a"  # first load wins
        hub.unload("a")
        assert hub.default_name == "b"  # sole survivor inherits
        with pytest.raises(DeploymentNotFoundError):
            hub.resolve("a")
        with pytest.raises(DeploymentNotFoundError):
            hub.unload("a")
        hub.stop()

    def test_alias_flip_and_guards(self, registry_root, raw_graphs):
        hub = self.make_hub(registry_root)
        hub.load(DeploymentSpec(name="v1", artifact="demo", version="v0001"))
        hub.load(DeploymentSpec(name="v2", artifact="demo", version="v0002"))
        hub.alias("prod", "v1")
        assert hub.resolve("prod").name == "v1"
        hub.alias("prod", "v2")  # the flip
        assert hub.resolve("prod").name == "v2"
        # Guards: alias to nowhere, alias shadowing a model, model
        # shadowing an alias, unloading an alias target.
        with pytest.raises(DeploymentNotFoundError):
            hub.alias("prod2", "nope")
        with pytest.raises(DeploymentExistsError):
            hub.alias("v1", "v2")
        with pytest.raises(DeploymentExistsError):
            hub.load(DeploymentSpec(name="prod", artifact="demo"))
        with pytest.raises(HubError, match="alias"):
            hub.unload("v2")
        hub.unalias("prod")
        hub.unload("v2")  # fine once the alias is gone
        with pytest.raises(DeploymentNotFoundError):
            hub.unalias("prod")
        hub.stop()

    def test_reload_picks_up_new_latest_version(self, tmp_path, raw_graphs):
        registry = ArtifactRegistry(tmp_path)
        registry.save("m", small_predictor(seed=1))
        hub = ModelHub(str(tmp_path), pool_workers=1)
        hub.load(DeploymentSpec(name="m", artifact="m"))
        before = hub.predict("m", raw_graphs[0])
        assert hub.resolve("m").describe()["serving"]["artifact"] == "m@v0001"
        registry.save("m", small_predictor(seed=99))
        reloaded = hub.reload("m")
        assert reloaded.describe()["serving"]["artifact"] == "m@v0002"
        after = hub.predict("m", raw_graphs[0])
        assert not np.array_equal(before.probabilities, after.probabilities)
        hub.stop()

    def test_adopted_deployments_cannot_reload(self, registry_root):
        hub = ModelHub()  # no registry at all
        service = PredictionService(
            model=small_predictor().model, encoder=GraphEncoder()
        )
        deployment = hub.adopt("legacy", service)
        assert isinstance(deployment, Deployment) and deployment.adopted
        with pytest.raises(HubError, match="spec"):
            hub.reload("legacy")
        with pytest.raises(HubError, match="registry"):
            hub.load(DeploymentSpec(name="m", artifact="demo"))
        hub.stop()

    def test_default_routing(self, registry_root, raw_graphs):
        hub = self.make_hub(registry_root)
        with pytest.raises(DeploymentNotFoundError, match="default"):
            hub.resolve(None)
        hub.load(DeploymentSpec(name="a", artifact="demo"))
        hub.load(DeploymentSpec(name="b", fold_group="ens"))
        assert hub.resolve(None).name == "a"
        hub.set_default("b")
        assert hub.resolve(None).name == "b"
        with pytest.raises(DeploymentNotFoundError):
            hub.set_default("nope")
        hub.set_default(None)
        with pytest.raises(DeploymentNotFoundError, match="default"):
            hub.resolve(None)
        hub.stop()

    def test_shared_cache_is_namespaced_per_model(self, registry_root, raw_graphs):
        hub = self.make_hub(registry_root)
        hub.load(DeploymentSpec(name="demo", artifact="demo"))
        hub.load(DeploymentSpec(name="ens", fold_group="ens"))
        hub.predict_many("demo", raw_graphs[:3])
        hub.predict_many("ens", raw_graphs[:2])
        demo = hub.resolve("demo").predictor
        ens = hub.resolve("ens").predictor
        # One shared table, disjoint namespaces.
        assert demo.cache is hub.cache and ens.cache is hub.cache
        assert hub.cache.namespace_size(demo.cache_namespace()) == 3
        assert hub.cache.namespace_size(ens.cache_namespace()) == 2
        assert len(hub.cache) == 5
        # Per-model health reports per-model warmth of the shared cache.
        assert hub.model_health("demo")["cache"]["entries"] == 3
        assert hub.model_health("ens")["cache"]["entries"] == 2
        # Replaying through the hub hits the shared cache.
        again = hub.predict("demo", raw_graphs[0])
        assert again.cache_hit
        hub.stop()

    def test_spec_can_opt_out_of_the_shared_cache(self, registry_root, raw_graphs):
        hub = self.make_hub(registry_root)
        hub.load(DeploymentSpec(name="nocache", artifact="demo", enable_cache=False))
        hub.predict("nocache", raw_graphs[0])
        assert hub.resolve("nocache").predictor.cache is None
        assert len(hub.cache) == 0
        hub.stop()

    def test_cacheless_hub_gives_deployments_no_private_cache(
        self, registry_root, raw_graphs
    ):
        hub = ModelHub(registry_root, enable_cache=False)
        hub.load(DeploymentSpec(name="demo", artifact="demo"))
        hub.load(DeploymentSpec(name="ens", fold_group="ens"))
        for name in ("demo", "ens"):
            assert hub.resolve(name).predictor.cache is None
            hub.predict(name, raw_graphs[0])
            assert not hub.predict(name, raw_graphs[0]).cache_hit
        assert hub.snapshot()["cache"] is None
        hub.stop()

    def test_snapshot_aggregates_across_models(self, registry_root, raw_graphs):
        hub = self.make_hub(registry_root)
        hub.load(DeploymentSpec(name="demo", artifact="demo"))
        hub.load(DeploymentSpec(name="ens", fold_group="ens"))
        hub.predict_many("demo", raw_graphs[:3])
        hub.predict_many("ens", raw_graphs[:3])
        snapshot = hub.snapshot()
        assert set(snapshot["models"]) == {"demo", "ens"}
        aggregate = snapshot["aggregate"]
        assert aggregate["models"] == 2
        assert aggregate["total_requests"] == 6
        assert (
            aggregate["engine"]["fanned_folds"]
            == snapshot["models"]["demo"]["engine"]["fanned_folds"]
            + snapshot["models"]["ens"]["engine"]["fanned_folds"]
        )
        assert snapshot["pool"]["workers"] == 1
        assert snapshot["cache"]["size"] == len(hub.cache)
        hub.stop()

    def test_hub_can_restart_after_stop(self, registry_root, raw_graphs):
        hub = self.make_hub(registry_root)
        hub.load(
            DeploymentSpec(
                name="m", artifact="demo", batching=BatchingConfig(max_delay_s=0.001)
            )
        )
        with hub:
            assert hub.submit("m", raw_graphs[0]).result(timeout=10).label >= 0
        # The context manager stopped everything; a second lifecycle (and
        # post-stop submits, which restart batchers on demand) must work.
        with hub:
            assert hub.submit("m", raw_graphs[1]).result(timeout=10).label >= 0
        assert hub.submit("m", raw_graphs[2]).result(timeout=10).label >= 0
        hub.stop()

    def test_checkpoint_requires_cache(self, tmp_path):
        with pytest.raises(HubError, match="cache"):
            ModelHub(
                str(tmp_path), enable_cache=False, checkpoint_path=str(tmp_path / "c.npz")
            )


# ----------------------------------------- parity with standalone services


class TestHubParity:
    @pytest.fixture(scope="class")
    def hub_server(self, registry_root):
        """One process serving a single-fold model and a 5-fold ensemble."""
        hub = ModelHub(registry_root, cache_capacity=512)
        batching = BatchingConfig(max_delay_s=0.005)
        hub.load(DeploymentSpec(name="demo", artifact="demo", batching=batching))
        hub.load(DeploymentSpec(name="ens", fold_group="ens", batching=batching))
        with PredictionHTTPServer(hub) as running:
            yield running

    def test_single_fold_results_bit_identical_in_process(
        self, registry_root, raw_graphs
    ):
        hub = ModelHub(registry_root)
        hub.load(DeploymentSpec(name="demo", artifact="demo"))
        standalone = PredictionService.from_registry(registry_root, "demo")
        via_hub = result_payloads(hub.predict_many("demo", raw_graphs))
        via_standalone = result_payloads(standalone.predict_many(raw_graphs))
        assert via_hub == via_standalone
        hub.stop()

    def test_five_fold_ensemble_bit_identical_in_process(
        self, registry_root, raw_graphs
    ):
        hub = ModelHub(registry_root)
        hub.load(
            DeploymentSpec(name="ens", fold_group="ens", strategy="majority-vote")
        )
        standalone = EnsemblePredictionService.from_registry(
            registry_root, "ens", strategy="majority-vote"
        )
        assert standalone.num_members == ENSEMBLE_FOLDS
        via_hub = result_payloads(hub.predict_many("ens", raw_graphs))
        via_standalone = result_payloads(standalone.predict_many(raw_graphs))
        assert via_hub == via_standalone
        hub.stop()

    def test_one_server_two_models_matches_legacy_servers(
        self, hub_server, registry_root, raw_graphs
    ):
        """The acceptance bar: ≥2 named deployments (single + 5-fold
        ensemble) in one server, each bit-identical to the same artifact
        served by a standalone service in its own server."""
        wire = [program_graph_to_dict(graph) for graph in raw_graphs]
        status, listing = _request(hub_server, "GET", "/v1/models")
        assert status == 200
        assert set(listing["models"]) == {"demo", "ens"}
        assert listing["count"] == 2

        # Reference answers: each artifact as a hand-built standalone
        # service (private cache), alone in its own server's hub, on the
        # unnamed route.
        batching = BatchingConfig(max_delay_s=0.005)
        standalone_single = PredictionService.from_registry(
            registry_root, "demo", batching=batching, cache=EmbeddingCache(1024)
        )
        standalone_ensemble = EnsemblePredictionService.from_registry(
            registry_root, "ens", batching=batching, cache=EmbeddingCache(1024)
        )
        pairs = (("demo", standalone_single), ("ens", standalone_ensemble))
        for name, standalone in pairs:
            reference_hub = ModelHub(enable_cache=False)
            reference_hub.adopt("default", standalone)
            with PredictionHTTPServer(reference_hub) as reference:
                status, expected = _request(
                    reference, "POST", "/v1/predict", {"graphs": wire}
                )
                assert status == 200
            status, got = _request(
                hub_server, "POST", f"/v1/models/{name}/predict", {"graphs": wire}
            )
            assert status == 200
            assert [strip(r) for r in got["results"]] == [
                strip(r) for r in expected["results"]
            ]

        # Single requests ride the batcher and agree with the batch path.
        status, single = _request(
            hub_server, "POST", "/v1/models/ens/predict", {"graph": wire[0]}
        )
        assert status == 200
        assert len(single["result"]["per_fold_labels"]) == ENSEMBLE_FOLDS

    def test_per_model_routes_and_metrics(self, hub_server, raw_graphs):
        wire = program_graph_to_dict(raw_graphs[0])
        _request(hub_server, "POST", "/v1/models/demo/predict", {"graph": wire})

        status, health = _request(hub_server, "GET", "/v1/models/demo")
        assert status == 200
        assert health["model"]["serving"]["service"] == "single"
        assert health["model"]["spec"]["artifact"] == "demo"
        assert health["cache"]["warm"] is True

        status, metrics = _request(hub_server, "GET", "/v1/models/demo/metrics")
        assert status == 200
        assert metrics["model"] == "demo"
        assert metrics["stats"]["total_requests"] >= 1

        # The global metrics document carries one section per model.
        status, metrics = _request(hub_server, "GET", "/metrics")
        assert status == 200
        assert set(metrics["hub"]["models"]) == {"demo", "ens"}
        assert metrics["hub"]["aggregate"]["models"] == 2
        assert metrics["hub"]["pool"]["workers"] >= 1

        status, health = _request(hub_server, "GET", "/healthz")
        assert status == 200
        assert set(health["models"]) == {"demo", "ens"}
        # Legacy healthz keys survive for PR-3 era clients.
        assert health["status"] == "ok" and "cache" in health

    def test_unknown_model_is_structured_404(self, hub_server, raw_graphs):
        wire = program_graph_to_dict(raw_graphs[0])
        status, payload = _request(
            hub_server, "POST", "/v1/models/nope/predict", {"graph": wire}
        )
        assert status == 404
        assert payload["error"]["code"] == "model-not-found"
        status, payload = _request(hub_server, "GET", "/v1/models/nope")
        assert (status, payload["error"]["code"]) == (404, "model-not-found")


# -------------------------------------------------------- admin over HTTP


class TestHubAdminHTTP:
    @pytest.fixture()
    def server(self, registry_root):
        hub = ModelHub(registry_root, cache_capacity=256)
        hub.load(DeploymentSpec(name="base", artifact="demo"))
        with PredictionHTTPServer(hub) as running:
            yield running

    def test_load_predict_unload_cycle(self, server, raw_graphs):
        wire = program_graph_to_dict(raw_graphs[0])
        status, loaded = _request(
            server, "POST", "/v1/models/extra/load", {"artifact": "demo", "version": "v0001"}
        )
        assert status == 200
        assert loaded["loaded"] == "extra"
        assert loaded["model"]["serving"]["artifact"] == "demo@v0001"

        status, answer = _request(
            server, "POST", "/v1/models/extra/predict", {"graph": wire}
        )
        assert status == 200 and "result" in answer

        status, unloaded = _request(server, "POST", "/v1/models/extra/unload")
        assert status == 200 and unloaded["unloaded"] == "extra"
        status, payload = _request(
            server, "POST", "/v1/models/extra/predict", {"graph": wire}
        )
        assert (status, payload["error"]["code"]) == (404, "model-not-found")

    def test_load_conflicts_and_replace(self, server):
        status, payload = _request(
            server, "POST", "/v1/models/base/load", {"artifact": "demo"}
        )
        assert (status, payload["error"]["code"]) == (409, "model-exists")
        status, payload = _request(
            server,
            "POST",
            "/v1/models/base/load",
            {"spec": {"artifact": "demo", "version": "v0001"}, "replace": True},
        )
        assert status == 200
        assert payload["model"]["serving"]["artifact"] == "demo@v0001"

    def test_load_rejects_bad_specs(self, server):
        cases = [
            ({"artifact": "demo", "nope": 1}, 400, "invalid-spec"),
            # Retired knobs: the batching block (without workers) and the
            # hub's shared cache replaced them.
            ({"artifact": "demo", "max_batch_size": 4}, 400, "invalid-spec"),
            ({"artifact": "demo", "max_wait_s": 0.01}, 400, "invalid-spec"),
            ({"artifact": "demo", "batcher_workers": 2}, 400, "invalid-spec"),
            ({"artifact": "demo", "cache_capacity": 64}, 400, "invalid-spec"),
            (
                {"artifact": "demo", "batching": {"workers": 2}},
                400,
                "invalid-spec",
            ),
            ({"name": "other", "artifact": "demo"}, 400, "invalid-spec"),
            ({"artifact": "ghost"}, 404, "artifact-not-found"),
            ({"fold_group": "ens", "strategy": "coin-flip"}, 400, "invalid-spec"),
        ]
        for body, expected_status, expected_code in cases:
            status, payload = _request(server, "POST", "/v1/models/fresh/load", body)
            assert (status, payload["error"]["code"]) == (
                expected_status,
                expected_code,
            ), body

    def test_alias_flip_over_http(self, server, raw_graphs):
        wire = program_graph_to_dict(raw_graphs[0])
        _request(server, "POST", "/v1/models/old/load", {"artifact": "demo", "version": "v0001"})
        status, payload = _request(
            server, "POST", "/v1/models/prod/alias", {"target": "base"}
        )
        assert status == 200 and payload == {"alias": "prod", "target": "base"}
        status, first = _request(
            server, "POST", "/v1/models/prod/predict", {"graph": wire}
        )
        assert status == 200
        _request(server, "POST", "/v1/models/prod/alias", {"target": "old"})
        status, second = _request(
            server, "POST", "/v1/models/prod/predict", {"graph": wire}
        )
        assert status == 200
        # v0001 and v0002 carry different weights: the flip changed answers.
        assert first["result"]["probabilities"] != second["result"]["probabilities"]
        # Unloading an alias target is refused with a structured 409...
        status, payload = _request(server, "POST", "/v1/models/old/unload")
        assert (status, payload["error"]["code"]) == (409, "hub-error")
        # ...and the remedy is available remotely too: a null target drops
        # the alias, after which the unload goes through.
        status, payload = _request(
            server, "POST", "/v1/models/prod/alias", {"target": None}
        )
        assert status == 200 and payload == {"alias": "prod", "target": None}
        status, payload = _request(server, "POST", "/v1/models/old/unload")
        assert status == 200 and payload == {"unloaded": "old"}
        # Dropping a non-existent alias is a structured 404.
        status, payload = _request(
            server, "POST", "/v1/models/prod/alias", {"target": None}
        )
        assert (status, payload["error"]["code"]) == (404, "model-not-found")

    def test_reload_over_http(self, registry_root, tmp_path, raw_graphs):
        registry = ArtifactRegistry(tmp_path)
        registry.save("m", small_predictor(seed=5))
        hub = ModelHub(str(tmp_path))
        hub.load(DeploymentSpec(name="m", artifact="m"))
        with PredictionHTTPServer(hub) as server:
            registry.save("m", small_predictor(seed=6))
            status, payload = _request(server, "POST", "/v1/models/m/reload")
            assert status == 200
            assert payload["model"]["serving"]["artifact"] == "m@v0002"


# ------------------------------------------------- concurrent hub mutation


class TestConcurrentHubMutation:
    def test_alias_flip_races_no_failed_requests(self, registry_root, raw_graphs):
        """The zero-downtime bar: flipping ``prod`` between two versions
        while clients hammer it must fail zero requests, and every answer
        must be exactly one version's answer — never a torn blend."""
        hub = ModelHub(registry_root, cache_capacity=512, pool_workers=2)
        batching = BatchingConfig(max_delay_s=0.001)
        hub.load(DeploymentSpec(name="v1", artifact="demo", version="v0001", batching=batching))
        hub.load(DeploymentSpec(name="v2", artifact="demo", version="v0002", batching=batching))
        hub.alias("prod", "v1")

        graphs = raw_graphs[:4]
        wire = [program_graph_to_dict(graph) for graph in graphs]
        legal = []
        for version in ("v0001", "v0002"):
            service = PredictionService.from_registry(registry_root, "demo", version=version)
            legal.append(result_payloads(service.predict_many(graphs)))

        def matches(answer, reference):
            # Probabilities are compared with a 1e-9 absolute tolerance:
            # micro-batch coalescing changes the BLAS batch shape, which
            # legitimately moves the last ULP (~1e-16).  The two versions'
            # answers differ at ~1e-1, and a torn blend would too, so the
            # tolerance separates noise from tearing by seven orders of
            # magnitude.
            return (
                answer["fingerprint"] == reference["fingerprint"]
                and answer["label"] == reference["label"]
                and answer["configuration"] == reference["configuration"]
                and np.allclose(
                    answer["probabilities"],
                    reference["probabilities"],
                    rtol=0.0,
                    atol=1e-9,
                )
            )

        clients = 6
        per_client = 25
        failures = []
        torn = []

        with PredictionHTTPServer(hub) as server:
            def worker(index):
                connection = http.client.HTTPConnection(
                    server.host, server.port, timeout=30
                )
                try:
                    for round_number in range(per_client):
                        graph_index = (index + round_number) % len(wire)
                        body = json.dumps({"graph": wire[graph_index]}).encode()
                        connection.request(
                            "POST", "/v1/models/prod/predict", body=body
                        )
                        response = connection.getresponse()
                        payload = json.loads(response.read())
                        if response.status != 200:
                            failures.append((response.status, payload))
                            continue
                        answer = strip(payload["result"])
                        if not (
                            matches(answer, legal[0][graph_index])
                            or matches(answer, legal[1][graph_index])
                        ):
                            torn.append(answer)
                finally:
                    connection.close()

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            flips = 0
            for _ in range(40):
                hub.alias("prod", "v2" if flips % 2 == 0 else "v1")
                flips += 1
                time.sleep(0.002)
            for thread in threads:
                thread.join()

        assert failures == []  # zero failed in-flight requests
        assert torn == []  # every answer is one version's exact answer

    def test_load_unload_races_never_500(self, registry_root, raw_graphs):
        """Unloading/reloading a model under fire: requests either succeed
        or get a structured 404 — never a 500, never a torn deployment."""
        hub = ModelHub(registry_root, cache_capacity=512)
        spec = DeploymentSpec(name="m", artifact="demo")
        hub.load(spec)
        app = ServingApp(hub)  # sync path: no batcher needed for the race
        wire = [program_graph_to_dict(graph) for graph in raw_graphs[:3]]
        body = json.dumps({"graphs": wire}).encode()
        expected = result_payloads(
            PredictionService.from_registry(registry_root, "demo").predict_many(
                raw_graphs[:3]
            )
        )

        stop = threading.Event()
        bad = []

        def worker():
            while not stop.is_set():
                status, payload, _ = app.handle("POST", "/v1/models/m/predict", body)
                if status == 200:
                    answers = [strip(r) for r in payload["results"]]
                    if answers != expected:
                        bad.append(("torn", answers))
                elif status == 404:
                    if payload["error"]["code"] != "model-not-found":
                        bad.append(("wrong-error", payload))
                else:
                    bad.append((status, payload))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(15):
                hub.unload("m")
                hub.load(spec)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        hub.stop()
        assert bad == []

    def test_replace_swap_is_atomic_in_process(self, registry_root, raw_graphs):
        """load(replace=True) under concurrent predicts: every answer comes
        from exactly one fully-built deployment."""
        hub = ModelHub(registry_root, cache_capacity=512)
        hub.load(DeploymentSpec(name="m", artifact="demo", version="v0001"))
        graphs = raw_graphs[:2]
        legal = []
        for version in ("v0001", "v0002"):
            service = PredictionService.from_registry(
                registry_root, "demo", version=version
            )
            legal.append(result_payloads(service.predict_many(graphs)))

        stop = threading.Event()
        bad = []

        def worker():
            while not stop.is_set():
                answers = result_payloads(hub.predict_many("m", graphs))
                if answers not in legal:
                    bad.append(answers)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for flip in range(10):
                version = "v0002" if flip % 2 == 0 else "v0001"
                hub.load(
                    DeploymentSpec(name="m", artifact="demo", version=version),
                    replace=True,
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        hub.stop()
        assert bad == []


# ----------------------------------------------------- registry resolution


class TestRegistryResolve:
    def test_resolve_latest_and_pinned(self, registry_root):
        registry = ArtifactRegistry(registry_root)
        latest = registry.resolve("demo")
        assert (latest.name, latest.version) == ("demo", "v0002")
        pinned = registry.resolve("demo", "v0001")
        assert pinned.version == "v0001"
        assert str(pinned) == "demo@v0001"

    def test_resolve_errors(self, registry_root):
        registry = ArtifactRegistry(registry_root)
        with pytest.raises(ArtifactNotFoundError):
            registry.resolve("ghost")
        with pytest.raises(ArtifactNotFoundError):
            registry.resolve("demo", "v9999")
        with pytest.raises(ArtifactNotFoundError):
            registry.resolve("demo", "not-a-version")
        with pytest.raises(ArtifactNotFoundError):
            registry.resolve("../demo")
