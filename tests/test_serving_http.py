"""Tests for the HTTP wire protocol and background cache checkpointing.

Covers the wire-format graph serialization (round-trips and strict error
paths), the transport-independent :class:`ServingApp` router, the
:class:`CheckpointDaemon`, and the full stack over real sockets: parity
with in-process answers, concurrent clients riding the micro-batcher, the
structured 4xx error mapping, and a kill/restart cycle answered warm from
the checkpointed cache.
"""

import http.client
import json
import threading
import time

import pytest

from repro.core import StaticConfigurationPredictor, StaticModelConfig
from repro.graphs import GraphBuilder, GraphEncoder, graph_fingerprint
from repro.serving import (
    ArtifactRegistry,
    BatchingConfig,
    CheckpointDaemon,
    EmbeddingCache,
    EnsemblePredictionService,
    GRAPH_SCHEMA_VERSION,
    ModelHub,
    PredictionHTTPServer,
    PredictionService,
    SerializationError,
    ServingApp,
    program_graph_from_dict,
    program_graph_from_json,
    program_graph_to_dict,
)

NUM_LABELS = 4


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
    return [builder.build_module(region.module) for region in small_suite]


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    registry = ArtifactRegistry(tmp_path_factory.mktemp("registry"))
    registry.save("demo", small_predictor())
    return registry.load("demo")


def make_service(artifact, max_delay_s=0.01, **knobs):
    return PredictionService.from_artifact(
        artifact,
        batching=BatchingConfig(max_batch_size=16, max_delay_s=max_delay_s),
        **knobs,
    )


def serving_hub(artifact, max_delay_s=0.01, **hub_knobs):
    """A hub serving the artifact's hand-built service as ``"default"``
    over the hub's shared cache and batcher pool."""
    hub = ModelHub(**hub_knobs)
    hub.adopt(
        "default",
        make_service(artifact, max_delay_s=max_delay_s, cache=hub.cache, pool=hub.pool),
    )
    return hub


# ------------------------------------------------------------- wire format


class TestGraphWireFormat:
    def test_round_trip_preserves_everything(self, raw_graphs):
        encoder = GraphEncoder()
        for graph in raw_graphs:
            restored = program_graph_from_dict(program_graph_to_dict(graph))
            assert restored.name == graph.name
            assert restored.num_nodes == graph.num_nodes
            assert restored.num_edges == graph.num_edges
            assert restored.metadata == graph.metadata
            for original, copy in zip(graph.nodes, restored.nodes):
                assert (original.kind, original.text, original.function) == (
                    copy.kind,
                    copy.text,
                    copy.function,
                )
                assert original.features == copy.features
            assert restored.edges == graph.edges
            # The decoded graph is servably identical: same cache identity.
            assert graph_fingerprint(encoder.encode(restored)) == graph_fingerprint(
                encoder.encode(graph)
            )

    def test_round_trip_survives_json_text(self, raw_graphs):
        text = json.dumps(program_graph_to_dict(raw_graphs[0]))
        restored = program_graph_from_json(text)
        assert restored.num_nodes == raw_graphs[0].num_nodes

    def test_truncated_json_rejected(self, raw_graphs):
        text = json.dumps(program_graph_to_dict(raw_graphs[0]))[:-20]
        with pytest.raises(SerializationError, match="invalid JSON"):
            program_graph_from_json(text)

    def test_unknown_schema_version_rejected(self, raw_graphs):
        wire = program_graph_to_dict(raw_graphs[0])
        wire["schema_version"] = GRAPH_SCHEMA_VERSION + 1
        with pytest.raises(SerializationError, match="schema_version"):
            program_graph_from_dict(wire)

    def test_unknown_top_level_field_rejected(self, raw_graphs):
        wire = program_graph_to_dict(raw_graphs[0])
        wire["extra"] = 1
        with pytest.raises(SerializationError, match="unknown field"):
            program_graph_from_dict(wire)

    def test_missing_field_rejected(self):
        with pytest.raises(SerializationError, match="missing required field"):
            program_graph_from_dict({"schema_version": GRAPH_SCHEMA_VERSION})

    def test_non_object_rejected(self):
        with pytest.raises(SerializationError, match="JSON object"):
            program_graph_from_dict([1, 2, 3])

    def test_bad_node_kind_rejected(self):
        wire = {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "name": "g",
            "nodes": [{"kind": "gadget", "text": "x", "function": "", "block": "", "features": {}}],
            "edges": [],
            "metadata": {},
        }
        with pytest.raises(SerializationError, match="unknown kind"):
            program_graph_from_dict(wire)

    def test_feature_named_like_a_node_field_is_legal(self):
        # "kind"/"text"/"function"/"block" are valid *feature* names on the
        # wire; they must not collide with the Node constructor arguments.
        wire = {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "name": "g",
            "nodes": [
                {"kind": "instruction", "text": "x", "function": "f", "block": "b",
                 "features": {"kind": 1.0, "text": 2.0, "loop_depth": 3.0}}
            ],
            "edges": [],
            "metadata": {},
        }
        graph = program_graph_from_dict(wire)
        assert graph.nodes[0].kind == "instruction"
        assert graph.nodes[0].features == {"kind": 1.0, "text": 2.0, "loop_depth": 3.0}

    def test_non_string_function_or_block_rejected(self):
        wire = {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "name": "g",
            "nodes": [{"kind": "instruction", "text": "x", "function": 123,
                       "block": "", "features": {}}],
            "edges": [],
            "metadata": {},
        }
        with pytest.raises(SerializationError, match="function"):
            program_graph_from_dict(wire)

    def test_non_numeric_feature_rejected(self):
        wire = {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "name": "g",
            "nodes": [
                {"kind": "instruction", "text": "x", "function": "", "block": "",
                 "features": {"loop_depth": "deep"}}
            ],
            "edges": [],
            "metadata": {},
        }
        with pytest.raises(SerializationError, match="must be a number"):
            program_graph_from_dict(wire)

    def test_edge_out_of_range_rejected(self):
        wire = {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "name": "g",
            "nodes": [{"kind": "instruction", "text": "x", "function": "", "block": "", "features": {}}],
            "edges": [{"source": 0, "target": 5, "flow": "control", "position": 0}],
            "metadata": {},
        }
        with pytest.raises(SerializationError, match="out of range"):
            program_graph_from_dict(wire)

    def test_bad_edge_flow_rejected(self):
        wire = {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "name": "g",
            "nodes": [{"kind": "instruction", "text": "x", "function": "", "block": "", "features": {}}],
            "edges": [{"source": 0, "target": 0, "flow": "teleport", "position": 0}],
            "metadata": {},
        }
        with pytest.raises(SerializationError, match="unknown flow"):
            program_graph_from_dict(wire)

    def test_wrong_shape_edges_rejected(self):
        wire = {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "name": "g",
            "nodes": [],
            "edges": [[0, 1, "control"]],  # list, not an object
            "metadata": {},
        }
        with pytest.raises(SerializationError, match="JSON object"):
            program_graph_from_dict(wire)


# -------------------------------------------------------- checkpoint daemon


class TestCheckpointDaemon:
    def _warm_cache(self, entries=3):
        import numpy as np

        cache = EmbeddingCache(16)
        for i in range(entries):
            cache.put(f"fp{i}", np.full(4, float(i)), np.full(8, float(i)))
        return cache

    def test_interval_checkpointing(self, tmp_path):
        cache = self._warm_cache()
        path = tmp_path / "ckpt.npz"
        daemon = CheckpointDaemon(cache, str(path), interval_s=0.05)
        with daemon:
            deadline = time.monotonic() + 5.0
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        assert path.exists()
        restored = EmbeddingCache(16)
        assert restored.load(str(path)) == 3

    def test_stop_writes_final_checkpoint(self, tmp_path):
        cache = self._warm_cache()
        path = tmp_path / "ckpt.npz"
        daemon = CheckpointDaemon(cache, str(path), interval_s=3600.0)
        daemon.start()
        assert not path.exists()  # interval far away, nothing dumped yet
        daemon.stop()
        assert path.exists()
        assert daemon.stats()["checkpoints"] == 1

    def test_unchanged_cache_skips_dump(self, tmp_path):
        import numpy as np

        cache = self._warm_cache()
        daemon = CheckpointDaemon(cache, str(tmp_path / "ckpt.npz"), interval_s=3600.0)
        assert daemon.checkpoint_now() == 3
        assert daemon.checkpoint_now() is None  # no mutation since
        assert daemon.stats()["skipped"] == 1
        cache.put("fresh", np.zeros(4), np.zeros(8))
        assert daemon.checkpoint_now() == 4  # dirty again

    def test_reads_do_not_dirty_the_cache(self, tmp_path):
        cache = self._warm_cache()
        daemon = CheckpointDaemon(cache, str(tmp_path / "ckpt.npz"), interval_s=3600.0)
        daemon.checkpoint_now()
        cache.get("fp0")
        cache.get("nope")
        assert daemon.checkpoint_now() is None

    def test_dump_failure_is_recorded_not_raised(self, tmp_path):
        cache = self._warm_cache()
        bad_path = tmp_path / "not-a-dir-file"
        bad_path.write_text("squatter")
        daemon = CheckpointDaemon(
            cache, str(bad_path / "ckpt.npz"), interval_s=3600.0
        )
        assert daemon.checkpoint_now() is None
        stats = daemon.stats()
        assert stats["failures"] == 1
        assert stats["last_error"] is not None

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            CheckpointDaemon(EmbeddingCache(4), "x.npz", interval_s=0.0)

    def test_empty_cache_never_clobbers_an_existing_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        self._warm_cache().dump(str(path))  # a previous run's warm checkpoint
        before = path.read_bytes()
        daemon = CheckpointDaemon(EmbeddingCache(16), str(path), interval_s=3600.0)
        assert daemon.checkpoint_now() is None  # clean (never mutated): skip
        daemon.stop()  # final checkpoint also skips
        assert path.read_bytes() == before

    def test_corrupt_warmup_file_degrades_to_cold_start(self, tmp_path, artifact):
        path = tmp_path / "torn.npz"
        path.write_bytes(b"definitely not an npz file")
        hub = serving_hub(artifact, warmup_path=str(path))
        assert len(hub.cache) == 0  # cold, but the server boots
        # The explicit probe still surfaces the real error.
        service = make_service(artifact, cache=EmbeddingCache(16))
        with pytest.raises(Exception):
            service.warm_up(str(path))


# --------------------------------------------------------- app (no socket)


class TestServingApp:
    @pytest.fixture()
    def app(self, artifact):
        return ServingApp(serving_hub(artifact))

    def test_unknown_path_is_404(self, app):
        status, payload, _ = app.handle("GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not-found"

    def test_method_mismatch_is_405_with_allow(self, app):
        for method, path, allow in (
            ("POST", "/healthz", "GET, HEAD"),
            ("GET", "/v1/predict", "POST"),
            ("POST", "/v1/models", "GET, HEAD"),
            ("GET", "/v1/models/default/predict", "POST"),
        ):
            status, payload, headers = app.handle(method, path)
            assert status == 405, path
            assert payload["error"]["code"] == "method-not-allowed"
            # Structured 405s carry the Allow header, so clients learn the
            # right verb instead of guessing from a generic 404.
            assert headers["Allow"] == allow, path

    def test_head_is_answered_on_health_and_metrics(self, app):
        for path in ("/healthz", "/metrics", "/v1/models"):
            status, payload, _ = app.handle("HEAD", path)
            assert status == 200, path
            assert payload  # same payload a GET would render (body elided
            # only at the transport layer)

    def test_healthz_reports_identity_and_cache(self, app):
        status, payload, _ = app.handle("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["serving"]["service"] == "single"
        assert payload["serving"]["artifact"] == "demo@v0001"
        assert payload["cache"] == {"enabled": True, "entries": 0, "warm": False}

    def test_metrics_shape(self, app):
        status, payload, _ = app.handle("GET", "/metrics")
        assert status == 200
        assert payload["stats"]["total_requests"] == 0
        assert "cache" in payload["stats"]
        assert payload["checkpoint"] is None

    def test_query_string_and_trailing_slash_are_tolerated(self, app):
        assert app.handle("GET", "/healthz/")[0] == 200
        assert app.handle("GET", "/healthz?verbose=1")[0] == 200

    def test_predict_without_start_uses_sync_path(self, app, raw_graphs):
        wire = program_graph_to_dict(raw_graphs[0])
        status, payload, _ = app.handle(
            "POST", "/v1/predict", json.dumps({"graph": wire}).encode()
        )
        assert status == 200
        assert 0 <= payload["result"]["label"] < NUM_LABELS

    def test_empty_body_is_400(self, app):
        status, payload, _ = app.handle("POST", "/v1/predict", b"")
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"

    def test_both_graph_and_graphs_is_400(self, app, raw_graphs):
        wire = program_graph_to_dict(raw_graphs[0])
        body = json.dumps({"graph": wire, "graphs": [wire]}).encode()
        status, payload, _ = app.handle("POST", "/v1/predict", body)
        assert status == 400
        assert "exactly one" in payload["error"]["message"]

    def test_non_object_body_is_400(self, app):
        status, payload, _ = app.handle("POST", "/v1/predict", b"[1, 2]")
        assert status == 400

    def test_graphs_must_be_a_list(self, app):
        status, payload, _ = app.handle(
            "POST", "/v1/predict", json.dumps({"graphs": {"not": "a list"}}).encode()
        )
        assert status == 400
        assert "list" in payload["error"]["message"]

    def test_stalled_prediction_is_504_timeout(self, artifact, raw_graphs, monkeypatch):
        import concurrent.futures

        app = ServingApp(serving_hub(artifact), request_timeout_s=0.05)
        app.start()
        try:
            predictor = app.hub.resolve(None).predictor
            # A future nobody ever completes: the batcher worker "lost" the
            # request, so the deadline is the only way the client gets out.
            stalled = concurrent.futures.Future()
            monkeypatch.setattr(predictor, "submit", lambda graph: stalled)
            body = json.dumps(
                {"graph": program_graph_to_dict(raw_graphs[0])}
            ).encode()
            status, payload, _ = app.handle("POST", "/v1/predict", body)
            assert status == 504
            assert payload["error"]["code"] == "timeout"
            assert "did not complete" in payload["error"]["message"]
            # The abandoned request must be cancelled, not left to occupy a
            # batch slot forever.
            assert stalled.cancelled()
        finally:
            app.stop()

    def test_invalid_graph_in_batch_names_its_index(self, app, raw_graphs):
        good = program_graph_to_dict(raw_graphs[0])
        bad = program_graph_to_dict(raw_graphs[1])
        bad["schema_version"] = 99
        body = json.dumps({"graphs": [good, bad]}).encode()
        status, payload, _ = app.handle("POST", "/v1/predict", body)
        assert status == 400
        assert payload["error"]["code"] == "invalid-graph"
        assert "graphs[1]" in payload["error"]["message"]


# ----------------------------------------------------------- real sockets


@pytest.fixture(scope="module")
def server(artifact):
    with PredictionHTTPServer(serving_hub(artifact, max_delay_s=0.005)) as running:
        yield running


def _request(server, method, path, payload=None, raw_body=None, headers=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = raw_body
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestHTTPServer:
    def test_single_predict_matches_in_process(self, server, artifact, raw_graphs):
        reference = PredictionService.from_artifact(artifact)
        expected = [r.label for r in reference.predict_many(raw_graphs)]
        got = []
        for graph in raw_graphs:
            status, payload = _request(
                server, "POST", "/v1/predict", {"graph": program_graph_to_dict(graph)}
            )
            assert status == 200
            result = payload["result"]
            got.append(result["label"])
            assert len(result["probabilities"]) == NUM_LABELS
            assert result["fingerprint"]
        assert got == expected

    def test_batch_predict_matches_in_process(self, server, artifact, raw_graphs):
        reference = PredictionService.from_artifact(artifact)
        expected = [r.label for r in reference.predict_many(raw_graphs)]
        status, payload = _request(
            server,
            "POST",
            "/v1/predict",
            {"graphs": [program_graph_to_dict(g) for g in raw_graphs]},
        )
        assert status == 200
        assert payload["count"] == len(raw_graphs)
        assert [r["label"] for r in payload["results"]] == expected

    def test_repeat_is_a_cache_hit(self, server, raw_graphs):
        wire = program_graph_to_dict(raw_graphs[0])
        _request(server, "POST", "/v1/predict", {"graph": wire})
        status, payload = _request(server, "POST", "/v1/predict", {"graph": wire})
        assert status == 200
        assert payload["result"]["cache_hit"] is True

    def test_concurrent_clients_share_micro_batches(self, artifact, raw_graphs):
        # A dedicated server with a wide batching window so concurrent
        # HTTP handler threads demonstrably coalesce into shared batches.
        hub = serving_hub(artifact, max_delay_s=0.25, enable_cache=False)
        service = hub.resolve("default").predictor
        clients = 12
        with PredictionHTTPServer(hub) as running:
            results = [None] * clients
            errors = []

            def worker(i):
                try:
                    graph = raw_graphs[i % len(raw_graphs)]
                    results[i] = _request(
                        running,
                        "POST",
                        "/v1/predict",
                        {"graph": program_graph_to_dict(graph)},
                    )
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not errors
            assert all(status == 200 for status, _ in results)
            snapshot = service.stats.snapshot()
        assert snapshot["total_requests"] == clients
        # At least one RGCN forward pass served several HTTP requests.
        assert max(snapshot["batch_histogram"]) > 1

    def test_error_mapping_over_the_wire(self, server, raw_graphs):
        wire = program_graph_to_dict(raw_graphs[0])
        bad_schema = dict(wire, schema_version=99)
        cases = [
            ("POST", "/v1/predict", None, b"{truncated", 400, "invalid-json"),
            ("POST", "/v1/predict", {"nope": 1}, None, 400, "invalid-request"),
            ("POST", "/v1/predict", {"graph": bad_schema}, None, 400, "invalid-graph"),
            ("POST", "/healthz", {}, None, 405, "method-not-allowed"),
            ("GET", "/v1/predict", None, None, 405, "method-not-allowed"),
            ("GET", "/nope", None, None, 404, "not-found"),
        ]
        for method, path, payload, raw, status, code in cases:
            got_status, got_payload = _request(
                server, method, path, payload=payload, raw_body=raw
            )
            assert (got_status, got_payload["error"]["code"]) == (status, code), path

    def test_oversized_body_is_413_and_closes_the_connection(self, artifact):
        with PredictionHTTPServer(serving_hub(artifact), max_body_bytes=64) as running:
            connection = http.client.HTTPConnection(
                running.host, running.port, timeout=30
            )
            try:
                connection.request("POST", "/v1/predict", body=b"x" * 256)
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 413
                assert payload["error"]["code"] == "payload-too-large"
                # The unread body would desync a keep-alive connection, so
                # the server must close it after the error.
                assert response.getheader("Connection") == "close"
            finally:
                connection.close()
            # The server itself stays healthy for fresh connections.
            status, health = _request(running, "GET", "/healthz")
            assert (status, health["status"]) == (200, "ok")

    def test_post_without_content_length_is_411(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            # http.client normally sets Content-Length for us; drive the
            # request by hand to send a POST without one.
            connection.putrequest("POST", "/v1/predict")
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 411
            assert payload["error"]["code"] == "length-required"
        finally:
            connection.close()

    def test_get_with_a_body_closes_the_connection(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request("GET", "/metrics", body=b"hello")
            response = connection.getresponse()
            assert response.status == 200
            json.loads(response.read())
            # The body is never read, so the keep-alive connection must
            # close instead of parsing "hello" as the next request line.
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_head_over_the_wire_has_length_but_no_body(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            for path in ("/healthz", "/metrics"):
                connection.request("HEAD", path)
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200, path
                # Content-Length advertises what GET would send; the body
                # itself is elided per the HTTP spec.
                assert int(response.getheader("Content-Length")) > 0
                assert body == b""
        finally:
            connection.close()

    def test_405_over_the_wire_carries_allow(self, server):
        status, payload = _request(server, "POST", "/healthz", payload={})
        assert status == 405
        assert payload["error"]["code"] == "method-not-allowed"
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request("POST", "/metrics", body=b"{}")
            response = connection.getresponse()
            response.read()
            assert response.status == 405
            assert response.getheader("Allow") == "GET, HEAD"
        finally:
            connection.close()

    def test_healthz_and_metrics_over_the_wire(self, server):
        status, health = _request(server, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["serving"]["artifact"] == "demo@v0001"

        status, metrics = _request(server, "GET", "/metrics")
        assert status == 200
        assert metrics["stats"]["total_requests"] >= 1
        assert metrics["stats"]["cache"]["capacity"] >= 1

    def test_connection_lifecycle_invariants(self):
        from repro.serving.http import _RequestHandler

        # Slow-loris protection: blocked reads must time out rather than
        # pin a handler thread forever...
        assert _RequestHandler.timeout is not None
        assert 0 < _RequestHandler.timeout <= 60
        # ...and handlers must be joinable so close() drains in-flight
        # requests before the final checkpoint is written.
        assert PredictionHTTPServer.daemon_threads is False

    def test_closed_server_cannot_restart(self, artifact):
        server = PredictionHTTPServer(serving_hub(artifact))
        server.start()
        server.close()
        with pytest.raises(RuntimeError):
            server.start()


class TestEnsembleOverHTTP:
    def test_ensemble_fields_on_the_wire(self, tmp_path, raw_graphs):
        registry = ArtifactRegistry(tmp_path)
        for fold, seed in enumerate((1, 2, 3)):
            registry.save(f"ens-fold{fold}", small_predictor(seed=seed))
        # A hand-built ensemble with its own private batcher pool.
        service = EnsemblePredictionService.from_registry(
            str(tmp_path), "ens", batching=BatchingConfig(max_delay_s=0.005)
        )
        expected = service.predict(raw_graphs[0])
        hub = ModelHub(enable_cache=False)
        hub.adopt("default", service)
        with PredictionHTTPServer(hub) as running:
            status, payload = _request(
                running,
                "POST",
                "/v1/predict",
                {"graph": program_graph_to_dict(raw_graphs[0])},
            )
            assert status == 200
            result = payload["result"]
            assert result["label"] == expected.label
            assert result["agreement"] == pytest.approx(expected.agreement)
            assert set(result["per_fold_labels"]) == {"0", "1", "2"}

            status, health = _request(running, "GET", "/healthz")
            assert health["serving"]["service"] == "ensemble"
            assert len(health["serving"]["members"]) == 3


class TestCLI:
    def test_warmup_without_cache_is_rejected(self, tmp_path, capsys):
        from repro.serving.__main__ import main as serve_main

        code = serve_main(
            ["--root", str(tmp_path), "--name", "x", "--no-cache",
             "--warmup-path", str(tmp_path / "w.npz")]
        )
        assert code == 2
        assert "require the cache" in capsys.readouterr().err


class TestCheckpointRestartOverHTTP:
    def test_stop_checkpoints_results_computed_during_drain(
        self, tmp_path, artifact, raw_graphs
    ):
        # Requests still queued at stop() are drained by the batcher and
        # must land in the final checkpoint (the hub stops its daemon
        # *after* its deployments).
        checkpoint_path = str(tmp_path / "drain.npz")
        hub = serving_hub(
            artifact,
            max_delay_s=0.2,
            checkpoint_path=checkpoint_path,
            checkpoint_interval_s=3600.0,
        )
        service = hub.resolve("default").predictor
        app = ServingApp(hub)
        app.start()
        futures = [service.submit(graph) for graph in raw_graphs]
        app.stop()
        assert all(future.done() for future in futures)
        assert len(service.cache) > 0
        restored = EmbeddingCache(256)
        assert restored.load(checkpoint_path) == len(service.cache)

    def test_kill_restart_answers_first_burst_warm(
        self, tmp_path, artifact, raw_graphs
    ):
        checkpoint_path = str(tmp_path / "cache.npz")
        wire_graphs = [program_graph_to_dict(g) for g in raw_graphs]

        hub = serving_hub(
            artifact, checkpoint_path=checkpoint_path, checkpoint_interval_s=3600.0
        )
        daemon = hub.checkpoint
        with PredictionHTTPServer(hub) as running:
            status, first = _request(
                running, "POST", "/v1/predict", {"graphs": wire_graphs}
            )
            assert status == 200
            assert not any(r["cache_hit"] for r in first["results"])
            expected = [r["label"] for r in first["results"]]
        # close() stopped the daemon, which wrote the final checkpoint.
        assert daemon.stats()["checkpoints"] >= 1

        restarted = serving_hub(artifact, warmup_path=checkpoint_path)
        with PredictionHTTPServer(restarted) as running:
            status, health = _request(running, "GET", "/healthz")
            assert health["cache"]["warm"] is True
            status, burst = _request(
                running, "POST", "/v1/predict", {"graphs": wire_graphs}
            )
            assert status == 200
            assert all(r["cache_hit"] for r in burst["results"])
            assert [r["label"] for r in burst["results"]] == expected
