"""Tests for request tracing, metrics exposition, and the observable hub.

Covers the per-request span traces threaded through the predict paths
(sync, async/batched, cache hit vs miss, HTTP opt-in with decode time),
the :class:`ServingStats` satellite fixes (documented 0/1-sample
percentile behaviour, honest cross-model latency aggregation), the
Prometheus text exposition of ``GET /metrics``, the hub's journal wiring
and drift endpoint, and — end to end — the ISSUE acceptance demo: two
model versions served over HTTP, every request journalled with spans, the
``repro-journal`` query reproducing the served label distribution, a
deterministic A/B replay diff, and a synthetic agreement collapse
tripping the drift alert on ``GET /v1/models/<name>/drift``.
"""

import json

import pytest

from repro.core import StaticConfigurationPredictor, StaticModelConfig
from repro.graphs import GraphBuilder, GraphEncoder
from repro.serving import (
    ArtifactRegistry,
    BatchingConfig,
    DeploymentSpec,
    DriftConfig,
    EmbeddingCache,
    EnsemblePredictionService,
    JournalReader,
    JournalWriter,
    ModelHub,
    PredictionService,
    ServingApp,
    ServingStats,
    aggregate_snapshots,
    program_graph_to_dict,
    render_prometheus,
    replay_ab,
    replayable_graphs,
)
from repro.serving.journal_cli import main as journal_main
from repro.serving.trace import (
    consume_queue_waits,
    publish_queue_waits,
    reset_queue_waits,
    span,
)

NUM_LABELS = 4
ENSEMBLE_FOLDS = 3

MISS_SPANS = {"cache_lookup_s", "plan_build_s", "infer_s", "combine_s", "total_s"}
HIT_SPANS = {"cache_lookup_s", "combine_s", "total_s"}


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
    root = tmp_path_factory.mktemp("observe-registry")
    registry = ArtifactRegistry(root)
    registry.save("demo", small_predictor(seed=1))  # v0001
    registry.save("demo", small_predictor(seed=2))  # v0002 (the latest)
    for fold in range(ENSEMBLE_FOLDS):
        registry.save(f"ens-fold{fold}", small_predictor(seed=10 + fold))
    return str(root)


def make_service(registry_root):
    artifact = ArtifactRegistry(registry_root).load("demo")
    return PredictionService.from_artifact(
        artifact,
        batching=BatchingConfig(max_batch_size=16, max_delay_s=0.01),
        cache=EmbeddingCache(1024),
    )


# ------------------------------------------------------------- trace layer


class TestSpanPrimitives:
    def test_span_accumulates_into_the_trace(self):
        trace = {}
        with span(trace, "infer_s"):
            pass
        first = trace["infer_s"]
        with span(trace, "infer_s"):
            pass
        assert trace["infer_s"] >= first  # accumulates, never overwrites

    def test_span_is_a_noop_without_a_trace(self):
        with span(None, "infer_s"):
            pass  # must not raise

    def test_queue_waits_consume_once_and_check_length(self):
        token = publish_queue_waits([0.1, 0.2])
        try:
            assert consume_queue_waits(3) is None  # length mismatch → refused
            assert consume_queue_waits(2) == [0.1, 0.2]
            assert consume_queue_waits(2) is None  # consumed — no double count
        finally:
            reset_queue_waits(token)


class TestServiceTraces:
    def test_miss_then_hit_traces(self, registry_root, raw_graphs):
        service = make_service(registry_root)
        miss = service.predict(raw_graphs[0])
        assert set(miss.trace) == MISS_SPANS
        assert all(value >= 0.0 for value in miss.trace.values())
        assert miss.trace["total_s"] == pytest.approx(miss.latency_s)
        hit = service.predict(raw_graphs[0])
        assert hit.cache_hit
        assert set(hit.trace) == HIT_SPANS  # no plan/infer work on a hit

    def test_async_path_adds_queue_wait(self, registry_root, raw_graphs):
        service = make_service(registry_root).start()
        try:
            futures = [service.submit(graph) for graph in raw_graphs[:4]]
            for future in futures:
                trace = future.result(timeout=30).trace
                assert "queue_wait_s" in trace
                assert trace["queue_wait_s"] >= 0.0
        finally:
            service.stop()

    def test_ensemble_traces(self, registry_root, raw_graphs):
        service = EnsemblePredictionService.from_registry(
            registry_root,
            "ens",
            batching=BatchingConfig(max_batch_size=16),
            cache=EmbeddingCache(1024),
        )
        result = service.predict(raw_graphs[0])
        assert set(result.trace) == MISS_SPANS

    def test_stage_aggregates_reach_the_snapshot(self, registry_root, raw_graphs):
        service = make_service(registry_root)
        for graph in raw_graphs[:3]:
            service.predict(graph)
        stages = service.snapshot()["stages"]
        for stage in ("cache_lookup", "plan_build", "infer", "combine"):
            assert stages[stage]["count"] > 0
            assert stages[stage]["p95_s"] >= stages[stage]["p50_s"] >= 0.0


# --------------------------------------------------- stats satellite fixes


class TestPercentileEdges:
    def test_empty_window_reports_zero(self):
        assert ServingStats().latency_percentile(50) == 0.0

    def test_single_sample_is_every_percentile(self):
        stats = ServingStats()
        stats.record_request(latency_s=0.25, cache_hit=False)
        assert stats.latency_percentile(0) == 0.25
        assert stats.latency_percentile(50) == 0.25
        assert stats.latency_percentile(100) == 0.25

    def test_out_of_range_percentile_raises(self):
        with pytest.raises(ValueError, match="percentile"):
            ServingStats().latency_percentile(101)
        with pytest.raises(ValueError, match="percentile"):
            ServingStats().latency_percentile(-1)


class TestHonestAggregation:
    def snapshots(self):
        a, b = ServingStats(), ServingStats()
        for latency in (0.010, 0.020, 0.030):
            a.record_request(latency_s=latency, cache_hit=False)
        b.record_request(latency_s=0.100, cache_hit=True)
        return a, b

    def test_without_windows_percentiles_are_declared_unmergeable(self):
        a, b = self.snapshots()
        merged = aggregate_snapshots([a.snapshot(), b.snapshot()])
        latency = merged["latency"]
        assert latency["merged_from_raw_windows"] is False
        assert latency["p50_s"] is None and latency["p95_s"] is None
        assert "note" in latency  # says *why* there is no merged percentile
        assert merged["total_requests"] == 4  # counters still merge fine

    def test_with_windows_percentiles_pool_raw_samples(self):
        a, b = self.snapshots()
        merged = aggregate_snapshots(
            [a.snapshot(), b.snapshot()],
            latency_windows=[a.latency_values(), b.latency_values()],
        )
        latency = merged["latency"]
        assert latency["merged_from_raw_windows"] is True
        assert latency["samples"] == 4
        assert latency["p50_s"] == pytest.approx(0.025)
        assert latency["p95_s"] > 0.030  # the slow model's tail survives


# ---------------------------------------------------- prometheus exposition


class TestPrometheus:
    def test_renderer_emits_labelled_series(self, registry_root, raw_graphs):
        hub = ModelHub(registry_root)
        try:
            hub.load(DeploymentSpec(name="m1", artifact="demo"))
            app = ServingApp(hub)
            for graph in raw_graphs[:2]:
                status, _, _ = app.handle(
                    "POST",
                    "/v1/models/m1/predict",
                    json.dumps({"graph": program_graph_to_dict(graph)}).encode(),
                )
                assert status == 200
            text = render_prometheus(app.metrics())
            assert '# TYPE repro_requests_total counter' in text
            assert 'repro_requests_total{model="m1"} 2' in text
            assert 'repro_requests_total{model="_aggregate"} 2' in text
            assert 'repro_latency_seconds{model="m1",quantile="0.50"}' in text
            assert 'repro_stage_seconds{model="m1",quantile="0.50",stage="infer"}' in text
            for line in text.splitlines():
                assert line.startswith(("#", "repro_"))
        finally:
            hub.stop()

    def test_http_route_content_type_and_406(self, registry_root):
        hub = ModelHub(registry_root)
        try:
            hub.load(DeploymentSpec(name="m1", artifact="demo"))
            app = ServingApp(hub)
            status, payload, headers = app.handle(
                "GET", "/metrics?format=prometheus"
            )
            assert status == 200
            assert isinstance(payload, str)
            assert headers["Content-Type"] == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            status, payload, _ = app.handle("GET", "/metrics?format=json")
            assert status == 200 and isinstance(payload, dict)
            status, payload, _ = app.handle("GET", "/metrics?format=xml")
            assert status == 406
            assert payload["error"]["code"] == "unsupported-format"
        finally:
            hub.stop()


# ------------------------------------------------------ HTTP trace opt-in


class TestHTTPTraceOptIn:
    @pytest.fixture()
    def app(self, registry_root):
        hub = ModelHub(registry_root)
        hub.load(DeploymentSpec(name="m1", artifact="demo"))
        app = ServingApp(hub)
        yield app
        hub.stop()

    def post(self, app, payload):
        return app.handle(
            "POST", "/v1/models/m1/predict", json.dumps(payload).encode()
        )

    def test_trace_absent_by_default(self, app, raw_graphs):
        wire = {"graph": program_graph_to_dict(raw_graphs[0])}
        status, payload, _ = self.post(app, wire)
        assert status == 200
        assert "trace" not in payload["result"]

    def test_opt_in_returns_spans_with_decode_time(self, app, raw_graphs):
        wire = {"graph": program_graph_to_dict(raw_graphs[0]), "trace": True}
        status, payload, _ = self.post(app, wire)
        assert status == 200
        trace = payload["result"]["trace"]
        assert MISS_SPANS <= set(trace)
        assert trace["decode_s"] > 0.0  # HTTP adds the wire-decode span

    def test_batch_opt_in(self, app, raw_graphs):
        wire = {
            "graphs": [program_graph_to_dict(graph) for graph in raw_graphs[:3]],
            "trace": True,
        }
        status, payload, _ = self.post(app, wire)
        assert status == 200
        for result in payload["results"]:
            assert "decode_s" in result["trace"]

    def test_non_bool_trace_is_a_400(self, app, raw_graphs):
        wire = {"graph": program_graph_to_dict(raw_graphs[0]), "trace": "yes"}
        status, payload, _ = self.post(app, wire)
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"


# ------------------------------------------------------- hub journal wiring


class TestHubJournal:
    def test_snapshot_and_health_carry_journal_and_drift(
        self, registry_root, raw_graphs, tmp_path
    ):
        hub = ModelHub(registry_root, journal_dir=str(tmp_path / "journal"))
        try:
            hub.load(DeploymentSpec(name="m1", artifact="demo"))
            hub.predict("m1", raw_graphs[0])
            snapshot = hub.snapshot()
            assert snapshot["journal"]["directory"] == str(tmp_path / "journal")
            health = hub.model_health("m1")
            assert health["drift"]["status"] == "insufficient-data"
            drift = hub.model_drift("m1")
            assert drift["model"] == "m1"
            assert drift["status"] == "insufficient-data"
        finally:
            hub.stop()
        reader = JournalReader(str(tmp_path / "journal"))
        records = reader.records()
        assert len(records) == 1
        assert records[0]["model"] == "m1"
        assert records[0]["artifact"].endswith("v0002")  # latest resolved
        assert records[0]["stages"]["infer_s"] > 0.0

    def test_without_a_journal_drift_says_so(self, registry_root):
        hub = ModelHub(registry_root)
        try:
            hub.load(DeploymentSpec(name="m1", artifact="demo"))
            assert hub.model_drift("m1")["status"] == "no-journal"
            assert hub.model_health("m1")["drift"] is None
        finally:
            hub.stop()


# --------------------------------------------------- the acceptance demo


class TestObservabilityEndToEnd:
    """The ISSUE acceptance scenario, in one journey."""

    def test_journal_replay_and_drift(self, registry_root, raw_graphs, tmp_path, capsys):
        journal_dir = str(tmp_path / "journal")
        hub = ModelHub(
            registry_root,
            journal_dir=journal_dir,
            drift_config=DriftConfig(
                recent_window=8, baseline_window=16, min_samples=8
            ),
        )
        hub.load(DeploymentSpec(name="old", artifact="demo", version="v0001"))
        hub.load(DeploymentSpec(name="new", artifact="demo", version="v0002"))
        app = ServingApp(hub)

        # 1. Serve recorded traffic to both versions over HTTP.
        served_labels = []
        for repeat in range(4):
            for graph in raw_graphs:
                status, payload, _ = app.handle(
                    "POST",
                    "/v1/models/new/predict",
                    json.dumps(
                        {"graph": program_graph_to_dict(graph), "trace": True}
                    ).encode(),
                )
                assert status == 200
                served_labels.append(payload["result"]["label"])
        status, _, _ = app.handle(
            "POST",
            "/v1/models/old/predict",
            json.dumps({"graph": program_graph_to_dict(raw_graphs[0])}).encode(),
        )
        assert status == 200

        # 2. A synthetic agreement collapse on 'old': inject journal records
        #    directly (the drift detector reads the live per-model window).
        for i in range(16):
            hub.journal.record(
                {
                    "ts": float(i),
                    "model": "old",
                    "label": 0,
                    "agreement": 1.0 if i < 8 else 0.2,
                    "cache_hit": False,
                    "batch_size": 1,
                    "latency_s": 0.001,
                    "stages": {},
                    "graph": None,
                }
            )
        status, drift, _ = app.handle("GET", "/v1/models/old/drift")
        assert status == 200
        assert drift["status"] == "drift"
        assert "agreement-collapse" in [a["kind"] for a in drift["alerts"]]
        status, health, _ = app.handle("GET", "/v1/models/old")
        assert health["drift"]["status"] == "drift"
        # Stable traffic on 'new' stays quiet.
        status, drift, _ = app.handle("GET", "/v1/models/new/drift")
        assert status == 200 and drift["status"] in ("ok", "insufficient-data")

        hub.stop()  # flushes and closes the journal

        # 3. The journal captured every request, with spans and graphs.
        reader = JournalReader(journal_dir)
        new_records = reader.records(model="new")
        assert len(new_records) == len(raw_graphs) * 4
        for record in new_records:
            assert record["artifact"].endswith("v0002")
            assert "total_s" in record["stages"]
            assert record["stages"]["cache_lookup_s"] >= 0.0
        misses = [r for r in new_records if not r["cache_hit"]]
        assert misses and all(r["stages"]["infer_s"] > 0.0 for r in misses)
        assert all(r["batch_size"] > 0 for r in misses)
        assert reader.torn_tails == []

        # 4. The CLI query reproduces the served label distribution.
        journalled = {}
        for label in sorted(set(served_labels)):
            assert (
                journal_main(
                    [
                        "query",
                        "--dir",
                        journal_dir,
                        "--model",
                        "new",
                        "--label",
                        str(label),
                        "--count",
                    ]
                )
                == 0
            )
            journalled[label] = int(capsys.readouterr().out.strip())
        served = {}
        for label in served_labels:
            served[label] = served.get(label, 0) + 1
        assert journalled == served

        # 5. Deterministic A/B replay of the recorded traffic through both
        #    versions, offline.
        registry = ArtifactRegistry(registry_root)
        side_a = PredictionService.from_artifact(
            registry.load("demo", "v0001"),
            batching=BatchingConfig(max_batch_size=16),
            cache=EmbeddingCache(1024),
        )
        side_b = PredictionService.from_artifact(
            registry.load("demo", "v0002"),
            batching=BatchingConfig(max_batch_size=16),
            cache=EmbeddingCache(1024),
        )
        report = replay_ab(
            new_records, side_a, side_b, names=("v0001", "v0002")
        )
        assert report["requests"] == len(new_records)
        assert report["skipped_no_graph"] == 0
        # Side B is the model that served the traffic: the replay must
        # reproduce the journalled labels exactly.
        assert report["v0002"]["label_distribution"] == (
            reader.label_distribution(model="new")
        )
        for disagreement in report["disagreements"]:
            assert disagreement["v0002"] == disagreement["journalled_label"]
        # And the whole replay is deterministic.
        repeat = replay_ab(new_records, side_a, side_b, names=("v0001", "v0002"))
        assert repeat["agreement_rate"] == report["agreement_rate"]
        assert repeat["disagreements"] == report["disagreements"]

    def test_replayable_graphs_round_trip(self, registry_root, raw_graphs, tmp_path):
        journal_dir = str(tmp_path / "journal")
        hub = ModelHub(registry_root, journal_dir=journal_dir)
        hub.load(DeploymentSpec(name="m1", artifact="demo"))
        hub.predict("m1", raw_graphs[0])
        hub.stop()
        records = JournalReader(journal_dir).records()
        graphs, replayed, skipped = replayable_graphs(records)
        assert skipped == 0
        assert graphs[0].num_nodes == raw_graphs[0].num_nodes
