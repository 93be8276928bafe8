"""Tests for the calibrated latency cost model and its three consumers.

Covers :class:`PlanShape` feature extraction, the analytic
:class:`LatencyCostModel` (predictions + wire codec), least-squares
calibration from journalled per-stage spans (including the registry
round-trip: fit → save → load → identical predictions), deadline-aware
batch closing in both batchers, the :class:`AdmissionController` budgets,
SLO-aware shedding under burst through the full HTTP app (structured
"over-capacity" 429s with ``Retry-After``, zero 500s, co-tenant
unaffected), the capacity report (``GET /v1/capacity``), operator
quarantine ("deployment-quarantined" 503s), the nested
``batching``/``slo`` spec blocks (and the retired flat knobs the wire
rejects), and the ``repro-serve`` CLI's machine-readable error
convention.
"""

import json
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import PlanShape, build_plan
from repro.graphs import GraphBuilder, GraphEncoder
from repro.graphs.batching import collate
from repro.core import StaticConfigurationPredictor, StaticModelConfig
from repro.serving import (
    AdmissionController,
    ArtifactError,
    ArtifactRegistry,
    BatcherWorkerPool,
    BatchingConfig,
    CalibrationError,
    CostModelCalibrator,
    DeploymentQuarantinedError,
    DeploymentSpec,
    DeploymentSpecError,
    JournalReader,
    LatencyCostModel,
    ModelHub,
    OverCapacityError,
    SLOConfig,
    ServingApp,
    cost_model_summary,
    deployment_spec_from_dict,
    deployment_spec_to_dict,
    estimate_capacity,
    load_cost_model,
    program_graph_to_dict,
    save_cost_model,
)
from repro.serving.costmodel import (
    COST_MODEL_FILE,
    DEFAULT_COST_MODEL_NAME,
    build_admission,
    retry_after_header,
)

NUM_LABELS = 4


def small_predictor(seed=3):
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
    root = tmp_path_factory.mktemp("costmodel-registry")
    registry = ArtifactRegistry(root)
    registry.save("demo", small_predictor(seed=1))
    registry.save("other", small_predictor(seed=2))
    return str(root)


def fake_encoded(nodes, relations):
    """A stand-in encoded graph: ``token_ids`` + ``relations`` mapping."""
    return SimpleNamespace(
        token_ids=np.zeros(nodes, dtype=np.int64),
        relations={
            name: np.zeros((2, edges), dtype=np.int64)
            for name, edges in relations.items()
        },
    )


def toy_model(reference=None):
    """A hand-written model with known, strictly positive coefficients."""
    return LatencyCostModel(
        plan_build=(1e-5, 2e-5, 1e-4),
        infer=(3e-5, 1e-5, 2e-4, 5e-4),
        overhead=(1e-4, 2e-4),
        reference_shape=reference or PlanShape(1, 40, 80, 3),
        meta={"mape": 0.05, "batches": 10},
    )


# --------------------------------------------------------------- PlanShape


class TestPlanShape:
    def test_of_encoded_counts_raw_directed_edges(self):
        graphs = [
            fake_encoded(5, {"cfg": 3, "data": 2}),
            fake_encoded(7, {"cfg": 4, "call": 0}),
        ]
        shape = PlanShape.of_encoded(graphs)
        assert shape.num_graphs == 2
        assert shape.num_nodes == 12
        assert shape.num_edges == 9  # zero-edge relations don't count
        assert shape.num_relations == 2  # 'call' never carried an edge

    def test_plan_shape_matches_plan_counters(self, raw_graphs):
        encoder = GraphEncoder()
        encoded = [encoder.encode(graph) for graph in raw_graphs[:3]]
        plan = build_plan(collate(encoded))
        shape = plan.shape()
        assert shape.num_graphs == plan.num_graphs
        assert shape.num_nodes == plan.num_nodes
        assert shape.num_edges > 0
        assert shape.num_relations > 0

    def test_scaled_and_dict_round_trip(self):
        shape = PlanShape(2, 10, 20, 3)
        doubled = shape.scaled(2)
        assert (doubled.num_graphs, doubled.num_nodes, doubled.num_edges) == (
            4,
            20,
            40,
        )
        assert doubled.num_relations == 3  # structural, does not scale
        assert PlanShape.from_dict(shape.to_dict()) == shape


# ------------------------------------------------------------------- model


class TestLatencyCostModel:
    def test_predictions_compose_and_grow_with_load(self):
        model = toy_model()
        small = PlanShape(1, 10, 20, 2)
        large = PlanShape(8, 80, 160, 2)
        assert model.predict_batch_latency(small) == pytest.approx(
            model.predict_plan_build(small)
            + model.predict_infer(small)
            + model.predict_overhead(small)
        )
        assert model.predict_batch_latency(large) > model.predict_batch_latency(
            small
        )
        # Fold fan-out multiplies the inference term only.
        assert model.predict_infer(small, folds=3) > model.predict_infer(small)
        assert model.predict_plan_build(small) == pytest.approx(
            10 * 1e-5 + 20 * 2e-5 + 1e-4
        )

    def test_predictions_clamp_at_zero(self):
        model = LatencyCostModel(
            plan_build=(-1.0, 0.0, 0.0),
            infer=(0.0, 0.0, 0.0, -1.0),
            overhead=(0.0, -1.0),
            reference_shape=PlanShape(1, 1, 1, 1),
        )
        assert model.predict_batch_latency(PlanShape(1, 5, 5, 1)) == 0.0

    def test_dict_round_trip(self):
        model = toy_model()
        restored = LatencyCostModel.from_dict(model.to_dict())
        assert restored.plan_build == model.plan_build
        assert restored.infer == model.infer
        assert restored.overhead == model.overhead
        assert restored.reference_shape == model.reference_shape
        assert restored.meta["mape"] == model.meta["mape"]

    def test_from_dict_rejects_bad_payloads(self):
        with pytest.raises(ValueError, match="schema"):
            LatencyCostModel.from_dict({"schema": 99})
        payload = toy_model().to_dict()
        payload["stages"]["infer"] = [1.0, 2.0]  # wrong arity
        with pytest.raises(ValueError, match="arity"):
            LatencyCostModel.from_dict(payload)


# ------------------------------------------------------------- calibration


TRUE_PLAN = (2e-6, 1e-6, 5e-5)
TRUE_INFER = (4e-6, 2e-6, 1e-4, 2e-4)
TRUE_OVERHEAD = (5e-5, 1e-4)


def synthetic_records(batches=24, folds=2, model="m", seed=0):
    """Journal records with exactly-linear stage latencies (and per-batch
    duplicate records, as the real journal writes one per request)."""
    rng = np.random.default_rng(seed)
    records = []
    for seq in range(1, batches + 1):
        graphs = int(rng.integers(1, 9))
        nodes = graphs * int(rng.integers(20, 61))
        edges = graphs * int(rng.integers(40, 121))
        plan_build = TRUE_PLAN[0] * nodes + TRUE_PLAN[1] * edges + TRUE_PLAN[2]
        infer = (
            TRUE_INFER[0] * folds * nodes
            + TRUE_INFER[1] * folds * edges
            + TRUE_INFER[2] * folds * graphs
            + TRUE_INFER[3]
        )
        overhead = TRUE_OVERHEAD[0] * graphs + TRUE_OVERHEAD[1]
        record = {
            "model": model,
            "artifact": "m@v0001",
            "cache_hit": False,
            "batch": {
                "seq": seq,
                "graphs": graphs,
                "nodes": nodes,
                "edges": edges,
                "relations": 3,
                "folds": folds,
            },
            "stages": {"plan_build_s": plan_build, "infer_s": infer},
            "latency_s": plan_build + infer + overhead,
        }
        for _ in range(graphs):  # one journal record per batched request
            records.append(dict(record))
    return records


class TestCalibration:
    def test_fit_recovers_known_coefficients(self):
        records = synthetic_records()
        model = CostModelCalibrator(min_batches=8).fit(records)
        assert model.plan_build == pytest.approx(TRUE_PLAN, rel=1e-3, abs=1e-9)
        assert model.infer == pytest.approx(TRUE_INFER, rel=1e-3, abs=1e-9)
        assert model.overhead == pytest.approx(
            TRUE_OVERHEAD, rel=1e-3, abs=1e-9
        )
        assert model.meta["mape"] <= 0.01  # exactly linear data
        assert model.meta["batches"] == 24
        probe = PlanShape(4, 120, 300, 3)
        expected = (
            TRUE_PLAN[0] * 120 + TRUE_PLAN[1] * 300 + TRUE_PLAN[2]
        ) + (
            TRUE_INFER[0] * 2 * 120
            + TRUE_INFER[1] * 2 * 300
            + TRUE_INFER[2] * 2 * 4
            + TRUE_INFER[3]
        ) + (TRUE_OVERHEAD[0] * 4 + TRUE_OVERHEAD[1])
        assert model.predict_batch_latency(probe, folds=2) == pytest.approx(
            expected, rel=0.02
        )

    def test_pause_hit_spans_do_not_bend_the_fit(self):
        # Timing jitter of a few percent on every span, plus three batches
        # whose infer span (and so their latency) absorbed a 50 ms pause.
        rng = np.random.default_rng(3)
        records = synthetic_records(batches=40)
        by_seq = {}
        for record in records:
            by_seq.setdefault(record["batch"]["seq"], []).append(record)
        for seq, members in by_seq.items():
            jitter = float(rng.uniform(0.97, 1.03))
            pause = 0.05 if seq in (5, 17, 33) else 0.0
            stages = {
                "plan_build_s": members[0]["stages"]["plan_build_s"] * jitter,
                "infer_s": members[0]["stages"]["infer_s"] * jitter + pause,
            }
            latency = members[0]["latency_s"] * jitter + pause
            for member in members:
                member["stages"] = stages
                member["latency_s"] = latency
        model = CostModelCalibrator(min_batches=8).fit(records)
        assert model.infer == pytest.approx(TRUE_INFER, rel=0.15, abs=2e-5)
        probe = PlanShape(4, 120, 300, 3)
        clean = CostModelCalibrator(min_batches=8).fit(synthetic_records(batches=40))
        assert model.predict_batch_latency(probe, folds=2) == pytest.approx(
            clean.predict_batch_latency(probe, folds=2), rel=0.05
        )
        # The paused batches still count against the in-sample error.
        assert 0.0 < model.meta["mape"] <= 0.35

    def test_duplicate_records_count_once(self):
        records = synthetic_records(batches=10)
        rows = CostModelCalibrator(min_batches=2).rows(records)
        assert len(rows) == 10  # deduplicated on (model, artifact, seq)

    def test_model_filter_and_cache_hits_skipped(self):
        records = synthetic_records(batches=10, model="a")
        records += synthetic_records(batches=10, model="b", seed=1)
        records.append({"model": "a", "cache_hit": True, "latency_s": 0.1})
        calibrator = CostModelCalibrator(min_batches=2)
        assert len(calibrator.rows(records, model="a")) == 10

    def test_too_few_batches_raises(self):
        with pytest.raises(CalibrationError, match="at least 8"):
            CostModelCalibrator(min_batches=8).fit(synthetic_records(batches=3))

    def test_reference_shape_is_per_request(self):
        model = CostModelCalibrator(min_batches=2).fit(synthetic_records())
        reference = model.reference_shape
        assert reference.num_graphs == 1
        assert 20 <= reference.num_nodes <= 60
        assert 40 <= reference.num_edges <= 120


# -------------------------------------------------- registry persistence


class TestRegistryRoundTrip:
    def test_fit_save_load_identical_predictions(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        fitted = CostModelCalibrator(min_batches=8).fit(synthetic_records())
        ref = save_cost_model(registry, fitted)
        assert (ref.name, ref.version) == (DEFAULT_COST_MODEL_NAME, "v0001")

        loaded = load_cost_model(registry)
        probes = [PlanShape(1, 30, 60, 3), PlanShape(6, 200, 500, 3)]
        for probe in probes:
            for folds in (1, 3):
                assert loaded.predict_batch_latency(
                    probe, folds=folds
                ) == pytest.approx(
                    fitted.predict_batch_latency(probe, folds=folds)
                )
        assert loaded.meta["artifact"] == f"{DEFAULT_COST_MODEL_NAME}@v0001"
        assert loaded.meta["mape"] == fitted.meta["mape"]

        # A re-fit becomes the next version and "latest" tracks it.
        save_cost_model(registry, fitted)
        assert load_cost_model(registry).meta["artifact"].endswith("@v0002")
        pinned = load_cost_model(registry, version="v0001")
        assert pinned.meta["artifact"].endswith("@v0001")

    def test_load_rejects_non_cost_model_artifacts(self, registry_root):
        registry = ArtifactRegistry(registry_root)
        with pytest.raises(ArtifactError, match="not a cost-model"):
            load_cost_model(registry, "demo")

    def test_load_rejects_corrupt_payload(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        ref = save_cost_model(registry, toy_model())
        payload = f"{ref.path}/{COST_MODEL_FILE}"
        with open(payload, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        with pytest.raises(ArtifactError, match="corrupt"):
            load_cost_model(registry)

    def test_summary_shape(self):
        assert cost_model_summary(None) is None
        summary = cost_model_summary(toy_model())
        assert set(summary) == {
            "artifact",
            "mape",
            "batches",
            "fitted_unix",
            "reference_shape",
        }
        assert summary["mape"] == 0.05


# ------------------------------------------------- deadline-aware closing


class TestDeadlineClosing:
    def run_burst(self, batcher, items=16):
        sizes = []
        batcher.start()
        try:
            futures = [batcher.submit(i) for i in range(items)]
            for future in futures:
                future.result(timeout=10)
        finally:
            batcher.close()
        return sizes

    def pooled(self, runner, cost_estimator):
        pool = BatcherWorkerPool(workers=1)
        batcher = pool.batcher_factory(
            runner,
            max_batch_size=16,
            max_wait_s=0.05,
            cost_estimator=cost_estimator,
            latency_target_s=0.01,
        )
        return pool, batcher

    def test_microbatcher_seals_at_predicted_deadline(self):
        sizes = []

        def runner(batch):
            sizes.append(len(batch))
            return list(batch)

        pool, batcher = self.pooled(runner, lambda items: 0.004 * len(items))
        with pool:
            self.run_burst(batcher)
        assert sizes  # something ran
        # 3 items predict 12ms > 10ms target: every sealed batch holds <= 2.
        assert max(sizes) <= 2
        assert batcher.telemetry()["deadline_sealed"] >= 1
        for size in sizes:
            assert 0.004 * size <= 0.01

    def test_microbatcher_estimator_abstains(self):
        pool, batcher = self.pooled(
            lambda batch: list(batch),
            lambda items: None,  # no model bound yet
        )
        with pool:
            self.run_burst(batcher)
        assert batcher.telemetry()["deadline_sealed"] == 0

    def test_pooled_batcher_seals_at_predicted_deadline(self):
        sizes = []

        def runner(batch):
            sizes.append(len(batch))
            return list(batch)

        pool = BatcherWorkerPool(workers=1)
        try:
            batcher = pool.batcher_factory(
                runner,
                max_batch_size=16,
                max_wait_s=0.05,
                cost_estimator=lambda items: 0.004 * len(items),
                latency_target_s=0.01,
            ).start()
            futures = [batcher.submit(i) for i in range(16)]
            for future in futures:
                future.result(timeout=10)
            assert max(sizes) <= 2
            assert batcher.telemetry()["deadline_sealed"] >= 1
        finally:
            pool.close()

    def test_deadline_knobs_validated(self):
        with pytest.raises(ValueError, match="latency_target_s"):
            BatcherWorkerPool(workers=1).batcher_factory(
                lambda items: items, latency_target_s=0.0
            )


# ------------------------------------------------------ admission control


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestAdmissionController:
    def test_inflight_budget(self):
        admission = AdmissionController(max_inflight=2)
        assert admission.try_acquire()
        assert admission.try_acquire()
        assert not admission.try_acquire()
        admission.release()
        assert admission.try_acquire()
        stats = admission.stats()
        assert stats["admitted"] == 3
        assert stats["shed"] == 1
        assert stats["inflight"] == 2

    def test_token_bucket_refills_with_time(self):
        clock = FakeClock()
        admission = AdmissionController(qps_limit=10, burst=2, clock=clock)
        assert admission.try_acquire()
        assert admission.try_acquire()
        assert not admission.try_acquire()  # bucket drained
        clock.advance(0.15)  # 1.5 tokens refill at 10 QPS
        assert admission.try_acquire()
        assert not admission.try_acquire()  # the half-token doesn't admit

    def test_acquire_raises_structured_error(self):
        admission = AdmissionController(max_inflight=1, retry_after_s=0.25)
        admission.acquire()
        with pytest.raises(OverCapacityError, match="max_inflight=1") as info:
            admission.acquire()
        assert info.value.retry_after_s == 0.25
        admission.release()  # a shed consumed no slot, only the admit did
        with admission.guard(1):
            pass

    def test_guard_releases_on_error(self):
        admission = AdmissionController(max_inflight=1)
        with pytest.raises(RuntimeError, match="boom"):
            with admission.guard():
                raise RuntimeError("boom")
        assert admission.stats()["inflight"] == 0

    def test_build_admission_policies(self):
        assert build_admission(None, None) is None
        observe = SLOConfig(p95_ms=10)  # shed_policy defaults to "none"
        assert build_admission(observe, None) is None

        bare = build_admission(
            SLOConfig(shed_policy="shed"), None, max_batch_size=8
        )
        assert bare.max_inflight == 16  # fallback: 2x batch window
        assert bare.qps_limit is None

        explicit = build_admission(
            SLOConfig(max_concurrency=3, shed_policy="shed"), None
        )
        assert explicit.max_inflight == 3

        with_model = build_admission(
            SLOConfig(p95_ms=50.0, max_queue_ms=100.0, shed_policy="shed"),
            toy_model(),
            folds=1,
            max_batch_size=8,
        )
        assert with_model.qps_limit is not None
        assert with_model.qps_limit > 0

    def test_retry_after_header_rounds_up(self):
        assert retry_after_header(0.01) == "1"
        assert retry_after_header(1.2) == "2"
        assert retry_after_header(3.0) == "3"


# ---------------------------------------------------- capacity estimation


class TestEstimateCapacity:
    def test_optimal_batch_respects_target(self):
        model = toy_model()
        unbounded = estimate_capacity(model, max_batch_size=16)
        assert unbounded["optimal_batch"] == 16
        assert unbounded["within_target"] is None

        tight = estimate_capacity(
            model,
            max_batch_size=16,
            p95_target_s=model.predict_batch_latency(
                model.reference_shape.scaled(4)
            ),
        )
        assert 1 <= tight["optimal_batch"] <= 4
        assert tight["within_target"] is True
        assert tight["sustainable_qps"] == pytest.approx(
            tight["optimal_batch"] / tight["batch_s"]
        )
        # More folds cost more, so fewer requests fit under the same target.
        folded = estimate_capacity(
            model,
            folds=8,
            max_batch_size=16,
            p95_target_s=tight["p95_target_s"],
        )
        assert folded["optimal_batch"] <= tight["optimal_batch"]


# ---------------------------------------------- hub + HTTP integration


@pytest.fixture()
def slo_hub(registry_root):
    """Two co-tenant deployments: 'limited' sheds at one in flight,
    'open' has no SLO.  Caching is off so every request runs a batch."""
    hub = ModelHub(registry_root, enable_cache=False)
    hub.load(
        DeploymentSpec(
            name="limited",
            artifact="demo",
            enable_cache=False,
            batching=BatchingConfig(max_batch_size=1, max_delay_s=0.0),
            slo=SLOConfig(
                p95_ms=500.0, max_concurrency=1, shed_policy="shed"
            ),
        )
    )
    hub.load(
        DeploymentSpec(
            name="open",
            artifact="other",
            enable_cache=False,
            batching=BatchingConfig(max_delay_s=0.0),
        )
    )
    return hub


def _slow_down(predictor, delay_s):
    """Wrap the deployment's forward pass with a sleep (a slow-infer stub)."""
    original = predictor._forward_batch

    def slow(batch, size, trace):
        time.sleep(delay_s)
        return original(batch, size, trace)

    predictor._forward_batch = slow


class TestShedUnderBurst:
    def test_burst_sheds_structured_429s_without_500s(
        self, slo_hub, raw_graphs
    ):
        app = ServingApp(slo_hub)
        _slow_down(slo_hub.resolve("limited").predictor, 0.08)
        app.start()
        try:
            body = json.dumps(
                {"graph": program_graph_to_dict(raw_graphs[0])}
            ).encode("utf-8")
            statuses = []
            headers_seen = []
            lock = threading.Lock()

            def fire():
                status, payload, headers = app.handle(
                    "POST", "/v1/models/limited/predict", body
                )
                with lock:
                    statuses.append((status, payload))
                    headers_seen.append(headers)

            threads = [threading.Thread(target=fire) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            codes = [status for status, _ in statuses]
            assert 500 not in codes and 504 not in codes
            assert codes.count(200) >= 1
            shed = [
                (status, payload)
                for status, payload in statuses
                if status == 429
            ]
            assert shed  # the burst exceeded max_concurrency=1
            for status, payload in shed:
                assert payload["error"]["code"] == "over-capacity"
            retry_after = [
                headers.get("Retry-After")
                for headers, (status, _) in zip(headers_seen, statuses)
                if status == 429
            ]
            assert all(value and int(value) >= 1 for value in retry_after)

            # The co-tenant shares the hub but not the budget: its requests
            # all succeed while 'limited' is shedding.
            for graph in raw_graphs[:3]:
                status, payload, _ = app.handle(
                    "POST",
                    "/v1/models/open/predict",
                    json.dumps(
                        {"graph": program_graph_to_dict(graph)}
                    ).encode("utf-8"),
                )
                assert status == 200

            snapshot = slo_hub.resolve("limited").predictor.snapshot()
            assert snapshot["shed_requests"] == len(shed)
            assert snapshot["admission"]["shed"] >= len(shed)
        finally:
            app.stop()

    def test_batch_bodies_charge_admission(self, slo_hub, raw_graphs):
        app = ServingApp(slo_hub)
        # Unstarted app: batch bodies go straight to predict_many under
        # admission_guard(len(graphs)) — 3 graphs against max_inflight=1.
        body = json.dumps(
            {
                "graphs": [
                    program_graph_to_dict(graph) for graph in raw_graphs[:3]
                ]
            }
        ).encode("utf-8")
        status, payload, headers = app.handle(
            "POST", "/v1/models/limited/predict", body
        )
        assert status == 429
        assert payload["error"]["code"] == "over-capacity"
        assert int(headers["Retry-After"]) >= 1

    def test_hub_sync_predict_sheds(self, slo_hub, raw_graphs):
        with pytest.raises(OverCapacityError):
            slo_hub.predict_many("limited", raw_graphs[:3])
        # Within budget works (and the shed was released, not leaked).
        result = slo_hub.predict("limited", raw_graphs[0])
        assert result.label is not None


class TestCapacityReport:
    def test_report_shape_and_http_route(self, slo_hub, raw_graphs):
        fitted = CostModelCalibrator(min_batches=2).fit(synthetic_records())
        slo_hub.set_cost_model(fitted)
        app = ServingApp(slo_hub)

        status, report, _ = app.handle("GET", "/v1/capacity")
        assert status == 200
        assert set(report["models"]) == {"limited", "open"}
        limited = report["models"]["limited"]
        assert limited["slo"]["max_concurrency"] == 1
        assert limited["slo"]["shed_policy"] == "shed"
        assert limited["quarantined"] is None
        assert limited["predicted"]["sustainable_qps"] > 0
        assert limited["max_batch_size"] == 1
        open_entry = report["models"]["open"]
        assert open_entry["slo"] is None
        assert report["cost_model"]["mape"] == fitted.meta["mape"]
        assert report["total_sustainable_qps"] > 0

        status, single, _ = app.handle("GET", "/v1/models/open/capacity")
        assert status == 200
        assert list(single["models"]) == ["open"]

        status, _, headers = app.handle("HEAD", "/v1/capacity")
        assert status == 200

    def test_capacity_without_model_is_honest(self, slo_hub):
        report = slo_hub.capacity_report()
        assert report["cost_model"] is None
        assert report["total_sustainable_qps"] is None
        assert report["models"]["limited"]["predicted"] is None

    def test_reload_cost_model_from_registry(self, tmp_path):
        # A private registry: registry_root stays read-only (the CLI tests
        # below depend on it holding no cost-model artifact).
        registry = ArtifactRegistry(tmp_path)
        registry.save("demo", small_predictor(seed=1))
        fitted = CostModelCalibrator(min_batches=2).fit(synthetic_records())
        save_cost_model(registry, fitted)
        hub = ModelHub(str(tmp_path), enable_cache=False)
        hub.load(
            DeploymentSpec(name="m", artifact="demo", enable_cache=False)
        )
        loaded = hub.reload_cost_model()
        assert hub.cost_model is loaded
        assert loaded.meta["artifact"].startswith(DEFAULT_COST_MODEL_NAME)
        report = hub.capacity_report()
        assert report["models"]["m"]["predicted"]["request_s"] > 0


class TestQuarantine:
    def test_quarantine_503s_and_restores(self, slo_hub, raw_graphs):
        app = ServingApp(slo_hub)
        body = json.dumps(
            {"graph": program_graph_to_dict(raw_graphs[0])}
        ).encode("utf-8")

        status, payload, _ = app.handle(
            "POST",
            "/v1/models/open/quarantine",
            json.dumps({"quarantined": True, "reason": "bad calibration"}).encode(),
        )
        assert status == 200 and payload["quarantined"] is True

        status, payload, _ = app.handle(
            "POST", "/v1/models/open/predict", body
        )
        assert status == 503
        assert payload["error"]["code"] == "deployment-quarantined"
        assert "bad calibration" in payload["error"]["message"]
        with pytest.raises(DeploymentQuarantinedError):
            slo_hub.predict("open", raw_graphs[0])
        # Introspection still answers while fenced.
        status, _, _ = app.handle("GET", "/v1/models/open")
        assert status == 200

        status, payload, _ = app.handle(
            "POST",
            "/v1/models/open/quarantine",
            json.dumps({"quarantined": False}).encode(),
        )
        assert status == 200 and payload["quarantined"] is False
        status, _, _ = app.handle("POST", "/v1/models/open/predict", body)
        assert status == 200

    def test_quarantine_validation(self, slo_hub):
        app = ServingApp(slo_hub)
        status, payload, _ = app.handle(
            "POST",
            "/v1/models/open/quarantine",
            json.dumps({"quarantined": "yes"}).encode(),
        )
        assert status == 400
        status, payload, _ = app.handle(
            "POST",
            "/v1/models/nope/quarantine",
            json.dumps({"quarantined": True}).encode(),
        )
        assert status == 404

    def test_unload_clears_quarantine(self, registry_root):
        hub = ModelHub(registry_root, enable_cache=False)
        hub.load(DeploymentSpec(name="m", artifact="demo", enable_cache=False))
        hub.quarantine("m", "testing")
        assert hub.quarantined() == {"m": "testing"}
        hub.unload("m")
        assert hub.quarantined() == {}


class TestJournalToCapacityEndToEnd:
    def test_served_traffic_calibrates_a_model(
        self, tmp_path, registry_root, raw_graphs
    ):
        journal_dir = str(tmp_path / "journal")
        hub = ModelHub(
            registry_root, enable_cache=False, journal_dir=journal_dir
        )
        hub.load(
            DeploymentSpec(name="m", artifact="demo", enable_cache=False)
        )
        with hub:
            for graph in raw_graphs:
                hub.predict("m", graph)
        rows = JournalReader(journal_dir).calibration_rows(model="m")
        assert len(rows) == len(raw_graphs)
        for row in rows:
            assert row["graphs"] == 1.0
            assert row["nodes"] > 0 and row["edges"] > 0
            assert row["batch_latency_s"] > 0

        fitted = CostModelCalibrator(min_batches=2).fit(
            JournalReader(journal_dir), model="m"
        )
        assert fitted.meta["batches"] == len(raw_graphs)
        registry = ArtifactRegistry(tmp_path / "cm-registry")
        save_cost_model(registry, fitted)
        reloaded = load_cost_model(registry)
        probe = fitted.reference_shape.scaled(4)
        assert reloaded.predict_batch_latency(probe) == pytest.approx(
            fitted.predict_batch_latency(probe)
        )


# ------------------------------------------------ spec blocks & codecs


class TestSpecSLOBlocks:
    def test_nested_blocks_round_trip(self):
        spec = DeploymentSpec(
            name="m",
            artifact="demo",
            batching=BatchingConfig(max_batch_size=4, max_delay_s=0.01),
            slo=SLOConfig(p95_ms=25.0, max_concurrency=8, shed_policy="shed"),
        )
        data = deployment_spec_to_dict(spec)
        assert data["batching"] == {"max_batch_size": 4, "max_delay_s": 0.01}
        assert data["slo"]["p95_ms"] == 25.0
        assert deployment_spec_from_dict(data) == spec

    def test_absent_batching_block_takes_the_defaults(self):
        spec = DeploymentSpec(name="m", artifact="demo")
        assert spec.batching == BatchingConfig()
        assert deployment_spec_from_dict(
            {"name": "m", "artifact": "demo", "batching": None}
        ) == spec

    @pytest.mark.parametrize(
        "field", ["max_batch_size", "max_wait_s", "batcher_workers", "cache_capacity"]
    )
    def test_retired_knobs_rejected(self, field):
        with pytest.raises(DeploymentSpecError, match=field):
            deployment_spec_from_dict({"name": "m", "artifact": "demo", field: 4})

    def test_batching_workers_is_rejected_on_the_wire(self):
        with pytest.raises(DeploymentSpecError, match="workers"):
            deployment_spec_from_dict(
                {"name": "m", "artifact": "demo", "batching": {"workers": 2}}
            )

    def test_block_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchingConfig(max_batch_size=0)
        with pytest.raises(ValueError, match="shed_policy"):
            SLOConfig(shed_policy="drop")
        with pytest.raises(ValueError, match="p95_ms"):
            SLOConfig(p95_ms=-1)
        with pytest.raises(DeploymentSpecError, match="unknown field"):
            deployment_spec_from_dict(
                {"name": "m", "artifact": "a", "slo": {"p95": 10}}
            )
        with pytest.raises(DeploymentSpecError, match="'slo' must be"):
            DeploymentSpec(name="m", artifact="a", slo={"p95_ms": 10})

    def test_slo_reaches_the_frontend(self, registry_root):
        hub = ModelHub(registry_root, enable_cache=False)
        deployment = hub.load(
            DeploymentSpec(
                name="m",
                artifact="demo",
                enable_cache=False,
                slo=SLOConfig(p95_ms=40.0, shed_policy="shed"),
            )
        )
        capacity = deployment.predictor.capacity()
        assert capacity["slo"]["p95_ms"] == 40.0
        assert capacity["admission"] is not None


# ------------------------------------------------------------ CLI errors


class TestServeCLIErrors:
    def run_main(self, argv, capsys):
        from repro.serving.__main__ import main

        code = main(argv)
        err = capsys.readouterr().err.strip()
        return code, err

    def assert_json_error(self, err, expected_code):
        lines = err.splitlines()
        assert len(lines) == 1  # exactly one machine-readable line
        payload = json.loads(lines[0])
        assert payload["error"]["code"] == expected_code
        assert payload["error"]["message"]

    def test_invalid_spec_exits_2_with_json(self, tmp_path, capsys):
        code, err = self.run_main(
            ["--root", str(tmp_path), "--name", "x", "--version", "bogus"],
            capsys,
        )
        assert code == 2
        self.assert_json_error(err, "invalid-spec")

    def test_nothing_to_serve_is_invalid_config(self, tmp_path, capsys):
        code, err = self.run_main(["--root", str(tmp_path)], capsys)
        assert code == 2
        self.assert_json_error(err, "invalid-config")

    @pytest.mark.parametrize("replicas", [[], ["--replicas", "2"]])
    def test_zero_cache_capacity_is_invalid_config(
        self, registry_root, capsys, replicas
    ):
        code, err = self.run_main(
            ["--root", registry_root, "--name", "demo", "--cache-capacity", "0"]
            + replicas,
            capsys,
        )
        assert code == 2
        self.assert_json_error(err, "invalid-config")
        assert "--cache-capacity" in err

    def test_missing_cost_model_is_invalid_config(self, registry_root, capsys):
        code, err = self.run_main(
            ["--root", registry_root, "--name", "demo",
             "--cost-model", "latency-cost-model"],
            capsys,
        )
        assert code == 2
        self.assert_json_error(err, "invalid-config")

    def test_slo_flags_build_specs(self, registry_root):
        from repro.serving.__main__ import build_parser, build_specs

        args = build_parser().parse_args(
            ["--root", registry_root, "--name", "demo",
             "--slo-p95-ms", "50", "--slo-max-concurrency", "4",
             "--shed-policy", "shed"]
        )
        (spec,) = build_specs(args)
        assert spec.slo == SLOConfig(
            p95_ms=50.0, max_concurrency=4, shed_policy="shed"
        )
