"""Tests for the multiprocess replica pool (:mod:`repro.serving.replica`).

Covers the picklable :class:`ReplicaConfig` (validation, per-slot path
derivations, the boot desired state), affinity-key determinism, end-to-end
parity of a two-replica pool against an in-process :class:`ModelHub`,
admin-op broadcast (load/alias/quarantine), honest cross-replica metric
merging (pooled percentiles from raw windows, never
percentiles-of-percentiles), per-replica journal isolation, and the
lifecycle machinery that is the whole point of the subsystem: SIGKILL a
worker mid-burst and nothing fails, recycle-after-N swaps PIDs without
pausing traffic, and a draining pool refuses new work with the right wire
error.

Process-spawning tests keep heartbeats fast (0.1–0.2 s) so failure
detection and recycling are observable inside a test timeout; everything
that can be asserted without spawning (config, affinity, wire-error
mapping) is.
"""

import json
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import StaticConfigurationPredictor, StaticModelConfig
from repro.graphs import GraphBuilder, GraphEncoder
from repro.serving import (
    ArtifactRegistry,
    DeploymentNotFoundError,
    DeploymentQuarantinedError,
    DeploymentSpec,
    JournalReader,
    ModelHub,
    ServingApp,
    deployment_spec_to_dict,
    program_graph_to_dict,
)
from repro.serving.costmodel import CostModelCalibrator, save_cost_model
from repro.serving.http import ERROR_CODES
from repro.serving.replica import supervisor as supervisor_module
from repro.serving.replica.transport import OP_INTROSPECT, OP_PREDICT_MANY
from repro.serving.replica import (
    DrainingError,
    ReplicaConfig,
    ReplicaSupervisor,
    ReplicaUnavailableError,
    default_start_method,
    request_affinity_key,
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
    return [builder.build_module(region.module) for region in small_suite][:8]


@pytest.fixture(scope="module")
def registry_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("replica-registry")
    registry = ArtifactRegistry(root)
    registry.save("demo", small_predictor(seed=1))
    registry.save("shadow", small_predictor(seed=2))
    return str(root)


def demo_spec():
    return deployment_spec_to_dict(DeploymentSpec(name="demo", artifact="demo"))


def make_config(registry_root, **overrides):
    kwargs = dict(
        registry_root=registry_root,
        replicas=2,
        specs=(demo_spec(),),
        heartbeat_interval_s=0.2,
        heartbeat_timeout_s=10.0,
    )
    kwargs.update(overrides)
    return ReplicaConfig(**kwargs)


def wait_until(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


# ---------------------------------------------------------------- config


class TestReplicaConfig:
    def test_validation_rejects_nonsense(self, registry_root):
        with pytest.raises(ValueError, match="replicas"):
            make_config(registry_root, replicas=0)
        with pytest.raises(ValueError, match="recycle_after"):
            make_config(registry_root, recycle_after=0)
        with pytest.raises(ValueError, match="heartbeat_interval_s"):
            make_config(registry_root, heartbeat_interval_s=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            make_config(registry_root, max_retries=-1)
        # A hub refuses a cache of no entries; so does every replica's.
        with pytest.raises(ValueError, match="cache_capacity"):
            make_config(registry_root, cache_capacity=0)
        with pytest.raises(ValueError, match="enable_cache"):
            make_config(
                registry_root, checkpoint_dir="/tmp/nowhere", enable_cache=False
            )

    def test_fork_is_banned(self, registry_root):
        # The supervisor is multithreaded; fork would inherit locks held
        # by reader/monitor threads that no longer exist in the child.
        with pytest.raises(ValueError, match="start_method"):
            make_config(registry_root, start_method="fork")

    def test_default_start_method_is_safe(self, registry_root):
        assert default_start_method() in ("forkserver", "spawn")
        config = make_config(registry_root)
        assert config.start_method == default_start_method()

    def test_per_slot_paths_are_disjoint_and_self_describing(self, registry_root):
        config = make_config(
            registry_root, journal_dir="/j", checkpoint_dir="/c"
        )
        assert config.slot_journal_dir(0) == os.path.join("/j", "replica-00")
        assert config.slot_journal_dir(7) == os.path.join("/j", "replica-07")
        assert config.slot_checkpoint_path(1) == os.path.join("/c", "replica-01.npz")
        bare = make_config(registry_root)
        assert bare.slot_journal_dir(0) is None
        assert bare.slot_checkpoint_path(0) is None

    def test_boot_state_is_built_by_the_hub_routing_policy(self, registry_root):
        shadow = deployment_spec_to_dict(
            DeploymentSpec(name="shadow", artifact="shadow")
        )
        config = make_config(
            registry_root,
            specs=(demo_spec(), shadow),
            aliases=[("prod", "shadow")],
            default="shadow",
            cost_model=("latency", None),
        )
        state = config.boot_state()
        assert sorted(state.routes.deployments) == ["demo", "shadow"]
        assert state.routes.aliases == {"prod": "shadow"}
        assert state.routes.default == "shadow"
        assert state.cost_model == ("latency", None)
        # Every load and the cost model got a distinct generation.
        generations = [g for _, g in state.routes.deployments.values()]
        generations.append(state.cost_model_generation)
        assert len(set(generations)) == 3
        # A boot set a hub would refuse fails with the hub's own error.
        with pytest.raises(DeploymentNotFoundError):
            make_config(registry_root, aliases=[("prod", "ghost")]).boot_state()

    def test_state_changes_apply_to_a_copy(self, registry_root):
        state = make_config(registry_root).boot_state()
        staged = state.copy()
        staged.reload("demo")
        staged.routes.alias("prod", "demo")
        staged.routes.quarantine("prod", "canary")
        assert staged.routes.quarantined == {"demo": "canary"}
        assert state.routes.aliases == {} and state.routes.quarantined == {}
        before, after = state.routes.deployments, staged.routes.deployments
        assert after["demo"][1] > before["demo"][1]


# -------------------------------------------------------------- affinity


class TestAffinityKey:
    def test_key_is_deterministic_per_graph(self, raw_graphs):
        for graph in raw_graphs:
            assert request_affinity_key(graph) == request_affinity_key(graph)

    def test_distinct_graphs_get_distinct_keys(self, raw_graphs):
        keys = {request_affinity_key(graph) for graph in raw_graphs}
        assert len(keys) == len(raw_graphs)

    def test_non_graph_requests_have_no_key(self):
        assert request_affinity_key(object()) is None


# ------------------------------------------------------ pool round-trips


@pytest.fixture(scope="module")
def pool(registry_root, tmp_path_factory):
    scratch = tmp_path_factory.mktemp("replica-pool")
    config = make_config(
        registry_root,
        journal_dir=str(scratch / "journal"),
        checkpoint_dir=str(scratch / "ckpt"),
        checkpoint_interval_s=0.3,
    )
    supervisor = ReplicaSupervisor(config)
    supervisor.start()
    yield supervisor
    supervisor.stop()


class TestPoolServing:
    def test_predictions_match_an_in_process_hub(
        self, pool, registry_root, raw_graphs
    ):
        hub = ModelHub(registry_root)
        hub.load(DeploymentSpec(name="demo", artifact="demo"))
        expected = [r.label for r in hub.predict_many("demo", raw_graphs)]
        hub.stop()

        single = [pool.predict("demo", graph).label for graph in raw_graphs]
        batched = [r.label for r in pool.predict_many("demo", raw_graphs)]
        assert single == expected
        assert batched == expected

    def test_submit_returns_a_future(self, pool, raw_graphs):
        future = pool.submit("demo", raw_graphs[0])
        assert future.result(timeout=30).label in range(NUM_LABELS)

    def test_hub_like_introspection_surface(self, pool):
        assert pool.names() == ["demo"]
        assert "demo" in pool
        assert len(pool) == 1
        assert pool.default_name == "demo"
        description = pool.describe()
        assert description["service"] == "replica-pool"
        assert len(description["replicas"]) == 2
        health = pool.model_health("demo")
        assert health["model"]["name"] == "demo"

    def test_unknown_model_raises_not_found(self, pool, raw_graphs):
        with pytest.raises(DeploymentNotFoundError):
            pool.predict("nope", raw_graphs[0])

    def test_admin_ops_broadcast_to_every_replica(self, pool, raw_graphs):
        pool.load(DeploymentSpec(name="shadow", artifact="shadow"))
        try:
            assert sorted(pool.names()) == ["demo", "shadow"]
            assert pool.predict("shadow", raw_graphs[0]).label in range(NUM_LABELS)
            pool.alias("prod", "shadow")
            assert pool.aliases() == {"prod": "shadow"}
            assert pool.predict("prod", raw_graphs[0]).label in range(NUM_LABELS)
            pool.quarantine("shadow", "bad canary")
            assert pool.quarantined() == {"shadow": "bad canary"}
            with pytest.raises(DeploymentQuarantinedError):
                pool.predict("shadow", raw_graphs[0])
            pool.unquarantine("shadow")
            assert pool.predict("shadow", raw_graphs[0]).label in range(NUM_LABELS)
        finally:
            pool.unalias("prod")
            pool.unload("shadow")
        assert pool.names() == ["demo"]

    def test_snapshot_merges_from_raw_windows(self, pool, raw_graphs):
        pool.predict_many("demo", raw_graphs)
        snapshot = pool.snapshot()
        aggregate = snapshot["aggregate"]
        assert aggregate["latency"]["merged_from_raw_windows"] is True
        assert aggregate["latency"]["samples"] >= len(raw_graphs)
        assert aggregate["total_requests"] >= len(raw_graphs)
        # Per-replica infrastructure lives under "replicas", keyed by slot.
        assert sorted(snapshot["replicas"]) == ["0", "1"]
        per_model = snapshot["models"]["demo"]
        assert per_model["latency"]["merged_from_raw_windows"] is True
        # The pool itself owns no in-process infrastructure.
        assert snapshot["cache"] is None and snapshot["pool"] is None

    def test_capacity_report_sums_across_replicas(self, pool):
        report = pool.capacity_report()
        assert report["replicas"] == {"ready": 2, "total": 2}
        assert "demo" in report["models"]
        assert set(report["models"]["demo"]["replicas"]) == {"0", "1"}

    def test_http_app_serves_the_pool(self, pool, raw_graphs):
        app = ServingApp(pool)
        status, payload, _ = app.handle("GET", "/v1/models")
        assert status == 200
        assert "demo" in payload["models"]

        body = json.dumps({"graph": program_graph_to_dict(raw_graphs[0])}).encode()
        status, payload, _ = app.handle("POST", "/v1/models/demo/predict", body)
        assert status == 200
        assert payload["result"]["label"] in range(NUM_LABELS)

        status, payload, _ = app.handle("GET", "/metrics")
        assert status == 200
        assert payload["hub"]["aggregate"]["latency"]["merged_from_raw_windows"] is True
        status, text, _ = app.handle("GET", "/metrics?format=prometheus")
        assert status == 200 and "repro_" in text

        status, payload, _ = app.handle("GET", "/v1/capacity")
        assert status == 200
        assert payload["replicas"] == {"ready": 2, "total": 2}

    def test_slot_checkpoints_appear_on_disk(self, pool):
        ckpt_dir = pool._config.checkpoint_dir
        assert wait_until(
            lambda: sorted(os.listdir(ckpt_dir))
            == ["replica-00.npz", "replica-01.npz"]
        ), os.listdir(ckpt_dir)


# ------------------------------------------------- journals and affinity


class TestJournalIsolation:
    def test_per_replica_journals_and_affinity_routing(
        self, registry_root, raw_graphs, tmp_path
    ):
        journal_root = tmp_path / "journal"
        config = make_config(registry_root, journal_dir=str(journal_root))
        repeats = 3
        with ReplicaSupervisor(config) as pool:
            for _ in range(repeats):
                for graph in raw_graphs[:4]:
                    pool.predict("demo", graph)

        # One subdirectory per slot; two writers never share a segment.
        assert sorted(os.listdir(journal_root)) == ["replica-00", "replica-01"]

        per_slot = {
            slot: [
                record["fingerprint"]
                for record in JournalReader(str(journal_root / slot)).records()
            ]
            for slot in ("replica-00", "replica-01")
        }
        total = sum(len(prints) for prints in per_slot.values())
        assert total == repeats * 4

        # Affinity: every repeat of a graph landed on the same replica.
        for fingerprint in {f for prints in per_slot.values() for f in prints}:
            hit_slots = [
                slot for slot, prints in per_slot.items() if fingerprint in prints
            ]
            assert len(hit_slots) == 1, fingerprint

        # A reader over the *root* unifies the pool's journals.
        merged = list(JournalReader(str(journal_root)).records())
        assert len(merged) == total


class TestCachelessRouting:
    """Affinity exists only to keep each worker's cache hot; a pool whose
    workers have no cache spreads repeats of one graph over the replicas."""

    def test_predict_many_deals_repeats_evenly(
        self, registry_root, raw_graphs, tmp_path, monkeypatch
    ):
        def no_key_expected(request):
            raise AssertionError("affinity key computed for a cache-less pool")

        monkeypatch.setattr(supervisor_module, "request_affinity_key", no_key_expected)
        journal_root = tmp_path / "journal"
        config = make_config(
            registry_root, enable_cache=False, journal_dir=str(journal_root)
        )
        repeats = 9
        others = raw_graphs[1:]
        with ReplicaSupervisor(config) as pool:
            repeated = pool.predict_many("demo", [raw_graphs[0]] * repeats)
            pooled = pool.predict_many("demo", others)

        # Predictions are those of an in-process hub.
        hub = ModelHub(registry_root, enable_cache=False)
        hub.load(DeploymentSpec(name="demo", artifact="demo"))
        expected = hub.predict_many("demo", others)
        hub.stop()
        assert [r.label for r in pooled] == [r.label for r in expected]
        for got, want in zip(pooled, expected):
            np.testing.assert_allclose(got.probabilities, want.probabilities)

        # The repeats went out as two groups whose sizes differ by <= 1.
        fingerprint = repeated[0].fingerprint
        assert fingerprint not in {r.fingerprint for r in pooled}
        sizes = [
            sum(
                record["fingerprint"] == fingerprint
                for record in JournalReader(str(journal_root / slot)).records()
            )
            for slot in ("replica-00", "replica-01")
        ]
        assert sum(sizes) == repeats
        assert max(sizes) - min(sizes) <= 1

    def test_pool_metrics_pool_every_slots_stage_windows(
        self, registry_root, raw_graphs
    ):
        config = make_config(registry_root, enable_cache=False)
        stages = ("queue_wait", "cache_lookup", "plan_build", "infer", "combine")
        with ReplicaSupervisor(config) as pool:
            # Async submits (queue_wait) dealt least-pending over both
            # slots, then a sync batch (dealt evenly) for the rest.
            futures = [pool.submit("demo", graph) for graph in raw_graphs * 2]
            for future in futures:
                future.result(timeout=60)
            pool.predict_many("demo", raw_graphs)
            section = pool.snapshot()["models"]["demo"]
            per_slot = [
                reply["snapshot"]["stages"]
                for _, reply in pool._introspect_broadcast(
                    "model_snapshot", {"name": "demo"}
                )
            ]
        assert len(per_slot) == 2
        for stage in stages:
            counts = [slot[stage]["count"] for slot in per_slot]
            assert all(count > 0 for count in counts), (stage, counts)
            pooled = section["stages"][stage]
            assert pooled["count"] == sum(counts)
            assert set(pooled) == {"count", "p50_s", "p95_s"}
            assert 0.0 <= pooled["p50_s"] <= pooled["p95_s"]

    def test_threaded_repeats_reach_both_replicas(self, registry_root, raw_graphs):
        config = make_config(registry_root, enable_cache=False)
        with ReplicaSupervisor(config) as pool:
            pack, labels, errors = run_burst(
                pool, raw_graphs[:1], per_thread=10, threads=4
            )
            for thread in pack:
                thread.join(timeout=60)
            assert errors == []
            assert len(labels) == 40
            assert wait_until(
                lambda: sum(s["served"] for s in pool.replica_status()) == 40
            ), pool.replica_status()
            assert all(s["served"] > 0 for s in pool.replica_status())

# ------------------------------------------------------ admin as state


#: (path, body, status, code) per case: each admin route fails on a hub
#: and on a pool set up alike (demo + shadow loaded, prod -> shadow,
#: shadow fenced).  ``set_default`` has no route; a ``None`` path sends
#: ``set_default(body)`` through the same HTTP error mapping.
FAILING_ADMIN = {
    "load-existing": ("demo/load", {"artifact": "demo"}, 409, "model-exists"),
    "load-missing-artifact": (
        "ghost/load", {"artifact": "no-such"}, 404, "artifact-not-found",
    ),
    "replace-missing-artifact": (
        "demo/load",
        {"spec": {"artifact": "no-such"}, "replace": True},
        404,
        "artifact-not-found",
    ),
    "alias-missing-target": (
        "canary/alias", {"target": "nope"}, 404, "model-not-found",
    ),
    "alias-shadows-deployment": (
        "demo/alias", {"target": "shadow"}, 409, "model-exists",
    ),
    "unalias-unknown": ("nope/alias", {"target": None}, 404, "model-not-found"),
    "unload-alias-target": ("shadow/unload", {}, 409, "hub-error"),
    "quarantine-unknown": (
        "nope/quarantine", {"quarantined": True}, 404, "model-not-found",
    ),
    "set-default-unknown": (None, "nope", 404, "model-not-found"),
}


def fail_admin(target, path, body):
    app = ServingApp(target)
    if path is None:
        app._route = lambda *_: {"POST": lambda _: target.set_default(body)}
        path = "set-default"
    return app.handle("POST", f"/v1/models/{path}", json.dumps(body).encode())


def set_up_admin_target(target):
    target.load(DeploymentSpec(name="shadow", artifact="shadow"))
    target.alias("prod", "shadow")
    target.quarantine("shadow", "bad canary")


def replica_views(pool):
    """Each ready replica's served set, aliases, default and fence."""
    described = pool._introspect_broadcast("describe", {})
    capacity = dict(pool._introspect_broadcast("capacity", {"name": None}))
    views = []
    for handle, reply in described:
        fenced = {
            model: entry["quarantined"]
            for model, entry in capacity[handle]["models"].items()
            if entry["quarantined"] is not None
        }
        views.append(
            (sorted(reply["models"]), reply["aliases"], reply["default"], fenced)
        )
    return views


@pytest.fixture(scope="class")
def admin_pair(registry_root):
    hub = ModelHub(registry_root)
    hub.load(DeploymentSpec(name="demo", artifact="demo"))
    set_up_admin_target(hub)
    pool = ReplicaSupervisor(make_config(registry_root)).start()
    set_up_admin_target(pool)
    yield hub, pool
    pool.stop()
    hub.stop()


class TestAdminFailureParity:
    @pytest.mark.parametrize("case", sorted(FAILING_ADMIN))
    def test_failed_mutation_answers_alike_and_leaves_no_replica_diverged(
        self, admin_pair, case
    ):
        hub, pool = admin_pair
        path, body, status, code = FAILING_ADMIN[case]
        hub_status, hub_payload, hub_headers = fail_admin(hub, path, body)
        pool_status, pool_payload, pool_headers = fail_admin(pool, path, body)
        assert (hub_status, hub_payload["error"]["code"]) == (status, code)
        assert (pool_status, pool_payload["error"]["code"]) == (status, code)
        assert pool_headers == hub_headers

        # Nothing changed anywhere: the pool still agrees with the hub,
        # and every replica with the pool.
        expected = (
            pool.names(), pool.aliases(), pool.default_name, pool.quarantined()
        )
        assert expected == (
            hub.names(), hub.aliases(), hub.default_name, hub.quarantined()
        )
        assert expected == (
            ["demo", "shadow"], {"prod": "shadow"}, "demo", {"shadow": "bad canary"}
        )
        views = replica_views(pool)
        assert len(views) == 2
        assert all(view == expected for view in views), views


class TestAdminSerialisation:
    def test_concurrent_mutations_lose_no_update(self, pool, registry_root):
        hub = ModelHub(registry_root)
        hub.load(DeploymentSpec(name="demo", artifact="demo"))
        wanted = {f"alias-{i}": "demo" for i in range(12)}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for target in (hub, pool):
                threads = [
                    threading.Thread(target=target.alias, args=(alias, "demo"))
                    for alias in wanted
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert target.aliases() == wanted
            replies = pool._introspect_broadcast("describe", {})
            assert [reply["aliases"] for _, reply in replies] == [wanted, wanted]
        finally:
            sys.setswitchinterval(switch)
            hub.stop()
            for alias in pool.aliases():
                pool.unalias(alias)


def ask_replica(pool, slot, op, payload):
    """One RPC to one slot's worker, bypassing the supervisor's routing."""
    call = supervisor_module._PendingCall(op, payload)
    call.retryable = False
    assert pool._send(pool._handles[slot], call)
    return call.future.result(timeout=60)


class TestReplicasCatchUp:
    def test_respawned_and_reloaded_replicas_serve_the_desired_state(
        self, raw_graphs, tmp_path
    ):
        root = str(tmp_path / "registry")
        registry = ArtifactRegistry(root)
        registry.save("demo", small_predictor(seed=1))
        registry.save("shadow", small_predictor(seed=2))
        from test_costmodel import synthetic_records

        save_cost_model(
            registry, CostModelCalibrator(min_batches=2).fit(synthetic_records())
        )
        config = make_config(root, heartbeat_interval_s=0.1)
        graphs = raw_graphs[:4]
        with ReplicaSupervisor(config) as pool:
            pool.load(DeploymentSpec(name="shadow", artifact="shadow"))
            pool.alias("prod", "shadow")
            pool.set_default("shadow")
            pool.quarantine("demo", "bad canary")
            cost_model = pool.reload_cost_model()
            assert cost_model["artifact"].startswith("latency-cost-model@")

            victim = pool.replica_status()[0]["pid"]
            os.kill(victim, signal.SIGKILL)
            assert wait_until(
                lambda: pool.replica_status()[0]["generation"] == 2
                and pool.replica_status()[0]["state"] == "ready"
            ), pool.replica_status()

            # The respawned worker holds the alias, the fence, the default
            # and the cost model, not just the boot set.
            served = ask_replica(
                pool, 0, OP_PREDICT_MANY, {"model": "prod", "requests": graphs}
            )
            assert len(served) == len(graphs)
            with pytest.raises(DeploymentQuarantinedError):
                ask_replica(
                    pool, 0, OP_PREDICT_MANY, {"model": "demo", "requests": graphs}
                )
            capacity = ask_replica(
                pool, 0, OP_INTROSPECT, {"what": "capacity", "args": {"name": None}}
            )
            assert capacity["cost_model"] == cost_model
            described = ask_replica(
                pool, 0, OP_INTROSPECT, {"what": "describe", "args": {}}
            )
            assert described["default"] == "shadow"
            assert described["aliases"] == {"prod": "shadow"}

            # A reload rebuilds every replica from the newest version.
            registry.save("shadow", small_predictor(seed=5))
            pool.reload("shadow")
            hub = ModelHub(root)
            hub.load(DeploymentSpec(name="shadow", artifact="shadow"))
            expected = hub.predict_many("shadow", graphs)
            hub.stop()
            for slot in (0, 1):
                got = ask_replica(
                    pool, slot, OP_PREDICT_MANY,
                    {"model": "shadow", "requests": graphs},
                )
                for mine, theirs in zip(got, expected):
                    np.testing.assert_array_equal(
                        mine.probabilities, theirs.probabilities
                    )
            assert pool.predict("prod", graphs[0]).label == expected[0].label

            # A pool with no default boots replicas with none either (a
            # hub would make its first load the default).
            pool.set_default(None)
            victim = pool.replica_status()[1]["pid"]
            os.kill(victim, signal.SIGKILL)
            assert wait_until(
                lambda: pool.replica_status()[1]["generation"] == 2
                and pool.replica_status()[1]["state"] == "ready"
            ), pool.replica_status()
            replies = pool._introspect_broadcast("describe", {})
            assert [reply["default"] for _, reply in replies] == [None, None]


class TestDispatch:
    def test_unpicklable_request_leaves_no_pending_call(
        self, registry_root, raw_graphs
    ):
        with ReplicaSupervisor(make_config(registry_root, replicas=1)) as pool:
            with pytest.raises(TypeError):
                pool.predict("demo", threading.Lock())
            assert [s["pending"] for s in pool.replica_status()] == [0]
            assert pool.predict("demo", raw_graphs[0]).label in range(NUM_LABELS)


# ------------------------------------------------------------- lifecycle


def run_burst(pool, graphs, per_thread, threads):
    """Hammer the pool from several threads; return (labels, errors)."""
    labels, errors = [], []

    def worker():
        for i in range(per_thread):
            try:
                labels.append(pool.predict("demo", graphs[i % len(graphs)]).label)
            except Exception as exc:  # noqa: BLE001 - the test wants them all
                errors.append(exc)

    pack = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pack:
        thread.start()
    return pack, labels, errors


class TestFailover:
    def test_sigkill_mid_burst_fails_zero_requests(
        self, registry_root, raw_graphs
    ):
        config = make_config(registry_root, heartbeat_interval_s=0.1)
        with ReplicaSupervisor(config) as pool:
            victim = pool.replica_status()[0]["pid"]
            pack, labels, errors = run_burst(
                pool, raw_graphs, per_thread=30, threads=4
            )
            time.sleep(0.1)
            os.kill(victim, signal.SIGKILL)
            for thread in pack:
                thread.join(timeout=60)
            # A dying worker fails zero requests: every in-flight call was
            # transparently retried on the surviving replica.
            assert errors == []
            assert len(labels) == 120

            # The killed slot comes back with a fresh PID.
            assert wait_until(
                lambda: victim
                not in {s["pid"] for s in pool.replica_status()}
                and all(s["state"] == "ready" for s in pool.replica_status())
            ), pool.replica_status()
            assert pool.predict("demo", raw_graphs[0]).label in range(NUM_LABELS)

    def test_recycle_after_n_swaps_pids_without_pausing_traffic(
        self, registry_root, raw_graphs
    ):
        config = make_config(
            registry_root, recycle_after=5, heartbeat_interval_s=0.1
        )
        with ReplicaSupervisor(config) as pool:
            before = {s["slot"]: s["pid"] for s in pool.replica_status()}
            pack, labels, errors = run_burst(
                pool, raw_graphs, per_thread=15, threads=2
            )
            for thread in pack:
                thread.join(timeout=60)
            assert errors == []
            assert len(labels) == 30

            # At least one slot crossed the threshold; its replacement was
            # made ready *before* the old worker drained.
            def some_slot_recycled():
                status = pool.replica_status()
                return any(
                    s["state"] == "ready" and before[s["slot"]] != s["pid"]
                    for s in status
                )

            assert wait_until(some_slot_recycled), pool.replica_status()
            generations = {
                s["slot"]: s["generation"] for s in pool.replica_status()
            }
            assert any(generation > 1 for generation in generations.values())
            assert pool.predict("demo", raw_graphs[0]).label in range(NUM_LABELS)


# ------------------------------------------------------------ wire errors


class TestWireErrors:
    def test_error_codes_document_the_replica_states(self):
        assert "draining" in ERROR_CODES
        assert "replica-unavailable" in ERROR_CODES

    def test_draining_pool_refuses_new_work_with_503(
        self, registry_root, raw_graphs
    ):
        config = make_config(registry_root, replicas=1)
        pool = ReplicaSupervisor(config)
        pool.start()
        app = ServingApp(pool)
        pool.stop()

        with pytest.raises(DrainingError):
            pool.predict("demo", raw_graphs[0])
        body = json.dumps({"graph": program_graph_to_dict(raw_graphs[0])}).encode()
        status, payload, _ = app.handle("POST", "/v1/models/demo/predict", body)
        assert status == 503
        assert payload["error"]["code"] == "draining"
        # stop() is idempotent.
        pool.stop()

    def test_replica_unavailable_maps_to_503(
        self, registry_root, raw_graphs, monkeypatch
    ):
        # No processes needed: an unstarted supervisor resolves names
        # locally, and the dispatch layer is stubbed to report exhaustion.
        pool = ReplicaSupervisor(make_config(registry_root))

        def exhausted(*args, **kwargs):
            raise ReplicaUnavailableError("no ready replica after 3 attempts")

        monkeypatch.setattr(pool, "predict_many", exhausted)
        app = ServingApp(pool)
        body = json.dumps({"graph": program_graph_to_dict(raw_graphs[0])}).encode()
        status, payload, _ = app.handle("POST", "/v1/models/demo/predict", body)
        assert status == 503
        assert payload["error"]["code"] == "replica-unavailable"
        assert "retry" in ERROR_CODES["replica-unavailable"]
