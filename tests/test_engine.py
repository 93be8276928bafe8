"""Golden tests for the stateless inference engine (:mod:`repro.engine`).

The engine's contract is *bit-for-bit* parity with the training-time
forward pass: ``StaticRGCNModel.infer`` must equal an eval-mode
``forward`` exactly, ``StackedFoldModel`` must equal every member's own
``infer`` exactly, and none of it may perturb the training path (layer
caches, gradients).  Every assertion here is ``np.array_equal`` — no
tolerances.
"""

import threading

import numpy as np
import pytest

from repro.engine import (
    ExecutionPlan,
    IncompatibleFoldsError,
    StackedFoldModel,
    build_plan,
)
from repro.gnn.model import ModelConfig, StaticRGCNModel
from repro.graphs.batching import collate
from repro.graphs.features import EncodedGraph
from repro.graphs.graph import RELATIONS

NUM_FOLDS = 4


def make_graph(rng, name, num_nodes, drop_relations=(), num_edges_factor=3):
    """A random encoded graph; ``drop_relations`` get zero edges."""
    relations = {}
    for rel in RELATIONS:
        if rel in drop_relations or num_nodes == 0:
            relations[rel] = np.zeros((2, 0), dtype=np.int64)
        else:
            relations[rel] = rng.integers(
                0, num_nodes, size=(2, num_edges_factor * num_nodes)
            ).astype(np.int64)
    return EncodedGraph(
        name=name,
        token_ids=rng.integers(0, 32, size=num_nodes).astype(np.int64),
        kind_ids=rng.integers(0, 3, size=num_nodes).astype(np.int64),
        extra_features=rng.normal(size=(num_nodes, 5)),
        relations=relations,
        label=int(rng.integers(0, 5)),
    )


def make_models(num_folds=NUM_FOLDS, pooling="mean", **overrides):
    config = dict(
        vocabulary_size=32,
        num_classes=5,
        hidden_dim=12,
        graph_vector_dim=8,
        num_rgcn_layers=2,
        num_extra_features=5,
        pooling=pooling,
    )
    config.update(overrides)
    models = [StaticRGCNModel(ModelConfig(seed=seed, **config)) for seed in range(num_folds)]
    for model in models:
        model.eval()
    return models


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def batch(rng):
    return collate(
        [
            make_graph(rng, "plain", 9),
            make_graph(rng, "empty", 0),  # zero-node graph
            make_graph(rng, "isolated", 6, drop_relations=RELATIONS),  # zero edges
            make_graph(rng, "partial", 11, drop_relations=RELATIONS[:2]),
            make_graph(rng, "tiny", 1),
        ]
    )


class TestExecutionPlan:
    def test_plan_reuses_the_batch_adjacency_cache(self, batch):
        plan_a = ExecutionPlan.from_batch(batch)
        plan_b = build_plan(batch)
        assert batch.adjacency_builds == 1  # built once, shared by both plans
        for rel in RELATIONS:
            assert plan_a.adjacency[rel] is plan_b.adjacency[rel]

    def test_plan_arrays_are_immutable(self, batch):
        plan = build_plan(batch)
        for array in (
            plan.token_ids,
            plan.extra_features,
            plan.graph_index,
            plan.segment_counts,
            plan.pool_counts,
        ):
            with pytest.raises(ValueError):
                array[...] = 0

    def test_segment_structure(self, batch):
        plan = build_plan(batch)
        assert plan.num_graphs == 5
        assert list(plan.segment_counts) == [9, 0, 6, 11, 1]
        # Zero-node graphs get a clamped divisor, exactly like GlobalPool.
        assert list(plan.pool_counts) == [9.0, 1.0, 6.0, 11.0, 1.0]

    def test_from_arrays_matches_from_batch(self, batch):
        plan = build_plan(batch)
        raw = ExecutionPlan.from_arrays(
            token_ids=batch.token_ids,
            extra_features=batch.extra_features,
            relations=batch.relations,
            graph_index=batch.graph_index,
            num_graphs=batch.num_graphs,
        )
        model = make_models(1)[0]
        logits_a, vectors_a = model.infer(plan)
        logits_b, vectors_b = model.infer(raw)
        assert np.array_equal(logits_a, logits_b)
        assert np.array_equal(vectors_a, vectors_b)


class TestSingleFoldParity:
    def test_infer_equals_eval_forward_bitwise(self, batch):
        model = make_models(1)[0]
        plan = build_plan(batch)
        logits_f, vectors_f = model.forward(batch)
        logits_i, vectors_i = model.infer(plan)
        assert np.array_equal(logits_f, logits_i)
        assert np.array_equal(vectors_f, vectors_i)

    @pytest.mark.parametrize("pooling", ["mean", "sum", "max"])
    def test_parity_across_pooling_modes(self, batch, pooling):
        model = make_models(1, pooling=pooling)[0]
        plan = build_plan(batch)
        logits_f, vectors_f = model.forward(batch)
        logits_i, vectors_i = model.infer(plan)
        assert np.array_equal(logits_f, logits_i)
        assert np.array_equal(vectors_f, vectors_i)

    def test_infer_on_zero_node_only_batch(self, rng):
        batch = collate([make_graph(rng, "void", 0)])
        model = make_models(1)[0]
        plan = build_plan(batch)
        logits_f, vectors_f = model.forward(batch)
        logits_i, vectors_i = model.infer(plan)
        assert np.array_equal(logits_f, logits_i)
        assert np.array_equal(vectors_f, vectors_i)

    def test_infer_is_eval_mode_even_when_training(self, batch):
        """Dropout must be the identity on the infer path regardless of the
        model's training flag — inference is eval-mode by definition."""
        model = make_models(1, dropout=0.5)[0]
        plan = build_plan(batch)
        expected_logits, _ = model.infer(plan)
        model.train()
        logits, _ = model.infer(plan)
        assert np.array_equal(expected_logits, logits)


class TestStackedFoldParity:
    def test_stacked_equals_per_fold_bitwise(self, batch):
        models = make_models()
        plan = build_plan(batch)
        stacked_logits, stacked_vectors = StackedFoldModel(models).infer(plan)
        assert stacked_logits.shape == (batch.num_graphs, NUM_FOLDS, 5)
        assert stacked_vectors.shape == (batch.num_graphs, NUM_FOLDS, 8)
        for fold, model in enumerate(models):
            logits, vectors = model.infer(plan)
            assert np.array_equal(stacked_logits[:, fold], logits)
            assert np.array_equal(stacked_vectors[:, fold], vectors)

    @pytest.mark.parametrize("pooling", ["mean", "sum", "max"])
    def test_stacked_parity_across_pooling_modes(self, batch, pooling):
        models = make_models(pooling=pooling)
        plan = build_plan(batch)
        stacked_logits, stacked_vectors = StackedFoldModel(models).infer(plan)
        for fold, model in enumerate(models):
            logits, vectors = model.infer(plan)
            assert np.array_equal(stacked_logits[:, fold], logits)
            assert np.array_equal(stacked_vectors[:, fold], vectors)

    @pytest.mark.parametrize("layers", [1, 3])
    def test_stacked_parity_across_layer_counts(self, batch, layers):
        # The sweep swaps two activation buffers per layer: an odd count
        # ends on the other buffer, and the next fold overwrites both.
        models = make_models(num_rgcn_layers=layers)
        plan = build_plan(batch)
        stacked_logits, stacked_vectors = StackedFoldModel(models).infer(plan)
        for fold, model in enumerate(models):
            logits, vectors = model.infer(plan)
            assert np.array_equal(stacked_logits[:, fold], logits)
            assert np.array_equal(stacked_vectors[:, fold], vectors)

    def test_stacked_equals_legacy_forward_bitwise(self, batch):
        """The full chain: stacked engine == per-fold infer == eval forward."""
        models = make_models()
        plan = build_plan(batch)
        stacked_logits, stacked_vectors = StackedFoldModel(models).infer(plan)
        for fold, model in enumerate(models):
            logits, vectors = model.forward(batch)
            assert np.array_equal(stacked_logits[:, fold], logits)
            assert np.array_equal(stacked_vectors[:, fold], vectors)

    def test_stacked_on_edge_case_batches(self, rng):
        models = make_models()
        stacked = StackedFoldModel(models)
        for graphs in (
            [make_graph(rng, "void", 0)],
            [make_graph(rng, "lonely", 5, drop_relations=RELATIONS)],
            [make_graph(rng, "a", 3), make_graph(rng, "b", 0), make_graph(rng, "c", 4)],
        ):
            batch = collate(graphs)
            plan = build_plan(batch)
            stacked_logits, stacked_vectors = stacked.infer(plan)
            for fold, model in enumerate(models):
                logits, vectors = model.infer(plan)
                assert np.array_equal(stacked_logits[:, fold], logits)
                assert np.array_equal(stacked_vectors[:, fold], vectors)

    def test_stacked_is_a_frozen_snapshot(self, batch):
        models = make_models()
        plan = build_plan(batch)
        stacked = StackedFoldModel(models)
        before, _ = stacked.infer(plan)
        # Mutating a source model afterwards must not leak into the stack.
        models[0].classifier.weight.value += 1.0
        after, _ = stacked.infer(plan)
        assert np.array_equal(before, after)

    def test_single_member_stack(self, batch):
        models = make_models(1)
        plan = build_plan(batch)
        stacked_logits, stacked_vectors = StackedFoldModel(models).infer(plan)
        logits, vectors = models[0].infer(plan)
        assert np.array_equal(stacked_logits[:, 0], logits)
        assert np.array_equal(stacked_vectors[:, 0], vectors)

    def test_incompatible_members_rejected(self):
        small = make_models(1)[0]
        wide = make_models(1, hidden_dim=16)[0]
        with pytest.raises(IncompatibleFoldsError, match="hidden_dim"):
            StackedFoldModel([small, wide])
        with pytest.raises(ValueError, match="at least one"):
            StackedFoldModel([])

    def test_dropout_and_seed_may_differ(self, batch):
        """Inference-irrelevant config fields must not block stacking."""
        base = make_models(1)[0]
        other = make_models(1, dropout=0.5)[0]
        other_seeded = StaticRGCNModel(ModelConfig(seed=9, **{
            "vocabulary_size": 32, "num_classes": 5, "hidden_dim": 12,
            "graph_vector_dim": 8, "num_rgcn_layers": 2, "num_extra_features": 5,
        }))
        other_seeded.eval()
        stacked = StackedFoldModel([base, other, other_seeded])
        assert stacked.num_folds == 3


class TestTrainingPathUnchanged:
    def test_infer_does_not_disturb_pending_backward(self, batch):
        """An infer() between forward and backward must leave the training
        step's gradients bit-identical to an undisturbed run."""
        model_a = make_models(1)[0]
        model_b = make_models(1)[0]
        model_a.train()
        model_b.train()
        plan = build_plan(batch)

        loss_a, _ = model_a.loss_and_gradients(batch)
        grads_a = {p.name: p.grad.copy() for p in model_a.store}

        logits_b, _ = model_b.forward(batch)
        # Concurrent serving traffic mid-training-step: engine calls only.
        model_b.infer(plan)
        StackedFoldModel([model_b]).infer(plan)
        from repro.gnn.losses import cross_entropy

        loss_b, grad_logits = cross_entropy(logits_b, batch.labels)
        model_b.backward(grad_logits)
        grads_b = {p.name: p.grad.copy() for p in model_b.store}

        assert loss_a == loss_b
        assert set(grads_a) == set(grads_b)
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name]), name

    def test_gradient_check_still_passes_after_infer(self, batch):
        """Numerical gradient of the classifier weight is unchanged whether
        or not the engine path ran in between."""
        model = make_models(1)[0]
        model.train()
        plan = build_plan(batch)
        model.infer(plan)

        param = model.classifier.weight
        model.store.zero_grad()
        loss, _ = model.loss_and_gradients(batch)
        analytic = param.grad[0, 0]
        eps = 1e-6
        original = param.value[0, 0]
        param.value[0, 0] = original + eps
        loss_hi, _ = model.loss_and_gradients(batch)
        param.value[0, 0] = original - eps
        loss_lo, _ = model.loss_and_gradients(batch)
        param.value[0, 0] = original
        numeric = (loss_hi - loss_lo) / (2 * eps)
        assert abs(analytic - numeric) < 1e-5

    def test_concurrent_infer_calls_are_consistent(self, batch):
        """The stateless path really is reentrant: many threads hammering
        one model/stack must all read bit-identical results."""
        models = make_models()
        stacked = StackedFoldModel(models)
        plan = build_plan(batch)
        expected_logits, expected_vectors = stacked.infer(plan)
        single_expected, _ = models[0].infer(plan)
        failures = []

        def worker():
            for _ in range(10):
                logits, vectors = stacked.infer(plan)
                single_logits, _ = models[0].infer(plan)
                if not (
                    np.array_equal(logits, expected_logits)
                    and np.array_equal(vectors, expected_vectors)
                    and np.array_equal(single_logits, single_expected)
                ):
                    failures.append("mismatch")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
