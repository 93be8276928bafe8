"""Tests for the NumPy GNN stack: layers, gradients, training, metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gnn import (
    Adam,
    Dropout,
    Embedding,
    GlobalPool,
    LayerNorm,
    Linear,
    ModelConfig,
    ParameterStore,
    RGCNLayer,
    ReLU,
    SGD,
    StaticRGCNModel,
    Trainer,
    TrainerConfig,
    accuracy_score,
    class_weight_vector,
    clip_gradients,
    confusion_matrix,
    cross_entropy,
    macro_f1,
    per_label_counts,
    softmax,
)
from repro.gnn.layers import segment_sum
from repro.gnn.pooling import pool_segments
from repro.graphs import GraphEncoder, collate
from repro.graphs.features import EncodedGraph
from repro.graphs.graph import RELATIONS


def make_chain_graph(token: str, label: int, length: int, rng) -> EncodedGraph:
    vocab = GraphEncoder().vocabulary
    ids = np.full(length, vocab.index_of(token), dtype=np.int64)
    kinds = np.zeros(length, dtype=np.int64)
    extra = rng.random((length, GraphEncoder.NUM_EXTRA_FEATURES))
    relations = {r: np.zeros((2, 0), dtype=np.int64) for r in RELATIONS}
    if length > 1:
        edges = np.array([[i, i + 1] for i in range(length - 1)], dtype=np.int64).T
        relations["control"] = edges
        relations["control_rev"] = edges[::-1].copy()
    return EncodedGraph("chain", ids, kinds, extra, relations, label=label)


@pytest.fixture
def toy_graphs():
    rng = np.random.default_rng(0)
    graphs = [make_chain_graph("add", 0, int(rng.integers(4, 12)), rng) for _ in range(30)]
    graphs += [make_chain_graph("load", 1, int(rng.integers(4, 12)), rng) for _ in range(30)]
    rng.shuffle(graphs)
    return graphs


class TestLayers:
    def test_linear_forward_backward_shapes(self):
        store = ParameterStore()
        rng = np.random.default_rng(0)
        layer = Linear(store, "lin", 4, 3, rng)
        x = rng.random((5, 4))
        y = layer.forward(x)
        assert y.shape == (5, 3)
        grad = layer.backward(np.ones_like(y))
        assert grad.shape == x.shape
        assert layer.weight.grad.shape == (4, 3)

    def test_relu_masks_negative(self):
        relu = ReLU()
        out = relu.forward(np.array([-1.0, 2.0, -3.0]))
        assert out.tolist() == [0.0, 2.0, 0.0]
        grad = relu.backward(np.array([1.0, 1.0, 1.0]))
        assert grad.tolist() == [0.0, 1.0, 0.0]

    def test_dropout_eval_mode_identity(self):
        rng = np.random.default_rng(0)
        drop = Dropout(0.5, rng)
        drop.training = False
        x = rng.random((4, 4))
        assert np.array_equal(drop.forward(x), x)

    def test_layernorm_normalizes(self):
        store = ParameterStore()
        norm = LayerNorm(store, "ln", 6)
        x = np.random.default_rng(0).random((3, 6)) * 10
        y = norm.forward(x)
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(y.std(axis=-1), 1.0, atol=1e-2)

    def test_embedding_accumulates_gradient(self):
        store = ParameterStore()
        emb = Embedding(store, "emb", 10, 4, np.random.default_rng(0))
        out = emb.forward(np.array([1, 1, 2]))
        emb.backward(np.ones_like(out))
        assert emb.weight.grad[1].sum() == pytest.approx(8.0)
        assert emb.weight.grad[2].sum() == pytest.approx(4.0)
        assert emb.weight.grad[3].sum() == 0.0


class TestLossesAndMetrics:
    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).random((4, 7)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_cross_entropy_gradient_numerically(self):
        rng = np.random.default_rng(0)
        logits = rng.random((3, 4))
        labels = np.array([0, 2, 1])
        loss, grad = cross_entropy(logits, labels)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                bumped = logits.copy()
                bumped[i, j] += eps
                loss_plus, _ = cross_entropy(bumped, labels)
                numeric = (loss_plus - loss) / eps
                assert numeric == pytest.approx(grad[i, j], abs=1e-4)

    def test_class_weights_inverse_frequency(self):
        weights = class_weight_vector(np.array([0, 0, 0, 1]), 2)
        assert weights[1] > weights[0]

    def test_confusion_and_per_label_counts(self):
        true = [0, 0, 1, 2]
        pred = [0, 1, 1, 1]
        matrix = confusion_matrix(true, pred, 3)
        assert matrix[0, 0] == 1 and matrix[0, 1] == 1
        counts = per_label_counts(true, pred, 3)
        assert counts["oracle"].tolist() == [2, 1, 1]
        assert counts["predicted"].tolist() == [1, 3, 0]
        assert counts["correct"].tolist() == [1, 1, 0]
        assert accuracy_score(true, pred) == pytest.approx(0.5)
        assert 0.0 <= macro_f1(true, pred, 3) <= 1.0


class TestOptimizers:
    def test_sgd_reduces_quadratic(self):
        store = ParameterStore()
        param = store.create("w", np.array([5.0]))
        opt = SGD(store, learning_rate=0.1)
        for _ in range(100):
            store.zero_grad()
            param.grad[:] = 2 * param.value
            opt.step()
        assert abs(param.value[0]) < 1e-3

    def test_adam_reduces_quadratic(self):
        store = ParameterStore()
        param = store.create("w", np.array([5.0]))
        opt = Adam(store, learning_rate=0.2)
        for _ in range(200):
            store.zero_grad()
            param.grad[:] = 2 * param.value
            opt.step()
        assert abs(param.value[0]) < 1e-2

    def test_gradient_clipping(self):
        store = ParameterStore()
        param = store.create("w", np.zeros(4))
        param.grad[:] = 10.0
        norm = clip_gradients(store, max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)


class TestRGCN:
    def test_isolated_nodes_only_get_self_message(self):
        store = ParameterStore()
        rng = np.random.default_rng(0)
        layer = RGCNLayer(store, "r", 3, 3, ["control"], rng, bias=False)
        x = rng.random((4, 3))
        out = layer.forward(x, {"control": None})
        assert np.allclose(out, x @ layer.self_weight.value)

    def test_model_gradients_match_numerical(self, toy_graphs):
        config = ModelConfig(
            vocabulary_size=len(GraphEncoder().vocabulary),
            num_classes=2,
            hidden_dim=4,
            graph_vector_dim=4,
            num_rgcn_layers=1,
            num_extra_features=GraphEncoder.NUM_EXTRA_FEATURES,
            seed=3,
        )
        model = StaticRGCNModel(config)
        batch = collate(toy_graphs[:5])

        def loss_value():
            logits, _ = model.forward(batch)
            loss, _ = cross_entropy(logits, batch.labels)
            return loss

        model.store.zero_grad()
        logits, _ = model.forward(batch)
        _, grad = cross_entropy(logits, batch.labels)
        model.backward(grad)
        eps = 1e-6
        checked = 0
        for param in list(model.store)[:6]:
            flat = param.value.ravel()
            index = flat.size // 2
            original = flat[index]
            flat[index] = original + eps
            loss_plus = loss_value()
            flat[index] = original - eps
            loss_minus = loss_value()
            flat[index] = original
            numeric = (loss_plus - loss_minus) / (2 * eps)
            analytic = param.grad.ravel()[index]
            assert numeric == pytest.approx(analytic, abs=1e-4)
            checked += 1
        assert checked == 6


class TestPooling:
    @pytest.mark.parametrize("mode", ["mean", "sum", "max"])
    def test_pooling_shapes_and_backward(self, mode):
        pool = GlobalPool(mode)
        x = np.arange(12, dtype=float).reshape(6, 2)
        graph_index = np.array([0, 0, 0, 1, 1, 1])
        pooled = pool.forward(x, graph_index, 2)
        assert pooled.shape == (2, 2)
        grad = pool.backward(np.ones((2, 2)))
        assert grad.shape == x.shape

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_segment_sums_equal_add_at_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        rows, width, segments = rng.integers(0, 120), rng.integers(1, 20), rng.integers(1, 12)
        index = rng.integers(0, segments, size=rows)
        values = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-6, 6, size=(rows, 1))
        expected = np.zeros((segments, width))
        np.add.at(expected, index, values)
        assert np.array_equal(segment_sum(values, index, segments), expected)

        counts = np.maximum(np.bincount(index, minlength=segments), 1).astype(np.float64)
        assert np.array_equal(pool_segments(values, index, segments, counts, "sum"), expected)
        assert np.array_equal(
            pool_segments(values, index, segments, counts, "mean"), expected / counts[:, None]
        )

        emb = Embedding(ParameterStore(), "emb", segments, width, rng)
        emb.forward(index)
        emb.backward(values)
        assert np.array_equal(emb.weight.grad, expected)

    def test_mean_pool_values(self):
        pool = GlobalPool("mean")
        x = np.array([[2.0], [4.0], [10.0]])
        pooled = pool.forward(x, np.array([0, 0, 1]), 2)
        assert pooled[0, 0] == pytest.approx(3.0)
        assert pooled[1, 0] == pytest.approx(10.0)


class TestTraining:
    def test_trainer_learns_toy_task(self, toy_graphs):
        config = ModelConfig(
            vocabulary_size=len(GraphEncoder().vocabulary),
            num_classes=2,
            hidden_dim=16,
            graph_vector_dim=16,
            num_rgcn_layers=2,
            num_extra_features=GraphEncoder.NUM_EXTRA_FEATURES,
            seed=0,
        )
        trainer = Trainer(
            StaticRGCNModel(config),
            TrainerConfig(epochs=12, batch_size=16, learning_rate=5e-3),
        )
        train, val = toy_graphs[:45], toy_graphs[45:]
        history = trainer.fit(train, val)
        assert history.epochs >= 1
        assert trainer.evaluate(val) >= 0.9
        vectors = trainer.graph_vectors(val)
        assert vectors.shape == (len(val), 16)
        probabilities = trainer.predict_proba(val)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_training_requires_labels(self, toy_graphs):
        graphs = [make_chain_graph("add", -1, 5, np.random.default_rng(0))]
        graphs[0].label = None
        config = ModelConfig(
            vocabulary_size=len(GraphEncoder().vocabulary),
            num_classes=2,
            hidden_dim=4,
            graph_vector_dim=4,
            num_rgcn_layers=1,
            num_extra_features=GraphEncoder.NUM_EXTRA_FEATURES,
        )
        trainer = Trainer(StaticRGCNModel(config), TrainerConfig(epochs=1))
        with pytest.raises(ValueError):
            trainer.fit(graphs)

    def test_state_dict_round_trip(self, toy_graphs):
        config = ModelConfig(
            vocabulary_size=len(GraphEncoder().vocabulary),
            num_classes=2,
            hidden_dim=8,
            graph_vector_dim=8,
            num_rgcn_layers=1,
            num_extra_features=GraphEncoder.NUM_EXTRA_FEATURES,
        )
        model_a = StaticRGCNModel(config)
        model_b = StaticRGCNModel(config)
        model_b.load_state_dict(model_a.state_dict())
        batch = collate(toy_graphs[:4])
        logits_a, _ = model_a.forward(batch)
        logits_b, _ = model_b.forward(batch)
        assert np.allclose(logits_a, logits_b)

    def test_save_npz_round_trip_bit_identical(self, toy_graphs, tmp_path):
        config = ModelConfig(
            vocabulary_size=len(GraphEncoder().vocabulary),
            num_classes=3,
            hidden_dim=8,
            graph_vector_dim=8,
            num_rgcn_layers=2,
            num_extra_features=GraphEncoder.NUM_EXTRA_FEATURES,
            seed=11,
        )
        model = StaticRGCNModel(config)
        model.eval()
        path = tmp_path / "model.npz"
        model.save_npz(path)

        reloaded = StaticRGCNModel.load_npz(path)
        # Architecture (including the relation tuple) survives the trip.
        assert reloaded.config == config
        # Every weight is bit-identical, hence so is every prediction.
        original_state = model.state_dict()
        for name, value in reloaded.state_dict().items():
            assert np.array_equal(original_state[name], value)
        batch_a = collate(toy_graphs[:4])
        batch_b = collate(toy_graphs[:4])
        logits_a, vectors_a = model.forward(batch_a)
        logits_b, vectors_b = reloaded.forward(batch_b)
        assert np.array_equal(logits_a, logits_b)
        assert np.array_equal(vectors_a, vectors_b)

    def test_load_npz_rejects_plain_npz(self, tmp_path):
        path = tmp_path / "weights.npz"
        np.savez(path, w=np.zeros(3))
        with pytest.raises(ValueError):
            StaticRGCNModel.load_npz(path)
