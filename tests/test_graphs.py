"""Tests for ProGraML-style graph construction, encoding and batching."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    FLOW_CALL,
    FLOW_CONTROL,
    FLOW_DATA,
    EncodedGraph,
    GraphBuilder,
    GraphEncoder,
    fingerprint_many,
    graph_fingerprint,
    NODE_KIND_CONSTANT,
    NODE_KIND_INSTRUCTION,
    NODE_KIND_VARIABLE,
    RELATIONS,
    ProgramGraph,
    build_graph,
    collate,
    default_vocabulary,
    graph_statistics,
    instruction_token,
    iterate_minibatches,
    merge_graphs,
)
from repro.ir import parse_function
from repro.passes import apply_flag_sequence, pipeline


class TestVocabulary:
    def test_contains_all_instruction_tokens(self):
        vocab = default_vocabulary()
        for token in ("add", "load", "store", "phi", "condbr", "icmp_slt", "call_sqrt"):
            assert token in vocab

    def test_unknown_maps_to_unk(self):
        vocab = default_vocabulary()
        assert vocab.index_of("martian_opcode") == vocab.index_of("<unk>")

    def test_bijection(self):
        vocab = default_vocabulary()
        for token in vocab.tokens:
            assert vocab.token_at(vocab.index_of(token)) == token


class TestGraphConstruction:
    def test_dot_graph_structure(self, dot_module):
        graph = build_graph(dot_module)
        assert graph.validate() == []
        kinds = {node.kind for node in graph.nodes}
        assert kinds == {NODE_KIND_INSTRUCTION, NODE_KIND_VARIABLE, NODE_KIND_CONSTANT}
        counts = graph.edge_counts()
        assert counts[FLOW_CONTROL] > 0
        assert counts[FLOW_DATA] > 0

    def test_control_edges_follow_block_order(self, dot_module):
        graph = build_graph(dot_module)
        # the loop terminator has a control edge back to the loop's first inst
        control = graph.edges_of_flow(FLOW_CONTROL)
        sources = {e.source for e in control}
        assert len(control) >= len([n for n in graph.nodes if n.kind == "instruction"]) - 3
        assert sources

    def test_call_edges_connect_helper(self, region_suite):
        region = next(r for r in region_suite if r.spec.flop_chain >= 4)
        graph = GraphBuilder().build_module(region.module)
        assert graph.edge_counts()[FLOW_CALL] >= 1

    def test_instruction_token_specialization(self):
        fn = parse_function(
            """
define f64 @f(f64 %x, f64* %p) {
entry:
  %c = fcmp ogt %x, 0.5:f64
  %s = call f64 @sqrt(%x)
  %old = atomicrmw fadd f64 %p, %x
  ret %s
}
"""
        )
        tokens = [instruction_token(i) for i in fn.instructions()]
        assert "fcmp_ogt" in tokens
        assert "call_sqrt" in tokens
        assert "atomicrmw_fadd" in tokens

    def test_graph_changes_with_flag_sequence(self, region_suite):
        region = region_suite[0]
        base = GraphBuilder().build_module(region.module)
        optimized_module = apply_flag_sequence(region.module, pipeline("O3"))
        optimized = GraphBuilder().build_module(optimized_module)
        assert optimized.num_nodes != base.num_nodes or optimized.num_edges != base.num_edges

    def test_merge_graphs(self, dot_module):
        a = build_graph(dot_module)
        merged = merge_graphs([a, a])
        assert merged.num_nodes == 2 * a.num_nodes
        assert merged.num_edges == 2 * a.num_edges

    def test_to_networkx(self, dot_module):
        graph = build_graph(dot_module)
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == graph.num_nodes
        assert nx_graph.number_of_edges() == graph.num_edges

    def test_statistics(self, dot_module):
        stats = graph_statistics([build_graph(dot_module)])
        assert stats["count"] == 1
        assert stats["nodes_mean"] > 0


class TestEncoding:
    def test_encoded_shapes(self, dot_module):
        graph = build_graph(dot_module)
        encoder = GraphEncoder()
        encoded = encoder.encode(graph, label=5)
        assert encoded.token_ids.shape[0] == graph.num_nodes
        assert encoded.extra_features.shape == (graph.num_nodes, GraphEncoder.NUM_EXTRA_FEATURES)
        assert encoded.label == 5
        assert set(encoded.relations) == set(RELATIONS)

    def test_reverse_relations_mirror_forward(self, dot_module):
        encoded = GraphEncoder().encode(build_graph(dot_module))
        fwd = encoded.relations["data"]
        rev = encoded.relations["data_rev"]
        assert fwd.shape == rev.shape
        assert np.array_equal(fwd[0], rev[1])
        assert np.array_equal(fwd[1], rev[0])

    def test_loop_depth_feature_nonzero(self, dot_module):
        encoded = GraphEncoder().encode(build_graph(dot_module))
        assert encoded.extra_features[:, 0].max() >= 1.0

    def test_literal_magnitude_feature(self, region_suite):
        clomp = next(r for r in region_suite if r.family == "clomp")
        encoded = GraphEncoder().encode(build_graph(clomp.module))
        assert encoded.extra_features[:, 4].max() > 0.0


class TestBatching:
    def test_collate_offsets_edges(self, dot_module):
        encoder = GraphEncoder()
        encoded = encoder.encode(build_graph(dot_module), label=1)
        batch = collate([encoded, encoded, encoded])
        assert batch.num_graphs == 3
        assert batch.num_nodes == 3 * encoded.num_nodes
        assert batch.labels.tolist() == [1, 1, 1]
        # Edge indices of the last graph must be offset into the last block.
        data_edges = batch.relations["data"]
        assert data_edges.max() < batch.num_nodes
        assert data_edges.max() >= 2 * encoded.num_nodes

    def test_collate_empty_rejected(self):
        with pytest.raises(ValueError):
            collate([])

    def test_normalized_adjacency_rows(self, dot_module):
        encoded = GraphEncoder().encode(build_graph(dot_module))
        batch = collate([encoded, encoded])
        adjacency = batch.normalized_adjacency()
        matrix = adjacency["data"]
        rows = np.asarray(matrix.sum(axis=1)).ravel()
        # Every row with incoming data edges sums to exactly 1 (mean aggregation).
        nonzero = rows[rows > 0]
        assert np.allclose(nonzero, 1.0)

    @given(st.integers(min_value=1, max_value=7))
    @settings(max_examples=10, deadline=None)
    def test_minibatches_cover_every_graph(self, batch_size):
        graph = ProgramGraph("tiny")
        node = graph.add_node(NODE_KIND_INSTRUCTION, "ret")
        encoder = GraphEncoder()
        graphs = [encoder.encode(graph, label=i % 3) for i in range(13)]
        seen = 0
        for batch in iterate_minibatches(graphs, batch_size, shuffle=True, seed=1):
            seen += batch.num_graphs
        assert seen == len(graphs)


def _zero_node_graph(name: str = "empty") -> EncodedGraph:
    return EncodedGraph(
        name=name,
        token_ids=np.zeros(0, dtype=np.int64),
        kind_ids=np.zeros(0, dtype=np.int64),
        extra_features=np.zeros((0, GraphEncoder.NUM_EXTRA_FEATURES)),
        relations={},
    )


class TestBatchingEdgeCases:
    def test_adjacency_cache_hit_across_repeated_calls(self, dot_module):
        encoded = GraphEncoder().encode(build_graph(dot_module))
        batch = collate([encoded, encoded])
        first = batch.normalized_adjacency()
        second = batch.normalized_adjacency()
        third = batch.normalized_adjacency()
        # Same object every time, and the sparse matrices were built exactly once.
        assert first is second is third
        assert batch.adjacency_builds == 1

    def test_adjacency_cache_hit_across_model_forwards(self, dot_module):
        from repro.gnn import ModelConfig, StaticRGCNModel

        encoder = GraphEncoder()
        encoded = encoder.encode(build_graph(dot_module))
        batch = collate([encoded])
        model = StaticRGCNModel(
            ModelConfig(
                vocabulary_size=len(encoder.vocabulary),
                num_classes=2,
                hidden_dim=4,
                graph_vector_dim=4,
                num_rgcn_layers=2,
                num_extra_features=GraphEncoder.NUM_EXTRA_FEATURES,
            )
        )
        model.eval()
        logits_a, _ = model.forward(batch)
        logits_b, _ = model.forward(batch)
        assert np.array_equal(logits_a, logits_b)
        assert batch.adjacency_builds == 1

    def test_invalidate_adjacency_cache_rebuilds(self, dot_module):
        encoded = GraphEncoder().encode(build_graph(dot_module))
        batch = collate([encoded])
        batch.normalized_adjacency()
        batch.invalidate_adjacency_cache()
        batch.normalized_adjacency()
        assert batch.adjacency_builds == 2

    def test_single_graph_fast_path_matches_generic(self, dot_module):
        encoded = GraphEncoder().encode(build_graph(dot_module), label=3)
        single = collate([encoded])
        # Compare against the generic path's layout via a two-graph batch's
        # first block: identical node arrays and un-offset edges.
        double = collate([encoded, encoded])
        assert single.num_graphs == 1
        assert single.names == [encoded.name]
        assert single.labels.tolist() == [3]
        assert np.array_equal(single.token_ids, encoded.token_ids)
        assert np.array_equal(single.graph_index, np.zeros(encoded.num_nodes, dtype=np.int64))
        for rel in RELATIONS:
            n_single = single.relations[rel].shape[1]
            assert single.relations[rel].shape[0] == 2
            # First half of the doubled batch's edges equals the single batch.
            assert np.array_equal(
                double.relations[rel][:, :n_single], single.relations[rel]
            )

    def test_single_graph_forward_equals_batched_row(self, dot_module):
        from repro.gnn import ModelConfig, StaticRGCNModel

        encoder = GraphEncoder()
        encoded = encoder.encode(build_graph(dot_module))
        model = StaticRGCNModel(
            ModelConfig(
                vocabulary_size=len(encoder.vocabulary),
                num_classes=3,
                hidden_dim=6,
                graph_vector_dim=6,
                num_rgcn_layers=1,
                num_extra_features=GraphEncoder.NUM_EXTRA_FEATURES,
            )
        )
        model.eval()
        single_logits, _ = model.forward(collate([encoded]))
        batched_logits, _ = model.forward(collate([encoded, encoded]))
        assert np.allclose(single_logits[0], batched_logits[0])
        assert np.allclose(single_logits[0], batched_logits[1])

    def test_single_graph_fast_path_shares_read_only(self, dot_module):
        encoded = GraphEncoder().encode(build_graph(dot_module))
        single = collate([encoded])
        # Shared views must refuse in-place writes so the source encoded
        # graph (and its fingerprint) cannot be corrupted through the batch.
        with pytest.raises(ValueError):
            single.token_ids[0] = 0
        with pytest.raises(ValueError):
            single.extra_features[0, 0] = 1.0
        # ... while the source graph itself stays writable.
        encoded.token_ids[0] = encoded.token_ids[0]

    def test_zero_node_graph_in_batch(self, dot_module):
        encoded = GraphEncoder().encode(build_graph(dot_module))
        batch = collate([_zero_node_graph(), encoded])
        assert batch.num_graphs == 2
        assert batch.num_nodes == encoded.num_nodes
        adjacency = batch.normalized_adjacency()
        assert set(adjacency) == set(RELATIONS)

    def test_single_zero_node_graph(self):
        batch = collate([_zero_node_graph()])
        assert batch.num_graphs == 1
        assert batch.num_nodes == 0
        # Zero-edge (indeed zero-node) relations must not crash: every
        # relation normalises to "no adjacency".
        adjacency = batch.normalized_adjacency()
        assert all(matrix is None for matrix in adjacency.values())

    def test_zero_edge_relations_normalize_to_none(self):
        graph = EncodedGraph(
            name="edgeless",
            token_ids=np.array([1, 2], dtype=np.int64),
            kind_ids=np.zeros(2, dtype=np.int64),
            extra_features=np.zeros((2, GraphEncoder.NUM_EXTRA_FEATURES)),
            relations={rel: np.zeros((2, 0), dtype=np.int64) for rel in RELATIONS},
        )
        batch = collate([graph])
        adjacency = batch.normalized_adjacency()
        assert all(matrix is None for matrix in adjacency.values())

    def test_collate_empty_raises_value_error(self):
        with pytest.raises(ValueError, match="empty"):
            collate([])

    def test_iterate_minibatches_empty_dataset_yields_nothing(self):
        assert list(iterate_minibatches([], batch_size=4, shuffle=False)) == []

    def test_batch_repr_and_eq_are_safe(self, dot_module):
        encoded = GraphEncoder().encode(build_graph(dot_module))
        batch_a = collate([encoded])
        batch_b = collate([encoded, encoded])
        batch_a.normalized_adjacency()
        # repr must not dump the adjacency cache; eq on differently sized
        # batches must not raise a broadcast error (identity semantics).
        assert "_adjacency_cache" not in repr(batch_a)
        assert (batch_a == batch_b) is False
        assert (batch_a == batch_a) is True


class TestFingerprint:
    def test_same_region_encoded_twice_is_identical(self, small_suite):
        builder = GraphBuilder()
        region = small_suite[0]
        encoded_a = GraphEncoder().encode(builder.build_module(region.module))
        encoded_b = GraphEncoder().encode(builder.build_module(region.module))
        assert graph_fingerprint(encoded_a) == graph_fingerprint(encoded_b)

    def test_stable_across_vocabulary_reload(self, small_suite):
        builder = GraphBuilder()
        region = small_suite[1]
        # Two independent encoders (fresh vocabulary objects) must agree.
        encoder_a, encoder_b = GraphEncoder(), GraphEncoder()
        assert encoder_a.vocabulary is not encoder_b.vocabulary
        fp_a = graph_fingerprint(encoder_a.encode(builder.build_module(region.module)))
        fp_b = graph_fingerprint(encoder_b.encode(builder.build_module(region.module)))
        assert fp_a == fp_b

    def test_distinct_regions_do_not_collide(self, small_suite):
        builder = GraphBuilder()
        encoder = GraphEncoder()
        encoded = [
            encoder.encode(builder.build_module(region.module))
            for region in small_suite
        ]
        fingerprints = fingerprint_many(encoded)
        assert len(set(fingerprints)) == len(small_suite)

    def test_missing_and_empty_relations_hash_identically(self):
        base = dict(
            token_ids=np.array([1, 2], dtype=np.int64),
            kind_ids=np.zeros(2, dtype=np.int64),
            extra_features=np.zeros((2, GraphEncoder.NUM_EXTRA_FEATURES)),
        )
        absent = EncodedGraph(name="a", relations={}, **base)
        empty = EncodedGraph(
            name="b",
            relations={rel: np.zeros((2, 0), dtype=np.int64) for rel in RELATIONS},
            **base,
        )
        # Both feed the model identically, so they must share a fingerprint.
        assert graph_fingerprint(absent) == graph_fingerprint(empty)

    def test_label_and_metadata_do_not_affect_fingerprint(self, dot_module):
        encoder = GraphEncoder()
        encoded_a = encoder.encode(build_graph(dot_module))
        encoded_b = encoder.encode(build_graph(dot_module), label=5)
        encoded_b.metadata = {"anything": "else"}
        encoded_b.name = "renamed"
        assert graph_fingerprint(encoded_a) == graph_fingerprint(encoded_b)

    def test_structure_changes_change_fingerprint(self, dot_module):
        encoder = GraphEncoder()
        encoded = encoder.encode(build_graph(dot_module))
        baseline = graph_fingerprint(encoded)
        mutated_tokens = EncodedGraph(
            name=encoded.name,
            token_ids=encoded.token_ids.copy(),
            kind_ids=encoded.kind_ids,
            extra_features=encoded.extra_features,
            relations=encoded.relations,
        )
        mutated_tokens.token_ids[0] += 1
        assert graph_fingerprint(mutated_tokens) != baseline
        mutated_edges = EncodedGraph(
            name=encoded.name,
            token_ids=encoded.token_ids,
            kind_ids=encoded.kind_ids,
            extra_features=encoded.extra_features,
            relations={**encoded.relations, "control": np.zeros((2, 0), dtype=np.int64)},
        )
        assert graph_fingerprint(mutated_edges) != baseline


class _ForgedGraphPickle:
    """Pickles as a tampered :meth:`ProgramGraph.__reduce__` payload."""

    def __init__(self, graph, node_kind=None, edge_flow=None):
        rebuild, (name, nodes, edges, metadata) = graph.__reduce__()
        if node_kind is not None:
            nodes = ((node_kind,) + nodes[0][1:],) + nodes[1:]
        if edge_flow is not None:
            edges = (edges[0][:2] + (edge_flow,) + edges[0][3:],) + edges[1:]
        self._reduced = (rebuild, (name, nodes, edges, metadata))

    def __reduce__(self):
        return self._reduced


class TestPickleWireForm:
    """``ProgramGraph`` pickles in a compact tuple form (it rides the
    replica pipe once per request); the round trip must be lossless."""

    @pytest.fixture()
    def graph(self, dot_module):
        graph = build_graph(dot_module)
        graph.metadata.update({"region": "dot", "sequence": ["-O2"], "label": 3})
        assert any(node.features for node in graph.nodes)
        return graph

    def test_round_trip_keeps_every_field(self, graph):
        restored = pickle.loads(pickle.dumps(graph))
        assert restored is not graph
        assert restored.name == graph.name
        assert restored.metadata == graph.metadata
        assert restored.nodes == graph.nodes  # id, kind, text, function, block, features
        assert restored.edges == graph.edges
        assert restored.validate() == []

    def test_round_trip_keeps_model_inputs(self, graph):
        restored = pickle.loads(pickle.dumps(graph))
        expected = graph.relation_edge_arrays()
        arrays = restored.relation_edge_arrays()
        assert sorted(arrays) == sorted(expected)
        for relation, edges in expected.items():
            np.testing.assert_array_equal(arrays[relation], edges)
        encoder = GraphEncoder()
        assert graph_fingerprint(encoder.encode(restored)) == graph_fingerprint(
            encoder.encode(graph)
        )

    def test_compact_form_is_smaller_than_the_object_graph(self, graph):
        # What the default pickle carries: one dataclass instance per node
        # and edge, every field name spelled out.
        assert len(pickle.dumps(graph)) < len(pickle.dumps(graph.__dict__))

    def test_unknown_node_kind_is_rejected_on_load(self, graph):
        payload = pickle.dumps(_ForgedGraphPickle(graph, node_kind="register"))
        with pytest.raises(ValueError, match="unknown node kind"):
            pickle.loads(payload)

    def test_unknown_edge_flow_is_rejected_on_load(self, graph):
        payload = pickle.dumps(_ForgedGraphPickle(graph, edge_flow="alias"))
        with pytest.raises(ValueError, match="unknown edge flow"):
            pickle.loads(payload)
