"""Program-graph data structures (ProGraML-style).

A :class:`ProgramGraph` is a heterogeneous directed graph with three node
kinds (instruction, variable, constant) and three edge flows (control, data,
call), following Cummins et al.'s ProGraML representation that the paper
reuses.  Reverse edges are materialised as separate relations when the graph
is exported for the RGCN, so information can flow both ways during message
passing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

NODE_KIND_INSTRUCTION = "instruction"
NODE_KIND_VARIABLE = "variable"
NODE_KIND_CONSTANT = "constant"
NODE_KINDS = (NODE_KIND_INSTRUCTION, NODE_KIND_VARIABLE, NODE_KIND_CONSTANT)

FLOW_CONTROL = "control"
FLOW_DATA = "data"
FLOW_CALL = "call"
FLOWS = (FLOW_CONTROL, FLOW_DATA, FLOW_CALL)

#: relation names used by the RGCN: each flow plus its reverse.
RELATIONS = tuple(
    [flow for flow in FLOWS] + [f"{flow}_rev" for flow in FLOWS]
)


@dataclass
class Node:
    """One node of a program graph."""

    id: int
    kind: str
    text: str
    function: str = ""
    block: str = ""
    features: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")


@dataclass(frozen=True)
class Edge:
    """One directed edge with a flow type and a position (operand index)."""

    source: int
    target: int
    flow: str
    position: int = 0

    def __post_init__(self) -> None:
        if self.flow not in FLOWS:
            raise ValueError(f"unknown edge flow {self.flow!r}")


#: per-node / per-edge fields of the compact pickle form, in the order
#: :func:`_program_graph_from_wire` takes them back.
_NODE_WIRE_FIELDS = attrgetter("kind", "text", "function", "block", "features")
_EDGE_WIRE_FIELDS = attrgetter("source", "target", "flow", "position")


class ProgramGraph:
    """A ProGraML-style program graph."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: List[Node] = []
        self.edges: List[Edge] = []
        #: free-form metadata: region name, flag sequence, label, ...
        self.metadata: Dict[str, object] = {}

    # ---------------------------------------------------------- construction
    def add_node(
        self,
        kind: str,
        text: str,
        function: str = "",
        block: str = "",
        **features: float,
    ) -> Node:
        node = Node(
            id=len(self.nodes),
            kind=kind,
            text=text,
            function=function,
            block=block,
            features=dict(features),
        )
        self.nodes.append(node)
        return node

    def add_edge(self, source: Node, target: Node, flow: str, position: int = 0) -> Edge:
        edge = Edge(source=source.id, target=target.id, flow=flow, position=position)
        self.edges.append(edge)
        return edge

    # --------------------------------------------------------------- queries
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def nodes_of_kind(self, kind: str) -> List[Node]:
        return [n for n in self.nodes if n.kind == kind]

    def edges_of_flow(self, flow: str) -> List[Edge]:
        return [e for e in self.edges if e.flow == flow]

    def edge_counts(self) -> Dict[str, int]:
        counts = {flow: 0 for flow in FLOWS}
        for edge in self.edges:
            counts[edge.flow] += 1
        return counts

    def out_degree(self, node_id: int, flow: Optional[str] = None) -> int:
        return sum(
            1
            for e in self.edges
            if e.source == node_id and (flow is None or e.flow == flow)
        )

    def in_degree(self, node_id: int, flow: Optional[str] = None) -> int:
        return sum(
            1
            for e in self.edges
            if e.target == node_id and (flow is None or e.flow == flow)
        )

    def validate(self) -> List[str]:
        """Structural sanity checks; returns a list of problems (empty = OK)."""
        problems: List[str] = []
        for i, node in enumerate(self.nodes):
            if node.id != i:
                problems.append(f"node {i} has id {node.id}")
        for edge in self.edges:
            if not (0 <= edge.source < len(self.nodes)):
                problems.append(f"edge source {edge.source} out of range")
            if not (0 <= edge.target < len(self.nodes)):
                problems.append(f"edge target {edge.target} out of range")
        return problems

    # ---------------------------------------------------------------- export
    def relation_edge_arrays(self) -> Dict[str, np.ndarray]:
        """Edge index arrays per relation (including reverse relations).

        Returns a dict mapping relation name to an int array of shape
        ``(2, num_edges_r)`` holding (source, target) rows.
        """
        arrays: Dict[str, List[Tuple[int, int]]] = {rel: [] for rel in RELATIONS}
        for edge in self.edges:
            arrays[edge.flow].append((edge.source, edge.target))
            arrays[f"{edge.flow}_rev"].append((edge.target, edge.source))
        result: Dict[str, np.ndarray] = {}
        for rel, pairs in arrays.items():
            if pairs:
                result[rel] = np.asarray(pairs, dtype=np.int64).T
            else:
                result[rel] = np.zeros((2, 0), dtype=np.int64)
        return result

    def to_networkx(self):
        """Export to a :class:`networkx.MultiDiGraph` for analysis/plotting."""
        import networkx as nx

        graph = nx.MultiDiGraph(name=self.name)
        for node in self.nodes:
            graph.add_node(
                node.id,
                kind=node.kind,
                text=node.text,
                function=node.function,
                block=node.block,
            )
        for edge in self.edges:
            graph.add_edge(edge.source, edge.target, flow=edge.flow, position=edge.position)
        return graph

    def __reduce__(self):
        """Pickle as plain tuples rather than one dataclass per node/edge.

        Graphs cross the replica pipe once per request, and the default
        object-graph pickle of every :class:`Node`/:class:`Edge` instance
        is both larger and slower to produce.  Node ids are positional
        (``add_node`` assigns them), so they are not stored; the rebuild
        in :func:`_program_graph_from_wire` validates kinds and flows the
        way the constructors do.
        """
        nodes = tuple(map(_NODE_WIRE_FIELDS, self.nodes))
        edges = tuple(map(_EDGE_WIRE_FIELDS, self.edges))
        return _program_graph_from_wire, (self.name, nodes, edges, self.metadata)

    def __repr__(self) -> str:
        counts = self.edge_counts()
        return (
            f"<ProgramGraph {self.name}: {self.num_nodes} nodes, "
            f"{counts[FLOW_CONTROL]} control / {counts[FLOW_DATA]} data / "
            f"{counts[FLOW_CALL]} call edges>"
        )


def _program_graph_from_wire(
    name: str,
    nodes: Iterable[Tuple[str, str, str, str, Dict[str, float]]],
    edges: Iterable[Tuple[int, int, str, int]],
    metadata: Dict[str, object],
) -> ProgramGraph:
    """Rebuild a graph from its :meth:`ProgramGraph.__reduce__` form;
    an unknown node kind or edge flow raises :class:`ValueError`."""
    graph = ProgramGraph(name)
    graph.nodes = [
        Node(index, kind, text, function, block, features)
        for index, (kind, text, function, block, features) in enumerate(nodes)
    ]
    graph.edges = [
        Edge(source, target, flow, position)
        for source, target, flow, position in edges
    ]
    graph.metadata = metadata
    return graph


def merge_graphs(graphs: Iterable[ProgramGraph], name: str = "merged") -> ProgramGraph:
    """Disjoint union of several program graphs (used rarely; batching for
    the GNN lives in :mod:`repro.graphs.batching`)."""
    merged = ProgramGraph(name)
    for graph in graphs:
        offset = merged.num_nodes
        for node in graph.nodes:
            merged.add_node(
                node.kind, node.text, node.function, node.block, **node.features
            )
        for edge in graph.edges:
            merged.edges.append(
                Edge(edge.source + offset, edge.target + offset, edge.flow, edge.position)
            )
    return merged
