"""The Data Flow Builder (paper §3.1.1).

Builds the weighted data-flow graph over (triple, access-method) pairs
(Definition 3.8) and extracts the optimal flow tree with the greedy
cheapest-edge algorithm of Figure 9 (finding the true minimum tree is
NP-hard, Theorem 3.1).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from ...core.stats import DatasetStatistics
from ..algebra import PatternTree
from ..ast import TriplePattern
from .cost import ALL_METHODS, produced_vars, required_vars, triple_method_cost


@dataclass(frozen=True, eq=False)
class FlowNode:
    """A (triple pattern, access method) pair — a vertex of the flow graph.

    Equality is by triple *identity* plus method, so structurally identical
    triple patterns stay distinct vertices.
    """

    triple: TriplePattern
    method: str

    def __repr__(self) -> str:
        return f"({self.triple}, {self.method})"

    def __hash__(self) -> int:
        return hash((id(self.triple), self.method))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FlowNode)
            and self.triple is other.triple
            and self.method == other.method
        )


@dataclass
class DataFlowGraph:
    """Vertices, the root's outgoing edges, and producer→consumer edges."""

    nodes: list[FlowNode]
    root_edges: list[tuple[FlowNode, float]]
    edges: dict[FlowNode, list[tuple[FlowNode, float]]]
    costs: dict[FlowNode, float]


def build_data_flow_graph(
    triples: list[TriplePattern],
    tree: PatternTree,
    stats: DatasetStatistics,
    methods: tuple[str, ...] = ALL_METHODS,
) -> DataFlowGraph:
    """Definition 3.8, with the paper's two exclusions: no edges between
    OR-connected triples, and no edges whose producer is optional with
    respect to the consumer."""
    nodes: list[FlowNode] = [
        FlowNode(triple, method) for triple in triples for method in methods
    ]
    costs = {
        node: triple_method_cost(node.triple, node.method, stats) for node in nodes
    }

    root_edges: list[tuple[FlowNode, float]] = []
    producers_by_var: dict[str, list[FlowNode]] = {}
    consumers_by_var: dict[str, list[FlowNode]] = {}
    for node in nodes:
        required = required_vars(node.triple, node.method)
        if not required:
            root_edges.append((node, costs[node]))
        else:
            for variable in required:
                consumers_by_var.setdefault(variable, []).append(node)
        for variable in produced_vars(node.triple, node.method):
            producers_by_var.setdefault(variable, []).append(node)

    edges: dict[FlowNode, list[tuple[FlowNode, float]]] = {node: [] for node in nodes}
    # Our access methods require at most one variable, so an edge exists
    # exactly when the producer covers the consumer's single required var.
    for variable, consumers in consumers_by_var.items():
        for producer in producers_by_var.get(variable, []):
            for consumer in consumers:
                if producer.triple is consumer.triple:
                    continue
                if tree.or_connected(producer.triple, consumer.triple):
                    continue
                if tree.optional_connected(consumer.triple, producer.triple):
                    # the producer is optional w.r.t. the consumer: its
                    # bindings may be absent, so it cannot feed the lookup
                    continue
                edges[producer].append((consumer, costs[consumer]))
    return DataFlowGraph(nodes, root_edges, edges, costs)


@dataclass
class FlowTree:
    """The greedy optimal flow tree: chosen method and rank per triple."""

    order: list[FlowNode] = field(default_factory=list)
    parent: dict[FlowNode, FlowNode | None] = field(default_factory=dict)
    _method_by_triple: dict[int, str] = field(default_factory=dict)
    _rank_by_triple: dict[int, int] = field(default_factory=dict)

    def add(self, node: FlowNode, parent: FlowNode | None) -> None:
        self._rank_by_triple[id(node.triple)] = len(self.order)
        self.order.append(node)
        self.parent[node] = parent
        self._method_by_triple[id(node.triple)] = node.method

    def method_of(self, triple: TriplePattern) -> str:
        return self._method_by_triple[id(triple)]

    def rank_of(self, triple: TriplePattern) -> int:
        return self._rank_by_triple[id(triple)]


def optimal_flow_tree(graph: DataFlowGraph) -> FlowTree:
    """Figure 9: grow the tree by repeatedly taking the cheapest edge from a
    tree node to a node whose triple is not yet covered (Prim-style with a
    heap; identical choice sequence to the paper's sorted-edge scan)."""
    tree = FlowTree()
    covered: set[int] = set()
    counter = itertools.count()
    heap: list[tuple[float, int, FlowNode, FlowNode | None]] = []
    for node, weight in graph.root_edges:
        heapq.heappush(heap, (weight, next(counter), node, None))

    total_triples = len({id(node.triple) for node in graph.nodes})
    while heap and len(covered) < total_triples:
        weight, _, node, parent = heapq.heappop(heap)
        if id(node.triple) in covered:
            continue
        tree.add(node, parent)
        covered.add(id(node.triple))
        for successor, successor_weight in graph.edges.get(node, []):
            if id(successor.triple) not in covered:
                heapq.heappush(
                    heap, (successor_weight, next(counter), successor, node)
                )
    if len(covered) < total_triples:
        # Disconnected remainder (can only happen with a restricted method
        # menu): fall back to scans so every triple is reachable.
        for node in graph.nodes:
            if node.method == "sc" and id(node.triple) not in covered:
                tree.add(node, None)
                covered.add(id(node.triple))
    return tree


def build_flow(
    triples: list[TriplePattern],
    tree: PatternTree,
    stats: DatasetStatistics,
    methods: tuple[str, ...] = ALL_METHODS,
) -> FlowTree:
    """Convenience: graph construction plus greedy extraction."""
    graph = build_data_flow_graph(triples, tree, stats, methods)
    return optimal_flow_tree(graph)
