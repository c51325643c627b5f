"""Native in-memory store: hexastore indexes and BGP reordering."""

import pytest

from repro import Graph, Triple, URI
from repro.baselines import NativeMemoryStore
from repro.baselines.native_memory import HexastoreIndexes
from repro.core.resilience import QueryTimeoutError
from repro.sparql import query_graph

from ..conftest import FIGURE6_QUERY


def t(s, p, o):
    return Triple(URI(s), URI(p), URI(o))


class TestHexastoreIndexes:
    def setup_method(self):
        self.idx = HexastoreIndexes()
        for triple in [t("a", "p", "b"), t("a", "q", "c"), t("d", "p", "b")]:
            self.idx.add(triple)

    def test_duplicates_ignored(self):
        self.idx.add(t("a", "p", "b"))
        assert self.idx.total == 3

    def test_match_by_subject(self):
        assert len(list(self.idx.match(URI("a"), None, None))) == 2

    def test_match_by_object(self):
        assert len(list(self.idx.match(None, None, URI("b")))) == 2

    def test_match_by_predicate(self):
        assert len(list(self.idx.match(None, URI("p"), None))) == 2

    def test_match_fully_bound(self):
        assert len(list(self.idx.match(URI("a"), URI("p"), URI("b")))) == 1
        assert len(list(self.idx.match(URI("a"), URI("p"), URI("zz")))) == 0

    def test_match_all(self):
        assert len(list(self.idx.match(None, None, None))) == 3

    def test_cardinality_estimates(self):
        assert self.idx.cardinality(URI("a"), None, None) == 2.0
        assert self.idx.cardinality(None, URI("p"), None) == 2.0
        assert self.idx.cardinality(None, None, URI("b")) == 2.0
        assert self.idx.cardinality(None, None, None) == 3.0
        assert self.idx.cardinality(URI("zz"), None, None) == 0.0


class TestQueries:
    def test_figure6_matches_reference(self, fig1_graph):
        store = NativeMemoryStore.from_graph(fig1_graph)
        reference = query_graph(fig1_graph, FIGURE6_QUERY)
        assert store.query(FIGURE6_QUERY).matches(reference)

    def test_reordering_does_not_change_answers(self, fig1_graph):
        query = (
            "SELECT ?s ?hq WHERE { ?s <HQ> ?hq . ?s <industry> <Software> . "
            "?s <employees> ?e }"
        )
        optimized = NativeMemoryStore.from_graph(fig1_graph)
        unoptimized = NativeMemoryStore.from_graph(fig1_graph, optimize_bgp=False)
        assert optimized.query(query).matches(unoptimized.query(query))

    def test_timeout(self):
        graph = Graph()
        for i in range(60):
            for j in range(60):
                graph.add(t(f"s{i}", "p", f"o{j}"))
        store = NativeMemoryStore.from_graph(graph)
        with pytest.raises(QueryTimeoutError):
            store.query(
                "SELECT * WHERE { ?a <p> ?x . ?b <p> ?x . ?c <p> ?x . ?d <p> ?x }",
                timeout=0.02,
            )

    def test_ask(self, fig1_graph):
        store = NativeMemoryStore.from_graph(fig1_graph)
        assert len(store.query("ASK { <IBM> <industry> <Software> }")) == 1
        assert len(store.query("ASK { <IBM> <industry> <Farming> }")) == 0
