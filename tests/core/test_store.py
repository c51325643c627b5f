"""RdfStore end-to-end behaviour on the paper's running example."""

import pytest

from repro import Graph, MiniRelBackend, RdfStore, SqliteBackend, Triple, URI
from repro.core.mapping import ColoringMapper
from repro.rdf.terms import Literal
from repro.sparql import query_graph
from repro.workloads import planbattery

from ..conftest import FIGURE6_QUERY


@pytest.fixture(params=["minirel", "sqlite"])
def store(request, fig1_graph):
    backend = SqliteBackend() if request.param == "sqlite" else None
    return RdfStore.from_graph(fig1_graph, backend=backend)


class TestBasicQueries:
    def test_point_lookup(self, store):
        result = store.query("SELECT ?o WHERE { <Charles_Flint> <founder> ?o }")
        assert result.key_rows() == [("IBM",)]

    def test_multivalued_lookup(self, store):
        result = store.query("SELECT ?i WHERE { <IBM> <industry> ?i }")
        assert sorted(result.key_rows()) == [
            ("Hardware",), ("Services",), ("Software",),
        ]

    def test_reverse_lookup(self, store):
        result = store.query("SELECT ?who WHERE { ?who <industry> <Software> }")
        assert sorted(result.key_rows()) == [("Google",), ("IBM",)]

    def test_star_query(self, store):
        result = store.query(
            "SELECT ?s WHERE { ?s <industry> <Software> . ?s <HQ> <Armonk> }"
        )
        assert result.key_rows() == [("IBM",)]

    def test_figure6_query(self, store, fig1_graph):
        reference = query_graph(fig1_graph, FIGURE6_QUERY)
        result = store.query(FIGURE6_QUERY)
        assert result.matches(reference)

    def test_ask(self, store):
        assert store.ask("ASK { <IBM> <industry> <Software> }")
        assert not store.ask("ASK { <IBM> <industry> <Farming> }")

    def test_unbound_projection(self, store):
        result = store.query("SELECT ?nowhere WHERE { <IBM> <HQ> ?hq }")
        assert result.key_rows() == [(None,)]


class TestConstructionVariants:
    def test_coloring_on_by_default(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        assert isinstance(store.direct_mapper, ColoringMapper)
        # Figure 4: 13 predicates fit in at most 5 columns.
        assert store.schema.direct_columns <= 5

    def test_no_coloring_uses_hash_composition(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph, use_coloring=False)
        assert not isinstance(store.direct_mapper, ColoringMapper)
        result = store.query("SELECT ?o WHERE { <IBM> <employees> ?o }")
        assert result.key_rows() == [("433362",)]

    def test_sample_coloring_still_loads_everything(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph, sample_fraction=0.5)
        result = store.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        assert len(result) == len(fig1_graph)

    def test_report(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        report = store.report()
        assert report.triples == 21
        assert report.direct.entities == 5
        assert "industry" in report.direct.multivalued

    def test_table_prefix_isolates_stores(self, fig1_graph):
        backend = SqliteBackend()
        first = RdfStore.from_graph(fig1_graph, backend=backend, table_prefix="A_")
        second = RdfStore(backend=backend, table_prefix="B_")
        assert len(first.query("SELECT ?s WHERE { ?s <HQ> ?o }")) == 2
        assert len(second.query("SELECT ?s WHERE { ?s <HQ> ?o }")) == 0


class TestIncrementalAdd:
    def test_add_then_query(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        store.add(Triple(URI("IBM"), URI("founded"), URI("1911")))
        result = store.query("SELECT ?y WHERE { <IBM> <founded> ?y }")
        assert result.key_rows() == [("1911",)]

    def test_add_new_multivalue(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        store.add(Triple(URI("IBM"), URI("industry"), URI("Consulting")))
        result = store.query("SELECT ?i WHERE { <IBM> <industry> ?i }")
        assert len(result) == 4

    def test_add_unseen_predicate_uses_hash_fallback(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)  # colored mappers
        store.add(Triple(URI("Android"), URI("license"), URI("Apache2")))
        result = store.query("SELECT ?l WHERE { <Android> <license> ?l }")
        assert result.key_rows() == [("Apache2",)]


class TestExplain:
    def test_explain_mentions_schema_tables(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        sql = store.explain(
            "SELECT ?s WHERE { ?s <industry> <Software> . ?s <HQ> <Armonk> }"
        )
        assert "RPH" in sql or "DPH" in sql
        assert "WITH" in sql

    def test_merged_star_uses_single_access(self, fig1_graph):
        """Two subject-star triples merge into one DPH access: the SQL
        references DPH exactly once (the Figure 2(b) claim)."""
        store = RdfStore.from_graph(fig1_graph)
        sql = store.explain(
            "SELECT ?hq ?n WHERE { <IBM> <HQ> ?hq . <IBM> <employees> ?n }"
        )
        assert sql.count('"DPH"') == 1


@pytest.mark.parametrize("backend_factory", [MiniRelBackend, SqliteBackend])
class TestAppendingLoad:
    """``load_graph`` on a loaded store goes through the path ``add`` takes:
    placement beside stored rows, duplicate detection and the journal."""

    def test_appended_predicate_joins_stored_entities(self, backend_factory):
        data = planbattery.generate()
        b = planbattery.PB.base
        store = RdfStore.from_graph(data.graph, backend=backend_factory())
        nicks = Graph(
            Triple(URI(f"{b}person{i}"), URI(f"{b}nick"), Literal(f"p{i}"))
            for i in range(200)
        )
        store.load_graph(nicks)
        query = f"SELECT ?p ?k WHERE {{ ?p <{b}name> ?n . ?p <{b}nick> ?k }}"
        assert len(store.query(query)) == 200

    def test_reloading_the_same_graph_changes_nothing(self, backend_factory):
        data = planbattery.generate()
        store = RdfStore.from_graph(data.graph, backend=backend_factory())
        epoch = store.stats.epoch
        store.load_graph(data.graph)
        assert len(store.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")) == len(
            data.graph
        )
        assert store.stats.total_triples == len(data.graph)
        assert store.stats.epoch == epoch  # nothing changed, plans stay warm

    def test_load_inside_a_transaction_commits_with_it(self, backend_factory):
        """Even into an empty store, a load inside an open transaction is
        part of that transaction: its commit publishes the triples."""
        store = RdfStore(backend=backend_factory())
        with store.transaction():
            store.load_graph(Graph([Triple(URI("a"), URI("p"), URI("b"))]))
        assert len(store.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")) == 1
        assert store.stats.total_triples == 1

    def test_appended_triple_survives_wal_reopen(
        self, backend_factory, fig1_graph, tmp_path
    ):
        wal = tmp_path / "journal"
        store = RdfStore.from_graph(
            fig1_graph, backend=backend_factory(), wal_path=wal
        )
        store.load_graph(Graph([Triple(URI("IBM"), URI("founded"), URI("1911"))]))
        store.wal.close()
        reopened = RdfStore.from_graph(
            fig1_graph, backend=backend_factory(), wal_path=wal
        )
        result = reopened.query("SELECT ?y WHERE { <IBM> <founded> ?y }")
        assert result.key_rows() == [("1911",)]

    def test_load_into_an_empty_journalled_store_survives_reopen(
        self, backend_factory, fig1_graph, tmp_path
    ):
        wal = tmp_path / "journal"
        store = RdfStore(backend=backend_factory(), wal_path=wal)
        store.load_graph(fig1_graph)
        store.wal.close()
        reopened = RdfStore(backend=backend_factory(), wal_path=wal)
        assert reopened.stats.total_triples == len(fig1_graph)
        assert reopened.query(FIGURE6_QUERY).matches(
            query_graph(fig1_graph, FIGURE6_QUERY)
        )
