"""Dataset statistics for the optimizer (§3.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import MiniRelBackend, RdfStore, SqliteBackend
from repro.core.stats import DatasetStatistics
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Triple, URI
from repro.workloads import planbattery


class TestFromGraph:
    def test_figure6_style_counts(self, fig1_graph):
        stats = DatasetStatistics.from_graph(fig1_graph)
        assert stats.total_triples == 21
        assert stats.distinct_subjects == 5
        # IBM appears as subject 5 times and object twice (founder, DBpedia
        # sample has one founder edge + no others) -> top maps carry both.
        assert stats.top_subjects["IBM"] == 5
        assert stats.top_objects["Google"] == 3

    def test_averages(self, fig1_graph):
        stats = DatasetStatistics.from_graph(fig1_graph)
        assert stats.avg_triples_per_subject == 21 / 5
        assert stats.avg_triples_per_object == 21 / stats.distinct_objects

    def test_top_k_truncation(self, fig1_graph):
        stats = DatasetStatistics.from_graph(fig1_graph, top_k=2)
        assert len(stats.top_subjects) == 2


class TestCardinalities:
    def test_known_constant_exact(self, fig1_graph):
        stats = DatasetStatistics.from_graph(fig1_graph)
        assert stats.subject_cardinality(URI("IBM")) == 5.0
        assert stats.object_cardinality(URI("Software")) == 2.0

    def test_unknown_constant_falls_back_to_average(self, fig1_graph):
        stats = DatasetStatistics.from_graph(fig1_graph, top_k=1)
        fallback = stats.subject_cardinality(URI("never-seen"))
        assert fallback == stats.avg_triples_per_subject

    def test_variable_uses_average(self, fig1_graph):
        stats = DatasetStatistics.from_graph(fig1_graph)
        assert stats.subject_cardinality(None) == stats.avg_triples_per_subject

    def test_unknown_constant_capped_by_predicate_total(self, fig1_graph):
        """Outside the top-k the fallback is min(average, exact predicate
        total): an unseen subject cannot contribute more ``died`` triples
        than the single ``died`` triple the dataset holds."""
        stats = DatasetStatistics.from_graph(fig1_graph, top_k=1)
        assert stats.avg_triples_per_subject == 4.2
        assert stats.subject_cardinality(URI("never-seen"), "died") == 1.0
        assert stats.object_cardinality(URI("never-seen"), "died") == 1.0
        # A huge predicate doesn't inflate the estimate: the average wins.
        assert stats.subject_cardinality(URI("never-seen"), "industry") == 4.2
        # An unknown predicate leaves the plain average untouched.
        assert (
            stats.subject_cardinality(URI("never-seen"), "no-such-pred")
            == stats.avg_triples_per_subject
        )

    def test_scan_is_total(self, fig1_graph):
        stats = DatasetStatistics.from_graph(fig1_graph)
        assert stats.scan_cardinality() == 21.0

    def test_empty_statistics_safe(self):
        stats = DatasetStatistics()
        assert stats.avg_triples_per_subject == 1.0
        assert stats.subject_cardinality(URI("x")) == 1.0


class TestIncrementalMaintenance:
    def test_record_triple(self, fig1_graph):
        stats = DatasetStatistics.from_graph(fig1_graph)
        stats.record_triple("IBM", "industry", "Software")
        assert stats.total_triples == 22
        assert stats.top_subjects["IBM"] == 6
        assert stats.predicate_counts["industry"] == 6

    def test_full_top_k_admits_no_new_key(self, fig1_graph):
        stats = DatasetStatistics.from_graph(fig1_graph, top_k=2)
        stats.record_triple("Newcomer", "industry", "Elsewhere")
        assert "Newcomer" not in stats.top_subjects
        assert "Elsewhere" not in stats.top_objects
        assert len(stats.top_subjects) == 2

    def test_copy_keeps_the_capacity(self, fig1_graph):
        stats = DatasetStatistics.from_graph(fig1_graph, top_k=7)
        assert stats.top_k == 7
        assert stats.copy().top_k == 7

    def test_a_subject_grown_after_the_load_is_priced_exactly(self):
        """The battery store fills 673 of its 1,000 top-k slots, so a
        subject that first appears after the load is admitted and counted:
        its estimate is its count, not the per-subject average."""
        data = planbattery.generate()
        store = RdfStore.from_graph(data.graph)
        assert len(store.stats.top_subjects) < store.stats.top_k == 1000
        hub = URI(f"{planbattery.PB.base}hub")
        with store.transaction() as txn:
            for i in range(100):
                txn.add(Triple(hub, URI(f"{planbattery.PB.base}knows"),
                               URI(f"{planbattery.PB.base}person{i}")))
        assert store.stats.subject_cardinality(hub) == 100.0


class TestExactMaintenance:
    @pytest.mark.parametrize("backend_factory", [MiniRelBackend, SqliteBackend])
    def test_counts_match_a_fresh_collection(self, backend_factory):
        """Adds, deletes and an overlapping appending load keep the triple,
        distinct-entity and predicate counts equal to statistics collected
        afresh from the graph the store now holds."""
        data = planbattery.generate()
        b = planbattery.PB.base
        truth = Graph(data.graph)
        store = RdfStore.from_graph(data.graph, backend=backend_factory())

        def add(triple):
            assert store.add(triple) == truth.add(triple)

        def remove(triple):
            assert store.remove(triple) == truth.discard(triple)

        knows, nick = URI(f"{b}knows"), URI(f"{b}nick")
        for i in range(300):  # new subjects, stored objects
            add(Triple(URI(f"{b}new{i}"), knows, URI(f"{b}person{i}")))
        add(Triple(URI(f"{b}person0"), nick, Literal("zero")))  # new object
        add(next(iter(data.graph)))  # duplicate
        for triple in list(truth.triples_for_subject(URI(f"{b}person5"))):
            remove(triple)  # drops the subject, and its unique literals
        remove(Triple(URI(f"{b}new7"), knows, URI(f"{b}person7")))
        remove(Triple(URI(f"{b}nobody"), knows, URI(f"{b}person1")))  # absent
        appended = Graph(list(data.graph)[:50])  # overlaps stored triples
        for i in range(40):
            appended.add(Triple(URI(f"{b}late{i % 10}"), nick, Literal(f"n{i}")))
        store.load_graph(appended)
        for triple in appended:
            truth.add(triple)

        fresh = DatasetStatistics.from_graph(truth)
        stats = store.stats
        assert (
            stats.total_triples, stats.distinct_subjects, stats.distinct_objects
        ) == (fresh.total_triples, fresh.distinct_subjects, fresh.distinct_objects)
        live = {p: n for p, n in stats.predicate_counts.items() if n}
        assert live == fresh.predicate_counts
        report = store.report()
        assert report.direct.entities == fresh.distinct_subjects
        assert report.reverse.entities == fresh.distinct_objects


BASE = "http://example.org/est/"
PREDICATES = [f"{BASE}p{i}" for i in range(3)]

# Small random edge lists: (subject index, predicate index, object index).
edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=40,
)


def make_graph(edge_list) -> Graph:
    return Graph(
        Triple(URI(f"{BASE}s{s}"), URI(PREDICATES[p]), URI(f"{BASE}o{o}"))
        for s, p, o in edge_list
    )


def probes(edge_list):
    """Every subject and object constant of the edge list, with and
    without a constant predicate, plus the variable position."""
    for s, p, o in edge_list:
        for predicate in (None, PREDICATES[p]):
            yield "subject", URI(f"{BASE}s{s}"), predicate
            yield "object", URI(f"{BASE}o{o}"), predicate
    yield "subject", None, None
    yield "object", None, None


def cardinality(stats, position, term, predicate) -> float:
    if position == "subject":
        return stats.subject_cardinality(term, predicate)
    return stats.object_cardinality(term, predicate)


class TestEstimateProperties:
    @given(edges)
    @settings(max_examples=80, deadline=None)
    def test_top_k_constants_are_exact(self, edge_list):
        """Figure 6b: a constant inside the retained top-k is priced at its
        true triple count."""
        graph = make_graph(edge_list)
        stats = DatasetStatistics.from_graph(graph)
        for s, _, o in edge_list:
            subject, obj = URI(f"{BASE}s{s}"), URI(f"{BASE}o{o}")
            assert stats.subject_cardinality(subject) == len(
                graph.triples_for_subject(subject)
            )
            assert stats.object_cardinality(obj) == len(
                graph.triples_for_object(obj)
            )

    @given(edges)
    @settings(max_examples=60, deadline=None)
    def test_estimates_independent_of_insertion_order(self, edge_list):
        """Same data, independent builds, reversed insertion order: every
        cardinality is identical, so plans are reproducible."""
        first = DatasetStatistics.from_graph(make_graph(edge_list))
        second = DatasetStatistics.from_graph(make_graph(reversed(edge_list)))
        for probe in probes(edge_list):
            assert cardinality(first, *probe) == cardinality(second, *probe)
