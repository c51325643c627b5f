"""Shredding: packing, spills, multi-valued lids, incremental inserts."""

import pytest

from repro.backends import MiniRelBackend
from repro.core.errors import LoadError
from repro.core.loader import Loader, SideMetadata, pack_entity
from repro.core.mapping import ExplicitMapper, composed_hashes
from repro.core.schema import DB2RDFSchema
from repro.rdf.graph import Graph
from repro.rdf.terms import Triple, URI


def t(s, p, o):
    return Triple(URI(s), URI(p), URI(o))


class TestPackEntity:
    def test_single_row_no_conflicts(self):
        mapper = ExplicitMapper({"p": 0, "q": 1}, 2)
        rows, spilled = pack_entity("e", {"p": "1", "q": "2"}, mapper, 2)
        assert rows == [["e", 0, "p", "1", "q", "2"]]
        assert spilled == set()

    def test_conflict_forces_spill(self):
        mapper = ExplicitMapper({"p": 0, "q": 0}, 2)
        rows, spilled = pack_entity("e", {"p": "1", "q": "2"}, mapper, 2)
        assert len(rows) == 2
        assert all(row[1] == 1 for row in rows)  # both rows flagged
        assert spilled == {"q"}

    def test_composition_avoids_spill(self):
        first = ExplicitMapper({"p": 0, "q": 0}, 2)
        second = ExplicitMapper({"p": 1, "q": 1}, 2)
        from repro.core.mapping import CompositeMapper

        rows, spilled = pack_entity(
            "e", {"p": "1", "q": "2"}, CompositeMapper([first, second]), 2
        )
        assert len(rows) == 1
        assert spilled == set()

    def test_unmappable_predicate_rejected(self):
        mapper = ExplicitMapper({"p": 9}, 10)
        with pytest.raises(LoadError):
            pack_entity("e", {"p": "1"}, mapper, width=4)


@pytest.fixture
def loaded():
    backend = MiniRelBackend()
    schema = DB2RDFSchema(4, 4)
    schema.create_all(backend)
    loader = Loader(schema, backend, composed_hashes(4), composed_hashes(4))
    graph = Graph(
        [
            t("s1", "p", "a"),
            t("s1", "p", "b"),  # multi-valued direct
            t("s1", "q", "c"),
            t("s2", "q", "c"),  # multi-valued reverse on (q, c)
        ]
    )
    report = loader.bulk_load(graph)
    return backend, schema, loader, report


class TestBulkLoad:
    def test_report_counts(self, loaded):
        _, _, _, report = loaded
        assert report.triples == 4
        assert report.direct.entities == 2
        assert report.reverse.entities == 3

    def test_multivalued_direct_uses_ds(self, loaded):
        backend, schema, _, report = loaded
        assert report.direct.multivalued == {"p"}
        assert backend.row_count(schema.ds) == 2
        _, rows = backend.execute(f"SELECT elm FROM {schema.ds} ORDER BY elm")
        assert rows == [("a",), ("b",)]

    def test_multivalued_reverse_uses_rs(self, loaded):
        backend, schema, _, report = loaded
        assert report.reverse.multivalued == {"q"}
        _, rows = backend.execute(f"SELECT elm FROM {schema.rs} ORDER BY elm")
        assert rows == [("s1",), ("s2",)]

    def test_one_dph_row_per_subject(self, loaded):
        backend, schema, _, _ = loaded
        assert backend.row_count(schema.dph) == 2

    def test_lid_prefix_collision_rejected(self):
        backend = MiniRelBackend()
        schema = DB2RDFSchema(4, 4, prefix="X")
        schema.create_all(backend)
        loader = Loader(schema, backend, composed_hashes(4), composed_hashes(4))
        bad = Graph([t("s", "p", "@lid:d:5")])
        with pytest.raises(LoadError):
            loader.bulk_load(bad)


class TestIncrementalInsert:
    def make(self):
        backend = MiniRelBackend()
        schema = DB2RDFSchema(4, 4)
        schema.create_all(backend)
        loader = Loader(schema, backend, composed_hashes(4), composed_hashes(4))
        return backend, schema, loader

    def test_fresh_entity(self):
        backend, schema, loader = self.make()
        loader.insert_triple(t("s", "p", "o"))
        assert backend.row_count(schema.dph) == 1
        assert backend.row_count(schema.rph) == 1

    def test_duplicate_triple_is_noop(self):
        backend, schema, loader = self.make()
        inserted, _, _ = loader.insert_triple(t("s", "p", "o"))
        assert inserted
        inserted, direct_delta, reverse_delta = loader.insert_triple(t("s", "p", "o"))
        assert not inserted
        assert direct_delta == reverse_delta == SideMetadata()
        assert backend.row_count(schema.dph) == 1
        assert backend.row_count(schema.ds) == 0

    def test_second_object_upgrades_to_lid(self):
        backend, schema, loader = self.make()
        loader.insert_triple(t("s", "p", "o1"))
        inserted, delta, reverse_delta = loader.insert_triple(t("s", "p", "o2"))
        assert inserted
        assert delta.multivalued == {"p"}
        assert reverse_delta.entities == 1  # o2 is a new reverse entity
        assert backend.row_count(schema.ds) == 2
        _, rows = backend.execute(
            f"SELECT elm FROM {schema.ds} ORDER BY elm"
        )
        assert rows == [("o1",), ("o2",)]
        # the DPH cell now holds a lid
        _, rows = backend.execute(f"SELECT * FROM {schema.dph}")
        assert any(
            isinstance(value, str) and value.startswith("@lid:d:")
            for value in rows[0]
        )

    def test_third_object_extends_lid(self):
        backend, schema, loader = self.make()
        for obj in ("o1", "o2", "o3"):
            loader.insert_triple(t("s", "p", obj))
        assert backend.row_count(schema.ds) == 3
        assert backend.row_count(schema.dph) == 1

    def test_duplicate_into_lid_is_noop(self):
        backend, schema, loader = self.make()
        for obj in ("o1", "o2", "o2"):
            loader.insert_triple(t("s", "p", obj))
        assert backend.row_count(schema.ds) == 2

    def test_conflict_spills_to_new_row(self):
        backend, schema, loader = self.make()
        # Single-column mapper: every predicate collides on column 0.
        loader.direct_mapper = ExplicitMapper({"p": 0, "q": 0}, 1)
        loader.insert_triple(t("s", "p", "o1"))
        _, delta, _ = loader.insert_triple(t("s", "q", "o2"))
        assert backend.row_count(schema.dph) >= 2
        _, rows = backend.execute(
            f"SELECT spill FROM {schema.dph} WHERE entry = 's'"
        )
        assert all(row[0] == 1 for row in rows)
        assert "q" in delta.spill_predicates

    def test_incremental_matches_bulk(self):
        """Loading triple-by-triple must answer queries identically to a
        bulk load of the same graph."""
        from repro.core.store import RdfStore

        triples = [
            t("s1", "p", "a"), t("s1", "p", "b"), t("s1", "q", "c"),
            t("s2", "q", "c"), t("s2", "r", "a"),
        ]
        graph = Graph(triples)
        bulk = RdfStore.from_graph(graph, use_coloring=False)
        incremental = RdfStore()
        for triple in triples:
            incremental.add(triple)
        for query in (
            "SELECT ?o WHERE { <s1> <p> ?o }",
            "SELECT ?s WHERE { ?s <q> <c> }",
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
        ):
            assert sorted(incremental.query(query).key_rows()) == sorted(
                bulk.query(query).key_rows()
            )
