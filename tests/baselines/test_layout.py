"""What the three §2 relational layouts share (``RelationalLayout``)."""

import pytest

from repro import Graph, Triple, URI
from repro.baselines import TripleStore, TypeOrientedStore, VerticalStore
from repro.rdf.terms import RDF_TYPE


@pytest.mark.parametrize("layout", [TripleStore, VerticalStore, TypeOrientedStore])
def test_second_load_folds_into_the_statistics(layout):
    """A later load adds to the statistics of the first instead of
    replacing them, and still starts a new plan epoch. (The two subjects
    fall in different type partitions: the type-oriented layout cannot
    reload a partition.)"""
    store = layout()
    store.load_graph(Graph([Triple(URI("a"), URI("p"), URI("o"))]))
    epoch = store.stats.epoch
    store.load_graph(Graph([Triple(URI("b"), URI(RDF_TYPE), URI("T"))]))
    assert store.stats.epoch > epoch
    assert store.stats.total_triples == 2
    assert set(store.stats.predicate_counts) == {"p", RDF_TYPE}
    assert len(store.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")) == 2
