"""Every query surface reports an expired timeout the same way.

The paper classifies each query as complete, timeout, error or
unsupported; a timeout is one typed outcome, :class:`QueryTimeoutError`
(a :class:`StoreError`), whichever surface ran the query.
"""

import pytest

from repro import Graph, RdfStore, Triple, URI
from repro.backends import MiniRelBackend, SqliteBackend
from repro.baselines import (
    NativeMemoryStore,
    TripleStore,
    TypeOrientedStore,
    VerticalStore,
)
from repro.core.errors import StoreError
from repro.core.resilience import QueryTimeoutError

#: a three-way cross product (30^3 rows): every engine reaches its first
#: deadline check long before it finishes, so a pre-expired timeout trips
#: deterministically without depending on wall-clock speed
CROSS = "SELECT * WHERE { ?a <p> ?x . ?b <p> ?y . ?c <p> ?z }"
#: ASK compiles to ``LIMIT 1``, which sqlite satisfies from the first
#: row; a cyclic (never true) filter makes it visit the whole product
CROSS_ASK = (
    "ASK { ?a <p> ?x . ?b <p> ?y . ?c <p> ?z . "
    "FILTER(STR(?x) < STR(?y) && STR(?y) < STR(?z) && STR(?z) < STR(?x)) }"
)
EXPIRED = -1.0


def _graph() -> Graph:
    return Graph(
        Triple(URI(f"s{i}"), URI("p"), URI(f"o{i}")) for i in range(30)
    )


def _store_query():
    RdfStore.from_graph(_graph()).query(CROSS, timeout=EXPIRED)


def _store_ask(backend_factory):
    store = RdfStore.from_graph(_graph(), backend=backend_factory())
    return lambda: store.ask(CROSS_ASK, timeout=EXPIRED)


def _snapshot_query():
    store = RdfStore.from_graph(_graph())
    with store.snapshot() as snap:
        snap.query(CROSS, timeout=EXPIRED)


def _baseline_query(store_class):
    store = store_class.from_graph(_graph())
    return lambda: store.query(CROSS, timeout=EXPIRED)


SURFACES = {
    "store-query-minirel": lambda: _store_query,
    "store-ask-minirel": lambda: _store_ask(MiniRelBackend),
    "store-ask-sqlite": lambda: _store_ask(SqliteBackend),
    "snapshot-query": lambda: _snapshot_query,
    "triple-store": lambda: _baseline_query(TripleStore),
    "vertical": lambda: _baseline_query(VerticalStore),
    "type-oriented": lambda: _baseline_query(TypeOrientedStore),
    "native-memory": lambda: _baseline_query(NativeMemoryStore),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_expired_timeout_raises_query_timeout_error(surface):
    run = SURFACES[surface]()
    with pytest.raises(QueryTimeoutError) as excinfo:
        run()
    assert isinstance(excinfo.value, StoreError)
