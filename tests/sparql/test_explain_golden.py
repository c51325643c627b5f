"""Golden-file EXPLAIN tests: the compiled SQL for three canonical query
shapes is pinned verbatim.

The translation is deterministic (predicate hashing uses blake2b, coloring
is order-stable), so any drift in the generated SQL — a different method
choice, a lost merge, a changed column assignment — shows up as a readable
diff against the golden file rather than as a silent plan regression.

Regenerate after an *intentional* plan change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sparql
"""

import pathlib

import pytest

from repro import RdfStore

from ..conftest import check_golden, figure1_graph

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

QUERIES = {
    "star": (
        "SELECT ?p ?b ?d WHERE "
        "{ ?p <founder> <IBM> . ?p <born> ?b . ?p <died> ?d }"
    ),
    "chain": (
        "SELECT ?person ?ind WHERE "
        "{ ?person <founder> ?c . ?c <industry> ?ind }"
    ),
    "optional": (
        "SELECT ?c ?hq WHERE "
        "{ ?c <industry> <Software> OPTIONAL { ?c <HQ> ?hq } }"
    ),
}


@pytest.fixture(scope="module")
def store():
    return RdfStore.from_graph(figure1_graph())


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_explain_matches_golden(store, name):
    check_golden(GOLDEN_DIR / f"{name}.sql", store.explain(QUERIES[name]) + "\n")


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_golden_queries_return_rows(store, name):
    """The pinned queries are live: each returns a non-empty answer."""
    assert len(store.query(QUERIES[name])) > 0


def test_explain_plan_mode_adds_headers(store):
    text = store.explain(QUERIES["star"], mode="plan")
    assert text.startswith("-- backend: minirel")
    assert "-- optimizer: hybrid (merge=on, statistics=on)" in text
    assert "-- projection: p, b, d" in text
