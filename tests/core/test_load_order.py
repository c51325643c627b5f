"""Load-order independence of the dictionary-encoded store.

Dictionary ids are allocated in first-seen order, so two stores loading
the same graph in different orders assign different ids to the same
terms. Nothing observable may depend on that: every query must return
identical results, because ids are decoded back to terms at the result
boundary and all comparisons happen inside one store's id space.
"""

import json
import os
import pathlib
import subprocess
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import RdfStore
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Triple, URI

BASE = "http://example.org/"

subjects = st.sampled_from([URI(f"{BASE}s{i}") for i in range(8)])
predicates = st.sampled_from([URI(f"{BASE}p{i}") for i in range(5)])
objects = st.one_of(
    st.sampled_from([URI(f"{BASE}o{i}") for i in range(8)]),
    st.builds(Literal, st.sampled_from(["alpha", "beta", "42", "true"])),
)
triples = st.builds(Triple, subjects, predicates, objects)


def store_from_order(ordered_triples) -> RdfStore:
    graph = Graph()
    for triple in ordered_triples:
        graph.add(triple)
    return RdfStore.from_graph(graph)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(triples, min_size=1, max_size=40, unique=True),
    st.randoms(use_true_random=False),
)
def test_query_results_independent_of_load_order(triple_list, rng):
    shuffled = list(triple_list)
    rng.shuffle(shuffled)
    first = store_from_order(triple_list)
    second = store_from_order(shuffled)
    # Different insertion orders may assign different dictionary ids;
    # sanity-check the comparison is not vacuous on multi-term inputs.
    queries = [
        f"SELECT ?s ?o WHERE {{ ?s <{BASE}p0> ?o . }}",
        f"SELECT ?s WHERE {{ ?s <{BASE}p1> <{BASE}o1> . }}",
        f"SELECT ?s ?o WHERE {{ ?s <{BASE}p0> ?o . ?s <{BASE}p1> ?o2 . }}",
    ]
    for sparql in queries:
        a = sorted(first.query(sparql).key_rows())
        b = sorted(second.query(sparql).key_rows())
        assert a == b, sparql


def test_ids_actually_differ_between_orders():
    """The property above is not vacuous: reversed loads really do
    produce different id assignments for the same terms."""
    triple_list = [
        Triple(URI(f"{BASE}s{i}"), URI(f"{BASE}p0"), URI(f"{BASE}o{i}"))
        for i in range(6)
    ]
    first = store_from_order(triple_list)
    second = store_from_order(list(reversed(triple_list)))
    d1 = first.backend.db.dictionary
    d2 = second.backend.db.dictionary
    assert d1 is not None and d2 is not None
    key = f"{BASE}o0"
    assert d1.lookup(key) is not None and d2.lookup(key) is not None
    differing = [
        k
        for k in (f"{BASE}o{i}" for i in range(6))
        if int(d1.lookup(k)) != int(d2.lookup(k))
    ]
    assert differing, "expected at least one term with order-dependent id"
    # And a full scan still agrees, row for row.
    sparql = f"SELECT ?s ?o WHERE {{ ?s <{BASE}p0> ?o . }}"
    assert sorted(first.query(sparql).key_rows()) == sorted(
        second.query(sparql).key_rows()
    )


#: Builds the battery store without coloring in a fresh interpreter and
#: prints its DPH/RPH rows plus each battery query's budget ticks.
_LAYOUT_PROBE = """
import json
from repro import RdfStore
from repro.core.resilience import Budget
from repro.relational import ast
from repro.workloads import planbattery

store = RdfStore.from_graph(planbattery.generate().graph, use_coloring=False)
tables = {}
for table in (store.schema.dph, store.schema.rph):
    query = ast.Select(
        items=(ast.SelectItem.star(),), from_=ast.TableRef(table, "T")
    )
    tables[table] = sorted(map(repr, store.backend.execute(query)[1]))
ticks = {}
for name, sparql in sorted(planbattery.queries().items()):
    budget = Budget(max_intermediate_rows=10**9)
    store.engine.query(sparql, budget=budget)
    ticks[name] = budget.ticks
print(json.dumps({"tables": tables, "ticks": ticks}))
"""


def _layout_under_seed(seed: str) -> dict:
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    path = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", _LAYOUT_PROBE],
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(result.stdout)


def test_layout_independent_of_hash_seed():
    """The graph yields each entity's triples in insertion order, so the
    bulk loader packs predicates, and spills them, the same way under any
    string hash seed: the DPH/RPH rows and the work of every battery plan
    match across processes."""
    first = _layout_under_seed("1")
    second = _layout_under_seed("2")
    assert first["tables"] == second["tables"]
    assert first["ticks"] == second["ticks"]
