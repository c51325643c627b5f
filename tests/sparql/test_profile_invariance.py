"""PROFILE mode must observe, never interfere.

The invariant: for any query, on any backend, a profiled run returns
exactly the rows an unprofiled run returns — the tracer adds spans, not
semantics. Also pinned here: the trace actually carries what EXPLAIN/
PROFILE promise (compile stages, cache outcome, per-operator rows on
minirel, EXPLAIN QUERY PLAN on sqlite).

The span trees themselves are pinned as golden files
(``golden/<name>.<backend>.profile``): ``render_profile`` output with the
times stripped and list-valued attributes (sqlite's plan lines, which vary
by sqlite version) dropped. Regenerate after an intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sparql
"""

import pathlib
import re

import pytest

from repro import RdfStore, SqliteBackend
from repro.core import observe
from repro.core.resilience import BudgetExceededError
from repro.sparql.parser import SparqlSyntaxError

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
    "union": (
        "SELECT ?x WHERE "
        "{ { ?x <founder> <IBM> } UNION { ?x <founder> <Google> } }"
    ),
}

BACKENDS = ["minirel", "sqlite"]


def build_store(backend_name):
    backend = SqliteBackend() if backend_name == "sqlite" else None
    return RdfStore.from_graph(figure1_graph(), backend=backend)


@pytest.fixture(scope="module", params=BACKENDS)
def store(request):
    return build_store(request.param)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_profiled_results_identical(store, name):
    plain = store.query(QUERIES[name])
    profiled = store.query(QUERIES[name], profile=True)
    assert profiled.matches(plain)
    assert plain.profile is None
    assert profiled.profile is not None


def test_trace_structure(store):
    root = store.profile(QUERIES["star"])
    assert root.name == "query"
    assert root.find("compile") is not None
    execute = root.find("execute")
    assert execute is not None
    assert execute.attrs["backend"] == store.backend.name
    decode = root.find("decode")
    assert decode.attrs["rows_out"] == len(store.query(QUERIES["star"]))


def test_cache_span_reports_outcome(store):
    sparql = QUERIES["chain"]
    store._plan_cache.clear()
    first = store.profile(sparql)
    second = store.profile(sparql)
    assert first.find("cache").attrs["outcome"] == "miss"
    assert second.find("cache").attrs["outcome"] == "hit"
    # a miss compiles: the full stage chain hangs off the compile span
    for stage in ("parse", "dataflow", "planbuild", "merge", "translate"):
        assert first.find(stage) is not None, stage
    assert second.find("parse") is None  # a hit skips compilation


def test_minirel_reports_operator_rows():
    store = build_store("minirel")
    root = store.profile(QUERIES["star"])
    ops = [span for _, span in root.walk()
           if span.name.split(" ")[0] in
           ("seq-scan", "index-scan", "cte-scan", "index-join", "hash-join",
            "filter", "select")]
    assert ops, "expected minirel operator spans"
    assert any("rows_out" in span.attrs for span in ops)
    scans = [s for s in ops if s.name.startswith(("seq-scan", "index-scan"))]
    assert all(isinstance(s.attrs.get("rows_out"), int) for s in scans)


def test_sqlite_reports_query_plan():
    store = build_store("sqlite")
    root = store.profile(QUERIES["star"])
    eqp = root.find("explain-query-plan")
    assert eqp is not None
    plan = eqp.attrs["plan"]
    assert plan and all(isinstance(line, str) for line in plan)
    execute = root.find("sqlite.execute")
    assert execute.attrs["rows_out"] == 1


def test_profile_sinks_receive_finished_trace(store):
    seen = []
    store.profile_sinks.append(seen.append)
    try:
        result = store.query(QUERIES["union"], profile=True)
    finally:
        store.profile_sinks.clear()
    assert seen and seen[0] is result.profile


def test_explain_plan_never_executes(store):
    """EXPLAIN compiles only — row counters stay absent from its output."""
    text = store.explain(QUERIES["union"], mode="plan")
    assert "-- backend:" in text
    if store.backend.name == "sqlite":
        assert "-- backend plan:" in text
    with pytest.raises(ValueError):
        store.explain(QUERIES["union"], mode="bogus")


def _stripped_profile(root):
    """``render_profile`` without the times and the list-valued sub-lines."""
    lines = []
    for line in observe.render_profile(root).splitlines():
        if line.lstrip().startswith("| "):
            continue
        lines.append(re.sub(r"\s+-?\d+\.\d{3} ms$", "", line))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_profile_matches_golden(name, backend_name):
    """The miss trace then the hit trace of one query on a fresh store."""
    store = build_store(backend_name)
    miss = store.profile(QUERIES[name])
    hit = store.profile(QUERIES[name])
    check_golden(
        GOLDEN_DIR / f"{name}.{backend_name}.profile",
        _stripped_profile(miss) + _stripped_profile(hit),
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_untraced_query_builds_no_span(backend_name, monkeypatch):
    """Tracing off costs no span objects, on a plan-cache miss or hit."""
    store = build_store(backend_name)
    built = []
    original = observe.Span.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(observe.Span, "__init__", counting_init)
    for name in sorted(QUERIES):
        store.query(QUERIES[name])
        store.query(QUERIES[name])
    assert built == []


CROSS_PRODUCT = "SELECT ?a ?d ?g WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }"


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("reader", ["store", "snapshot"])
def test_failed_profiled_query_reaches_sinks(backend_name, reader):
    """A guardrail trip still delivers its trace, and the error still
    propagates."""
    store = build_store(backend_name)
    seen = []
    store.profile_sinks.append(seen.append)
    with store.snapshot() as snapshot:
        target = store if reader == "store" else snapshot
        with pytest.raises(BudgetExceededError):
            target.query(CROSS_PRODUCT, max_intermediate_rows=5, profile=True)
    assert len(seen) == 1
    assert seen[0].name == "query"
    assert seen[0].find("execute").attrs["guardrail"] == "intermediate"


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_failed_profiled_update_reaches_sinks(backend_name):
    store = build_store(backend_name)
    seen = []
    store.profile_sinks.append(seen.append)
    with pytest.raises(SparqlSyntaxError):
        store.update("INSERT DATA { <a> <b> ", profile=True)
    assert len(seen) == 1
    assert seen[0].name == "update"
    assert seen[0].find("parse") is not None
