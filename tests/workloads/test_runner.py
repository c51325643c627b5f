"""The Figure-15 harness: classification and reporting."""

import pytest

from repro import Graph, RdfStore, Triple, URI
from repro.baselines import NativeMemoryStore
from repro.core.errors import UnsupportedQueryError
from repro.core.resilience import QueryTimeoutError
from repro.sparql.results import SelectResult
from repro.workloads import runner


def t(s, p, o):
    return Triple(URI(s), URI(p), URI(o))


@pytest.fixture
def small():
    graph = Graph([t("a", "p", "b"), t("b", "p", "c"), t("a", "q", "c")])
    return graph


class _FlakyStore:
    """A stand-in store with controllable failure modes."""

    def __init__(self, mode):
        self.mode = mode

    def query(self, sparql, timeout=None):
        if self.mode == "timeout":
            raise QueryTimeoutError("too slow")
        if self.mode == "unsupported":
            raise UnsupportedQueryError("no can do")
        if self.mode == "crash":
            raise RuntimeError("boom")
        if self.mode == "wrong":
            return SelectResult(["x"], [])
        return SelectResult(["x"], [(URI("a"),)])


class TestClassification:
    QUERIES = {"q1": "SELECT ?x WHERE { ?x <p> <b> }"}

    def run(self, store):
        expected = {"q1": 1}
        return runner.run_system("sys", store, self.QUERIES, expected, runs=1)

    def test_complete(self):
        summary = self.run(_FlakyStore("ok"))
        assert summary.complete == 1 and summary.error == 0

    def test_timeout(self):
        summary = self.run(_FlakyStore("timeout"))
        assert summary.timeout == 1

    def test_unsupported(self):
        summary = self.run(_FlakyStore("unsupported"))
        assert summary.unsupported == 1

    def test_crash_is_error(self):
        summary = self.run(_FlakyStore("crash"))
        assert summary.error == 1
        assert "boom" in summary.outcomes["q1"].detail

    def test_wrong_count_is_error(self):
        summary = self.run(_FlakyStore("wrong"))
        assert summary.error == 1
        assert summary.outcomes["q1"].detail == "wrong result count"


class TestEndToEnd:
    def test_real_stores(self, small):
        queries = {
            "lookup": "SELECT ?x WHERE { ?x <p> <b> }",
            "join": "SELECT ?x ?z WHERE { ?x <p> ?y . ?y <p> ?z }",
            "all": "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
        }
        oracle = NativeMemoryStore.from_graph(small)
        stores = {
            "db2rdf": RdfStore.from_graph(small),
            "native": oracle,
        }
        summaries = runner.run_benchmark(stores, queries, oracle, runs=2)
        for summary in summaries.values():
            assert summary.complete == 3
            assert summary.mean_seconds >= 0

    def test_expected_counts(self, small):
        oracle = NativeMemoryStore.from_graph(small)
        counts = runner.expected_counts(
            oracle, {"q": "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"}
        )
        assert counts == {"q": 3}

    def test_format_summary_table(self, small):
        oracle = NativeMemoryStore.from_graph(small)
        summaries = runner.run_benchmark(
            {"native": oracle},
            {"q": "SELECT ?x WHERE { ?x <p> <b> }"},
            oracle,
            runs=1,
        )
        text = runner.format_summary_table("tiny", summaries)
        assert "tiny" in text and "native" in text and "Complete" in text

    def test_format_per_query_table(self, small):
        oracle = NativeMemoryStore.from_graph(small)
        summaries = runner.run_benchmark(
            {"native": oracle},
            {"q": "SELECT ?x WHERE { ?x <p> <b> }"},
            oracle,
            runs=1,
        )
        text = runner.format_per_query_table(summaries, ["q"])
        assert "q" in text and ("ms" in text)

