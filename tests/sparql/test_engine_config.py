"""EngineConfig knobs: method restrictions, stats toggle, combinations."""

import pytest

from repro import EngineConfig, RdfStore
from repro.sparql import query_graph
from repro.sparql.optimizer.cost import ACO, ACS, SC

from ..conftest import FIGURE6_QUERY


class TestMethodRestriction:
    @pytest.mark.parametrize(
        "methods",
        [(ACS, SC), (ACO, SC), (SC,), (ACS, ACO, SC)],
        ids=["no-aco", "no-acs", "scan-only", "all"],
    )
    def test_restricted_methods_stay_correct(self, fig1_graph, methods):
        store = RdfStore.from_graph(
            fig1_graph, config=EngineConfig(methods=methods)
        )
        expected = query_graph(fig1_graph, FIGURE6_QUERY)
        assert store.query(FIGURE6_QUERY).matches(expected)

    def test_no_aco_never_touches_rph(self, fig1_graph):
        store = RdfStore.from_graph(
            fig1_graph, config=EngineConfig(methods=(ACS, SC))
        )
        sql = store.explain(
            "SELECT ?s WHERE { ?s <industry> <Software> . ?s <HQ> ?hq }"
        )
        assert '"RPH"' not in sql

    def test_scan_only_still_answers(self, fig1_graph):
        store = RdfStore.from_graph(
            fig1_graph, config=EngineConfig(methods=(SC,))
        )
        result = store.query("SELECT ?o WHERE { <IBM> <employees> ?o }")
        assert result.key_rows() == [("433362",)]


class TestStatsToggle:
    def test_no_stats_correct(self, fig1_graph):
        store = RdfStore.from_graph(
            fig1_graph, config=EngineConfig(use_statistics=False)
        )
        expected = query_graph(fig1_graph, FIGURE6_QUERY)
        assert store.query(FIGURE6_QUERY).matches(expected)

    def test_combined_knobs(self, fig1_graph):
        store = RdfStore.from_graph(
            fig1_graph,
            config=EngineConfig(
                optimizer="naive", merge=False, use_statistics=False
            ),
        )
        expected = query_graph(fig1_graph, FIGURE6_QUERY)
        assert store.query(FIGURE6_QUERY).matches(expected)


def test_unknown_optimizer_is_rejected():
    with pytest.raises(ValueError, match="hybrid, cost, naive"):
        EngineConfig(optimizer="costs")
