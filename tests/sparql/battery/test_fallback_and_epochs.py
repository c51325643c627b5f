"""Low-confidence fallback and stats-epoch plan invalidation.

Two safety valves around the cost-based planner:

* when the statistics carry too little evidence (empty store, variable
  predicates), the planner must *explicitly* fall back to the heuristic
  plan — and the decision must be visible in the cached plan's ``planner``
  tag and in ``explain``;
* a commit that shifts per-predicate counts bumps the stats epoch, and
  plans compiled under the old epoch must be invalidated — with the cache
  books still balancing exactly.
"""

from repro import EngineConfig, RdfStore
from repro.rdf.graph import Graph
from repro.rdf.terms import Triple, URI
from repro.sparql.optimizer import cost as cost_model
from repro.workloads import planbattery

B = planbattery.PB.base
CHAIN = (
    f"SELECT ?a ?c WHERE {{ ?a <{B}knows> ?b . ?b <{B}knows> ?c . "
    f"?c <{B}livesIn> <{B}city0> }}"
)


def cost_config(**overrides) -> EngineConfig:
    return EngineConfig(optimizer="cost", **overrides)


class TestLowConfidenceFallback:
    def test_empty_store_falls_back(self):
        """No data → no statistics → zero confidence → heuristic plan."""
        store = RdfStore.from_graph(Graph(), config=cost_config())
        plan = store.engine.compile_cached(CHAIN)
        assert plan.planner == "cost-fallback"
        assert "heuristic fallback" in store.explain(CHAIN, mode="plan")

    def test_variable_predicate_falls_back(self, battery_data):
        """Variable predicates leave the estimator nearly blind; their
        confidence sits below the default threshold."""
        store = RdfStore.from_graph(
            battery_data.graph, use_coloring=False, config=cost_config()
        )
        query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?o ?q ?x }"
        assert store.engine.compile_cached(query).planner == "cost-fallback"

    def test_threshold_zero_never_falls_back(self, battery_data, monkeypatch):
        """The threshold decides: at 0.0 the enumerator's plan is always
        taken, even from weak evidence."""
        monkeypatch.setattr(cost_model, "MIN_PLAN_CONFIDENCE", 0.0)
        store = RdfStore.from_graph(
            battery_data.graph, use_coloring=False, config=cost_config()
        )
        query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?o ?q ?x }"
        assert store.engine.compile_cached(query).planner == "cost"

    def test_confident_battery_plan_is_cost_based(self, battery_data):
        store = RdfStore.from_graph(
            battery_data.graph, use_coloring=False, config=cost_config()
        )
        plan = store.engine.compile_cached(CHAIN)
        assert plan.planner == "cost"
        assert "cost-based" in store.explain(CHAIN, mode="plan")

    def test_fallback_matches_heuristic_results(self, battery_data):
        """A fallback plan is the heuristic plan — same answers as the
        hybrid store, not a degraded variant."""
        cost = RdfStore.from_graph(
            battery_data.graph, use_coloring=False, config=cost_config()
        )
        hybrid = RdfStore.from_graph(battery_data.graph, use_coloring=False)
        query = f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o . ?s <{B}leads> ?co }}"
        assert cost.engine.compile_cached(query).planner == "cost-fallback"
        assert cost.query(query).canonical() == hybrid.query(query).canonical()


class TestEpochInvalidation:
    def test_commit_invalidates_cached_cost_plans(self, battery_data):
        """Commit → new epoch → the old plan is dropped on next lookup and
        recompiled against the shifted per-predicate counts."""
        store = RdfStore.from_graph(
            battery_data.graph, use_coloring=False, config=cost_config()
        )
        before_epoch = store.stats.epoch
        knows_before = store.stats.predicate_counts[f"{B}knows"]

        store.query(CHAIN)  # miss: compile + cache
        store.query(CHAIN)  # hit
        info = store.cache_info()
        assert (info.hits, info.invalidations) == (1, 0)

        with store.transaction() as txn:
            for i in range(40):
                txn.add(
                    Triple(
                        URI(f"{B}npc{i}"),
                        URI(f"{B}knows"),
                        URI(f"{B}person{i % battery_data.persons}"),
                    )
                )
        assert store.stats.epoch == before_epoch + 1
        assert store.stats.predicate_counts[f"{B}knows"] == knows_before + 40

        store.query(CHAIN)  # stale entry → invalidation + recompile
        info = store.cache_info()
        assert info.invalidations == 1
        assert info.lookups == info.hits + info.misses + info.invalidations

        store.query(CHAIN)  # the recompiled plan is cached again
        assert store.cache_info().hits == 2

    def test_recompiled_plan_sees_new_statistics(self, battery_data):
        """After the commit the plan is re-chosen from the *new* counts —
        the cached entry's epoch matches the post-commit epoch."""
        store = RdfStore.from_graph(
            battery_data.graph, use_coloring=False, config=cost_config()
        )
        store.query(CHAIN)
        with store.transaction() as txn:
            txn.add(Triple(URI(f"{B}x"), URI(f"{B}knows"), URI(f"{B}person0")))
        plan = store.engine.compile_cached(CHAIN)
        assert plan.epoch == store.stats.epoch
        assert plan.planner in ("cost", "cost-fallback")
