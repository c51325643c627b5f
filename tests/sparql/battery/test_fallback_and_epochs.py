"""Stats-epoch plan invalidation on the hybrid optimizer's store.

A commit that shifts per-predicate counts bumps the stats epoch, and plans
compiled under the old epoch must be invalidated — with the cache books
still balancing exactly.
"""

from repro import RdfStore
from repro.rdf.terms import Triple, URI
from repro.workloads import planbattery

B = planbattery.PB.base
CHAIN = (
    f"SELECT ?a ?c WHERE {{ ?a <{B}knows> ?b . ?b <{B}knows> ?c . "
    f"?c <{B}livesIn> <{B}city0> }}"
)


class TestEpochInvalidation:
    def test_commit_invalidates_cached_cost_plans(self, battery_data):
        """Commit → new epoch → the old plan is dropped on next lookup and
        recompiled against the shifted per-predicate counts."""
        store = RdfStore.from_graph(battery_data.graph, use_coloring=False)
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
        store = RdfStore.from_graph(battery_data.graph, use_coloring=False)
        store.query(CHAIN)
        with store.transaction() as txn:
            txn.add(Triple(URI(f"{B}x"), URI(f"{B}knows"), URI(f"{B}person0")))
        plan = store.engine.compile_cached(CHAIN)
        assert plan.epoch == store.stats.epoch
