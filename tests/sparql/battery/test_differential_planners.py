"""Differential proof that the backend never changes answers.

For every battery query, the hybrid optimizer's plan must return identical
canonical results on the minirel backend and on sqlite (PR 1's
cross-engine idiom). Warm (plan-cache hit) runs must match cold runs, and
the cache books must balance afterwards. That every join order returns
the same rows is the plan battery's check (``test_plan_battery.py``).
"""

import pytest

from repro import RdfStore
from repro.workloads import planbattery

_QUERIES = sorted(planbattery.queries())


@pytest.mark.parametrize("name", _QUERIES)
def test_planners_and_backends_agree(
    name, battery_queries, hybrid_store, sqlite_store
):
    sparql = battery_queries[name]
    stores = {
        "minirel-hybrid": hybrid_store,
        "sqlite-hybrid": sqlite_store,
    }
    results = {label: s.query(sparql).canonical() for label, s in stores.items()}
    reference = results["minirel-hybrid"]
    for label, rows in results.items():
        assert rows == reference, f"{name}: {label} diverged"
    # Warm runs (served from the plan cache) must be byte-identical.
    for label, store in stores.items():
        assert store.query(sparql).canonical() == reference, (
            f"{name}: warm {label} diverged"
        )


def test_cache_books_balance(battery_data, battery_queries):
    """Fresh store: cold pass is all misses, warm pass all hits, and
    hits + misses + invalidations == lookups exactly."""
    store = RdfStore.from_graph(battery_data.graph, use_coloring=False)
    for sparql in battery_queries.values():
        store.query(sparql)
    cold = store.cache_info()
    assert cold.misses == len(battery_queries)
    assert cold.hits == 0
    for sparql in battery_queries.values():
        store.query(sparql)
    warm = store.cache_info()
    assert warm.hits == len(battery_queries)
    assert warm.misses == cold.misses
    assert warm.lookups == warm.hits + warm.misses + warm.invalidations
