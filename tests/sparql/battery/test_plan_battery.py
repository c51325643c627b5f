"""The plan-quality battery (the opteryx ``sql_battery`` idiom).

For every battery query the engine's chosen plan is *executed* against
every enumerated alternative join order, under a deterministic work meter
(``Budget.ticks`` counts logical intermediate rows on the minirel
backend). The regret ratio — chosen work over best-alternative work — is
asserted per query (bounded blow-up) and as a geomean across the battery.

Executing every alternative also proves a correctness property the
differential harness alone cannot: *all* enumerated orders produce the
same result multiset, so join-order choice can never change answers.
"""

import math

import pytest

from repro.core.resilience import Budget
from repro.workloads import planbattery

#: geomean regret gate, mirrored by the CI benchmark gate
GEOMEAN_REGRET_LIMIT = 1.3
#: no single query may blow up by more than this factor
SINGLE_QUERY_REGRET_LIMIT = 20.0

_QUERIES = sorted(planbattery.queries())


def _ticks(backend, compiled) -> int:
    budget = Budget(max_intermediate_rows=10**9)
    backend.execute(compiled, budget=budget)
    return max(1, budget.ticks)


def _rows(backend, compiled):
    return sorted(backend.execute(compiled)[1])


def test_battery_covers_required_shapes():
    """≥ 20 shapes; every required family is represented."""
    queries = planbattery.queries()
    assert len(queries) >= 20
    for family in ("chain", "star", "sel", "opt", "mix"):
        assert any(name.startswith(family) for name in queries), family
    # chains really are length >= 5
    chains = [q for name, q in queries.items() if name.startswith("chain")]
    assert chains and all(q.count(" . ") >= 4 for q in chains)


@pytest.mark.parametrize("name", _QUERIES)
def test_alternative_orders_agree_and_regret_is_bounded(
    name, cost_store, battery_queries, record_property
):
    """Each enumerated order returns identical results; the chosen plan's
    measured work is within the single-query regret bound."""
    sparql = battery_queries[name]
    engine = cost_store.engine
    backend = cost_store.backend

    select, plans = engine.plan_alternatives(sparql)
    assert plans, f"{name}: enumerator produced no complete order"

    chosen_sql = engine.compile(sparql)[0]
    chosen_ticks = _ticks(backend, chosen_sql)
    chosen_rows = _rows(backend, chosen_sql)

    best_ticks = chosen_ticks
    for plan in plans:
        compiled = engine.compile_with_order(select, plan)
        assert _rows(backend, compiled) == chosen_rows, (
            f"{name}: order {plan.describe()} changed results"
        )
        best_ticks = min(best_ticks, _ticks(backend, compiled))

    regret = chosen_ticks / best_ticks
    record_property("plan_regret", round(regret, 3))
    assert regret <= SINGLE_QUERY_REGRET_LIMIT, (
        f"{name}: chosen plan does {regret:.1f}x the work of the best "
        f"enumerated alternative"
    )


def test_geomean_regret_gate(cost_store, battery_queries):
    """The battery-wide geomean regret stays under the CI gate."""
    engine = cost_store.engine
    backend = cost_store.backend
    log_sum = 0.0
    measured = 0
    for name in _QUERIES:
        select, plans = engine.plan_alternatives(battery_queries[name])
        chosen_ticks = _ticks(backend, engine.compile(battery_queries[name])[0])
        best = chosen_ticks
        for plan in plans:
            best = min(best, _ticks(backend, engine.compile_with_order(select, plan)))
        log_sum += math.log(chosen_ticks / best)
        measured += 1
    geomean = math.exp(log_sum / measured)
    assert measured >= 20
    assert geomean <= GEOMEAN_REGRET_LIMIT, (
        f"geomean plan regret {geomean:.3f} exceeds {GEOMEAN_REGRET_LIMIT}"
    )
