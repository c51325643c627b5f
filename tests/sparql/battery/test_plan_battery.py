"""The plan-quality battery (the opteryx ``sql_battery`` idiom).

For every battery query the hybrid optimizer's plan is *executed* against
every connected join order of the query's triples, enumerated here by
brute force, under a deterministic work meter (``Budget.ticks`` counts
logical intermediate rows on the minirel backend). Each order takes its
access methods by the textual planner's local rule (constants first, then
a bound position, else a scan) and compiles through the production plan
builder, merge and translator. The regret ratio — hybrid work over the
best order's work — is asserted per query (bounded blow-up) and as a
geomean across the battery.

An order runs under a budget of the hybrid's own ticks: one that trips it
cannot beat the hybrid and is dropped. Every order that completes must
return the hybrid's rows, so join-order choice can never change answers.
"""

import itertools
import math
from collections import Counter

import pytest

from repro.core.resilience import Budget, BudgetExceededError
from repro.sparql.algebra import PatternTree
from repro.sparql.ast import Var
from repro.sparql.optimizer.cost import ACO, ACS, SC
from repro.sparql.optimizer.dataflow import FlowNode, FlowTree
from repro.sparql.optimizer.merge import MergeContext, merge_execution_tree
from repro.sparql.optimizer.planbuilder import build_execution_tree
from repro.sparql.translator.pipeline import PipelineTranslator
from repro.workloads import planbattery

#: geomean regret gate over the battery
GEOMEAN_REGRET_LIMIT = 1.3
#: no single query may blow up by more than this factor
SINGLE_QUERY_REGRET_LIMIT = 20.0

_QUERIES = sorted(planbattery.queries())


def _method(triple, bound: set[str]) -> str:
    """The textual planner's local choice: constants first, then any bound
    position, then scan."""
    if not isinstance(triple.subject, Var):
        return ACS
    if not isinstance(triple.object, Var):
        return ACO
    if triple.subject.name in bound:
        return ACS
    if triple.object.name in bound:
        return ACO
    return SC


def _joined_terms(triple) -> set:
    """What a triple can join on: its subject and object, variable or not
    (a shared constant entity is a star), and a variable predicate."""
    terms = {triple.subject, triple.object}
    if isinstance(triple.predicate, Var):
        terms.add(triple.predicate)
    return terms


def connected_orders(select):
    """Every permutation of the query's triples in which each triple shares
    a subject, object or variable with an earlier one, as (triple, method)
    chains. A lookup may consume only variables of earlier triples that
    feed it: not in another UNION branch, and not optional with respect to
    it."""
    tree = PatternTree.build(select.where)
    triples = select.triples()
    for perm in itertools.permutations(triples):
        seen: set = set()
        chain = []
        for index, triple in enumerate(perm):
            terms = _joined_terms(triple)
            if index and not terms & seen:
                break
            bound: set[str] = set()
            for earlier in perm[:index]:
                if not tree.or_connected(earlier, triple) and not (
                    tree.optional_connected(triple, earlier)
                ):
                    bound.update(earlier.variables())
            chain.append(FlowNode(triple, _method(triple, bound)))
            seen |= terms
        else:
            yield chain


def compile_order(engine, select, chain):
    """The production pipeline from a flow tree on: plan build, merge,
    translation."""
    flow = FlowTree()
    previous = None
    for node in chain:
        flow.add(node, previous)
        previous = node
    plan = build_execution_tree(select.where, flow)
    ctx = MergeContext.build(
        PatternTree.build(select.where),
        select.triples(),
        engine.spill_direct,
        engine.spill_reverse,
    )
    plan = merge_execution_tree(plan, ctx)
    return PipelineTranslator(engine.emitter).translate(plan, select)


def _run(backend, compiled, limit: int) -> tuple[int, Counter]:
    budget = Budget(max_intermediate_rows=limit)
    _, rows = backend.execute(compiled, budget=budget)
    return max(1, budget.ticks), Counter(rows)


@pytest.fixture(scope="session")
def battery_regrets(hybrid_store, battery_queries):
    """Per query: (regret, orders run to completion, orders whose rows
    differ from the hybrid's)."""
    engine = hybrid_store.engine
    backend = hybrid_store.backend
    outcome = {}
    for name in _QUERIES:
        chosen, select = engine.compile(battery_queries[name])
        chosen_ticks, chosen_rows = _run(backend, chosen, 10**9)
        best, completed, mismatched = chosen_ticks, 0, []
        compiled_texts = set()
        for chain in connected_orders(select):
            compiled = compile_order(engine, select, chain)
            text = backend.sql_text(compiled)
            if text in compiled_texts:
                continue
            compiled_texts.add(text)
            try:
                ticks, rows = _run(backend, compiled, chosen_ticks)
            except BudgetExceededError:
                continue  # more work than the hybrid: cannot beat it
            completed += 1
            if rows != chosen_rows:
                mismatched.append(chain)
            best = min(best, ticks)
        outcome[name] = (chosen_ticks / best, completed, mismatched)
    return outcome


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
    name, battery_regrets, record_property
):
    """Every order that completes returns the hybrid's rows; the hybrid's
    measured work is within the single-query regret bound."""
    regret, _, mismatched = battery_regrets[name]
    assert not mismatched, f"{name}: orders {mismatched} changed results"
    record_property("plan_regret", round(regret, 3))
    assert regret <= SINGLE_QUERY_REGRET_LIMIT, (
        f"{name}: the hybrid plan does {regret:.1f}x the work of the best "
        f"join order"
    )


def test_geomean_regret_gate(battery_regrets):
    """The battery-wide geomean regret stays under the gate, and enough
    orders ran to completion that the row agreement above means something."""
    regrets = [regret for regret, _, _ in battery_regrets.values()]
    geomean = math.exp(sum(math.log(r) for r in regrets) / len(regrets))
    assert len(regrets) >= 20
    assert sum(completed for _, completed, _ in battery_regrets.values()) >= 100
    assert geomean <= GEOMEAN_REGRET_LIMIT, (
        f"geomean plan regret {geomean:.3f} exceeds {GEOMEAN_REGRET_LIMIT}"
    )
