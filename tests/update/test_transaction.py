"""Transactions: atomicity, group commit, and epoch-batched invalidation."""

from __future__ import annotations

import pytest

from repro import MiniRelBackend, RdfStore, SqliteBackend, Triple, URI
from repro.core.resilience import (
    ChaosBackend,
    Fault,
    FaultPlan,
    TransientFaultError,
)
from repro.update import TransactionError

from ..conftest import figure1_graph

QUERY = "SELECT ?x ?y WHERE { ?x <founder> ?y }"


def t(subject: str, predicate: str, obj: str) -> Triple:
    return Triple(URI(subject), URI(predicate), URI(obj))


class TestCommit:
    def test_batch_commits_atomically(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        with store.transaction() as txn:
            assert txn.add(t("Ada", "founder", "Analytical_Engines"))
            assert txn.remove(t("Larry_Page", "founder", "Google"))
        rows = store.query(QUERY).key_rows()
        assert ("Ada", "Analytical_Engines") in rows
        assert ("Larry_Page", "Google") not in rows

    def test_epoch_bumps_exactly_once_per_batch(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        epoch = store.stats.epoch
        with store.transaction() as txn:
            for i in range(1000):
                txn.add(t(f"e{i}", "p", f"v{i}"))
            assert store.stats.epoch == epoch  # nothing bumped mid-batch
        assert store.stats.epoch == epoch + 1

    def test_cached_plans_survive_until_commit(self, fig1_graph):
        """The satellite regression: queries inside an open batch keep
        hitting the warm plan cache; commit invalidates exactly once."""
        store = RdfStore.from_graph(fig1_graph)
        store.query(QUERY)  # prime (1 miss)
        with store.transaction() as txn:
            for i in range(20):
                txn.add(t(f"f{i}", "founder", f"Co{i}"))
                store.query(QUERY)
        info = store.cache_info()
        assert info.hits == 20
        assert info.invalidations == 0
        store.query(QUERY)  # first post-commit run recompiles
        info = store.cache_info()
        assert info.invalidations == 1
        assert info.misses == 1  # invalidation is not double-counted

    def test_autocommit_writes_invalidate_once_per_query(self, fig1_graph):
        """The unbatched contrast: every autocommit write moves the epoch,
        so each interleaved query recompiles — one invalidation per query,
        however many writes came before it."""
        store = RdfStore.from_graph(fig1_graph)
        store.query(QUERY)  # prime
        for i in range(30):
            store.add(t(f"g{i}", "founder", f"Co{i}"))
            if i % 10 == 9:
                store.query(QUERY)
        info = store.cache_info()
        assert (info.hits, info.invalidations) == (0, 3)

    def test_queries_see_uncommitted_writes(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        with store.transaction() as txn:
            txn.add(t("Ada", "founder", "Analytical_Engines"))
            rows = store.query(QUERY).key_rows()
            assert ("Ada", "Analytical_Engines") in rows

    def test_empty_commit_keeps_cache_warm(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        store.query(QUERY)
        with store.transaction() as txn:
            assert not txn.remove(t("nobody", "founder", "x"))
            assert not txn.add(t("IBM", "industry", "Software"))  # duplicate
        store.query(QUERY)
        info = store.cache_info()
        assert (info.hits, info.invalidations) == (1, 0)

    def test_store_counts_stay_consistent(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        total = store.stats.total_triples
        store.add(t("IBM", "industry", "Software"))  # duplicate: no count
        assert store.stats.total_triples == total
        store.add(t("IBM", "industry", "Finance"))
        assert store.stats.total_triples == total + 1
        store.remove(t("IBM", "industry", "Finance"))
        assert store.stats.total_triples == total


class TestRollback:
    def test_exception_rolls_back(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        baseline = store.query(QUERY).canonical()
        epoch = store.stats.epoch
        with pytest.raises(RuntimeError):
            with store.transaction() as txn:
                txn.add(t("Ada", "founder", "Analytical_Engines"))
                txn.remove(t("Larry_Page", "founder", "Google"))
                raise RuntimeError("abort")
        assert store.query(QUERY).canonical() == baseline
        assert store.stats.epoch == epoch  # rollback never bumps

    def test_manual_rollback(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        total = store.stats.total_triples
        txn = store.transaction()
        txn.add(t("a", "p", "b"))
        txn.rollback()
        assert store.stats.total_triples == total
        assert not store.ask("ASK { <a> <p> <b> }")

    def test_rollback_restores_multivalued_shrink(self, fig1_graph):
        """Deleting one of several objects then rolling back restores the
        full value set (exercises the lid demote/upgrade inverse pair)."""
        store = RdfStore.from_graph(fig1_graph)
        before = store.query(
            "SELECT ?y WHERE { <IBM> <industry> ?y }"
        ).canonical()
        with pytest.raises(RuntimeError):
            with store.transaction() as txn:
                txn.remove(t("IBM", "industry", "Software"))
                txn.remove(t("IBM", "industry", "Hardware"))
                raise RuntimeError("abort")
        after = store.query(
            "SELECT ?y WHERE { <IBM> <industry> ?y }"
        ).canonical()
        assert after == before


class TestUsageErrors:
    def test_no_nested_transactions(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        with store.transaction():
            with pytest.raises(TransactionError):
                store.transaction()

    def test_closed_transaction_rejects_writes(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        txn = store.transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.add(t("a", "p", "b"))
        with pytest.raises(TransactionError):
            txn.commit()

    def test_store_add_joins_open_transaction(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        epoch = store.stats.epoch
        with store.transaction():
            store.add(t("a", "p", "b"))  # delegates to the open batch
            store.add(t("c", "p", "d"))
            assert store.stats.epoch == epoch
        assert store.stats.epoch == epoch + 1
        assert store.ask("ASK { <a> <p> <b> }")

    def test_update_joins_open_transaction(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        baseline = store.stats.total_triples
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.update('INSERT DATA { <a> <p> "x" }')
                raise RuntimeError("abort")  # rolls the update back too
        assert store.stats.total_triples == baseline


# ------------------------------------------------------ failed writes

#: one write per loader path: fresh entities on both sides, a spill row
#: plus a free reverse cell, a single value upgraded to a multi-valued
#: lid, and a delete that demotes a lid back to a single value on both
#: sides
FAILING_WRITES = {
    "add_fresh": lambda store: store.add(t("Ada", "founder", "Engines")),
    "add_spill": lambda store: store.add(t("Google", "home", "Software")),
    "add_upgrade": lambda store: store.add(t("Larry_Page", "founder", "Software")),
    "delete_demote": lambda store: store.update(
        "DELETE DATA { <Google> <industry> <Software> }"
    ),
}

#: the direct side (every triple) and the reverse side (keyed by object)
STATE_PROBES = (
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    "SELECT ?s ?p WHERE { ?s ?p <Software> }",
)


def _armed_ops(write: str) -> int:
    """How many hooked backend operations the write performs."""
    chaos = ChaosBackend(MiniRelBackend())
    store = RdfStore.from_graph(figure1_graph(), backend=chaos)
    chaos.arm()
    FAILING_WRITES[write](store)
    return chaos.total_ops


def _state(store) -> tuple:
    answers = tuple(tuple(store.query(probe).canonical()) for probe in STATE_PROBES)
    return answers, store.stats.total_triples


@pytest.mark.parametrize("backend_factory", [MiniRelBackend, SqliteBackend])
@pytest.mark.parametrize(
    "write, k",
    [(write, k) for write in FAILING_WRITES for k in range(1, _armed_ops(write) + 1)],
)
def test_failed_write_leaves_the_pre_state(backend_factory, write, k):
    """A fault at any backend op of one write raises and leaves the store
    exactly as before — minirel by logical undo, sqlite by ROLLBACK."""
    plan = FaultPlan([Fault("any", k)])
    chaos = ChaosBackend(backend_factory(), plan)
    store = RdfStore.from_graph(figure1_graph(), backend=chaos)
    before = _state(store)
    chaos.arm()
    with pytest.raises(TransientFaultError):
        FAILING_WRITES[write](store)
    assert len(plan.fired) == 1
    chaos.armed = False
    assert _state(store) == before


def test_online_assignment_for_novel_predicate():
    """A predicate unseen at bulk-load time gets a column online and is
    immediately queryable — and keeps landing on the same column."""
    store = RdfStore.from_graph(figure1_graph())
    assert "brand_new" not in store.loader.bulk_direct_preds
    with store.transaction() as txn:
        for i in range(5):
            txn.add(t(f"s{i}", "brand_new", f"o{i}"))
    assert len(store.query("SELECT ?s WHERE { ?s <brand_new> ?o }")) == 5
    assert "brand_new" in store.loader.online_direct
    assert "brand_new" in store.report().direct.online_assignments
    column = store.loader.online_direct["brand_new"]
    assert store.report().direct.online_assignments["brand_new"] == column
