"""Transactions: atomicity, group commit, and epoch-batched invalidation."""

from __future__ import annotations

import copy
from collections import Counter

import pytest

from repro import Graph, MiniRelBackend, RdfStore, SqliteBackend, Triple, URI
from repro.core.resilience import (
    ChaosBackend,
    Fault,
    FaultPlan,
    TransientFaultError,
)
from repro.relational.table import Table
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
        """The cached plan outlives the open batch and commit invalidates
        it exactly once. Queries inside the batch bypass the shared cache
        (they see metadata no epoch covers yet), so they neither hit nor
        replace it."""
        store = RdfStore.from_graph(fig1_graph)
        store.query(QUERY)  # prime (1 miss)
        with store.transaction() as txn:
            for i in range(20):
                txn.add(t(f"f{i}", "founder", f"Co{i}"))
                store.query(QUERY)
        info = store.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 1, 1)
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

    @pytest.mark.parametrize("backend_factory", [MiniRelBackend, SqliteBackend])
    def test_in_batch_query_never_reuses_a_stale_plan(self, backend_factory):
        """A plan cached while <founder> was single-valued must not answer
        after an in-batch write made it multi-valued (it would return the
        internal lid instead of the two objects)."""
        store = RdfStore.from_graph(figure1_graph(), backend=backend_factory())
        text = "SELECT ?o WHERE { <Larry_Page> <founder> ?o }"
        assert store.query(text).key_rows() == [("Google",)]
        with store.transaction() as txn:
            txn.add(t("Larry_Page", "founder", "Software"))
            assert store.query(text).canonical() == [("Google",), ("Software",)]

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

def _bulk_load(store) -> None:
    """Append a small graph with multi-valued cells on both sides. The
    store is loaded, so the graph goes through the add path as one
    transaction."""
    store.load_graph(Graph([
        t("Ada", "founder", "Engines"),
        t("Ada", "founder", "Lovelace_Co"),
        t("Grace", "founder", "Engines"),
        t("Ada", "born", "1815"),
    ]))


def _append_in_txn(store) -> None:
    """An appending load that joins an open transaction after a write of
    its own: a fault in either rolls both back."""
    with store.transaction() as txn:
        txn.add(t("Ada", "born", "1815"))
        store.load_graph(Graph([
            t("Ada", "founder", "Engines"),
            t("Grace", "founder", "Engines"),
        ]))


def _batch(store) -> None:
    """Three writes in one transaction: an upgrade that makes <founder>
    multi-valued, a novel predicate that takes an online column, and a
    demote. A fault in any of them rolls the whole batch back."""
    with store.transaction() as txn:
        txn.add(t("Larry_Page", "founder", "Software"))
        txn.add(t("Ada", "novel", "Engines"))
        txn.remove(t("Google", "industry", "Software"))


#: one write per loader path: fresh entities on both sides, a spill row
#: plus a free reverse cell, a single value upgraded to a multi-valued
#: lid, and a delete that demotes a lid back to a single value on both
#: sides; then an appending load, standalone and inside a transaction, and
#: a multi-write transaction
FAILING_WRITES = {
    "add_fresh": lambda store: store.add(t("Ada", "founder", "Engines")),
    "add_spill": lambda store: store.add(t("Google", "home", "Software")),
    "add_upgrade": lambda store: store.add(t("Larry_Page", "founder", "Software")),
    "delete_demote": lambda store: store.update(
        "DELETE DATA { <Google> <industry> <Software> }"
    ),
    "bulk_load": _bulk_load,
    "append_in_txn": _append_in_txn,
    "batch": _batch,
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
    """Query answers plus every piece of side state a write can change."""
    answers = tuple(tuple(store.query(probe).canonical()) for probe in STATE_PROBES)
    loader = store.loader
    return answers, copy.deepcopy((
        store.stats.total_triples,
        store.direct_meta,
        store.reverse_meta,
        store.stats,
        loader.online_direct,
        loader.online_reverse,
        (loader.direct_lids.next_id, loader.reverse_lids.next_id),
    ))


@pytest.mark.parametrize("backend_factory", [MiniRelBackend, SqliteBackend])
@pytest.mark.parametrize(
    "write, k",
    [(write, k) for write in FAILING_WRITES for k in range(1, _armed_ops(write) + 1)],
)
def test_failed_write_leaves_the_pre_state(backend_factory, write, k):
    """A fault at any backend op of one write raises and leaves the store
    exactly as before: the aborted bracket restores the data (minirel from
    its bracket log, sqlite by ROLLBACK) and the store its side state."""
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


@pytest.mark.parametrize("backend_factory", [MiniRelBackend, SqliteBackend])
def test_failed_write_allows_only_rollback(backend_factory):
    """A write that raised may have landed in part: the transaction is
    failed, commit and further writes are refused, and rollback restores
    the pre-state."""
    # op 4 is the reverse side's first read: the direct side has landed
    chaos = ChaosBackend(backend_factory(), FaultPlan([Fault("any", 4)]))
    store = RdfStore.from_graph(figure1_graph(), backend=chaos)
    before = _state(store)
    txn = store.transaction()
    assert txn.add(t("Ada", "founder", "Engines"))
    chaos.arm()
    with pytest.raises(TransientFaultError):
        txn.add(t("Larry_Page", "founder", "Software"))
    chaos.armed = False
    assert txn.state == "failed"
    with pytest.raises(TransactionError):
        txn.commit()
    with pytest.raises(TransactionError):
        txn.add(t("Grace", "founder", "COBOL_Inc"))
    txn.rollback()
    assert _state(store) == before


BENCH = "http://example.org/bench/"
#: the shape of the served benchmark's writes: one fresh 5-triple entity
ENTITY_INSERT = (
    "INSERT DATA { "
    f'<{BENCH}e1> <{BENCH}marker> "1" . '
    f"<{BENCH}e1> <{BENCH}kind> <{BENCH}Probe> . "
    f'<{BENCH}e1> <{BENCH}label> "probe entity 1" . '
    f"<{BENCH}e1> <{BENCH}owner> <{BENCH}client0> . "
    f"<{BENCH}e1> <{BENCH}next> <{BENCH}e2> }}"
)

#: (write, its backend operations by kind). The crash matrices number
#: their faults by these operations, so a count that moves re-numbers
#: every recorded scenario.
WRITE_PATH_OPS = [
    (lambda store: store.update(ENTITY_INSERT),
     {"execute": 14, "insert_many": 7}),
    (lambda store: store.update(ENTITY_INSERT.replace("INSERT", "DELETE", 1)),
     {"execute": 27}),
    (FAILING_WRITES["add_spill"], {"execute": 4, "insert_many": 1}),
    (FAILING_WRITES["delete_demote"], {"execute": 12}),
]


def test_writes_find_their_rows_through_the_entry_and_lid_indexes(monkeypatch):
    """Every DELETE / UPDATE the loader issues pins ``entry`` or ``l_id``
    to a constant, so minirel finds its rows through the hash index and
    never scans DPH, RPH, DS or RS; the statement count per write is the
    one the crash matrices are numbered by."""
    scanned = []
    scan_with_ids = Table.scan_with_ids

    def recording_scan(table):
        scanned.append(table.name)
        return scan_with_ids(table)

    monkeypatch.setattr(Table, "scan_with_ids", recording_scan)
    chaos = ChaosBackend(MiniRelBackend())
    store = RdfStore.from_graph(figure1_graph(), backend=chaos)
    schema = store.schema
    chaos.arm()
    for write, expected in WRITE_PATH_OPS:
        before = Counter(chaos.op_counts)
        write(store)
        assert dict(Counter(chaos.op_counts) - before) == expected
    assert not {schema.dph, schema.rph, schema.ds, schema.rs} & set(scanned)


def test_rollback_issues_no_backend_ops():
    """Rolling back is the backend bracket's abort, not replayed DML."""
    chaos = ChaosBackend(MiniRelBackend())
    store = RdfStore.from_graph(figure1_graph(), backend=chaos)
    before = _state(store)
    chaos.arm()
    txn = store.transaction()
    for i in range(10):
        txn.add(t(f"n{i}", "founder", f"Co{i % 3}"))
    counts = dict(chaos.op_counts)
    txn.rollback()
    assert dict(chaos.op_counts) == counts
    chaos.armed = False
    assert _state(store) == before


@pytest.mark.parametrize("backend_factory", [MiniRelBackend, SqliteBackend])
def test_failed_replay_leaves_the_pre_attach_state(backend_factory, tmp_path):
    """A journal replay that raises part-way applies none of it and
    attaches no journal; a later attach replays everything."""
    path = tmp_path / "j.wal"
    writer = RdfStore.from_graph(figure1_graph(), wal_path=path)
    writer.add(t("Larry_Page", "founder", "Software"))
    writer.add(t("Ada", "founder", "Engines"))
    writer.wal.close()
    probe = ChaosBackend(backend_factory())
    replayer = RdfStore.from_graph(figure1_graph(), backend=probe)
    probe.arm()
    assert replayer.attach_wal(path) == 2
    replayer.wal.close()
    # fault the replay's last op: the first record has fully landed
    plan = FaultPlan([Fault("any", probe.total_ops)])
    chaos = ChaosBackend(backend_factory(), plan)
    store = RdfStore.from_graph(figure1_graph(), backend=chaos)
    before = _state(store)
    chaos.arm()
    with pytest.raises(TransientFaultError):
        store.attach_wal(path)
    assert len(plan.fired) == 1
    chaos.armed = False
    assert store.wal is None
    assert _state(store) == before
    assert store.attach_wal(path) == 2
    store.wal.close()


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
