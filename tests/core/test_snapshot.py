"""Snapshot-isolation reads: pinned state, epochs, and version GC.

Single-threaded functional coverage of :meth:`RdfStore.snapshot` on both
backends — a snapshot keeps answering from the commit it pinned no matter
what commits, rolls back, or bulk-mutates afterwards. The threaded
interleaving and property-based checks live in ``test_interleavings.py``
and ``test_concurrency_harness.py``; this file proves the contract where
failures are easiest to read.
"""

from __future__ import annotations

import threading

import pytest

from repro import MiniRelBackend, RdfStore, SqliteBackend
from repro.core.concurrency import SnapshotClosedError
from repro.relational import ColumnType
from repro.update.errors import TransactionError

from ..conftest import figure1_graph

INDUSTRIES = "SELECT ?o WHERE { <Google> <industry> ?o }"
EVERYTHING = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"
INSERT = "INSERT DATA { <Google> <industry> <Robotics> }"
DELETE = "DELETE DATA { <Google> <industry> <Software> }"


def _store(backend_name: str) -> RdfStore:
    if backend_name == "sqlite":
        return RdfStore.from_graph(figure1_graph(), backend=SqliteBackend())
    return RdfStore.from_graph(figure1_graph())


def _values(result) -> set:
    return {row[0] for row in result.key_rows()}


@pytest.fixture(params=["minirel", "sqlite"])
def store(request) -> RdfStore:
    return _store(request.param)


def test_snapshot_does_not_see_later_commit(store):
    with store.snapshot() as snap:
        before = _values(snap.query(INDUSTRIES))
        store.update(INSERT)
        assert _values(store.query(INDUSTRIES)) == before | {"Robotics"}
        assert _values(snap.query(INDUSTRIES)) == before


def test_snapshot_does_not_see_later_delete(store):
    with store.snapshot() as snap:
        store.update(DELETE)
        assert "Software" not in _values(store.query(INDUSTRIES))
        assert "Software" in _values(snap.query(INDUSTRIES))


def test_snapshot_repeatable_across_many_commits(store):
    with store.snapshot() as snap:
        baseline = snap.query(EVERYTHING).canonical()
        for i in range(5):
            store.update(
                f"INSERT DATA {{ <S{i}> <fresh_pred> <O{i}> }}"
            )
            assert snap.query(EVERYTHING).canonical() == baseline
        assert len(store.query(EVERYTHING)) == len(baseline) + 5


def test_rollback_of_effective_writes_after_snapshot(store):
    before = store.query(EVERYTHING).canonical()
    snap = store.snapshot()
    try:
        with pytest.raises(RuntimeError, match="boom"):
            with store.transaction():
                store.update(
                    "INSERT DATA { <Newco> <industry> <Robotics> }"
                )
                store.update(DELETE)
                raise RuntimeError("boom")
        assert store.query(EVERYTHING).canonical() == before
        assert snap.query(EVERYTHING).canonical() == before
    finally:
        snap.close()


def test_rollback_under_a_pinned_snapshot(store):
    """Deletes and in-place updates rolled back while a snapshot is pinned:
    the snapshot's answers never move, the latest state is the pre-state,
    and minirel keeps no row versions once the snapshot closes."""
    before = store.query(EVERYTHING).canonical()
    snap = store.snapshot()
    try:
        with pytest.raises(RuntimeError, match="boom"):
            with store.transaction():
                store.update(DELETE)  # demotes a lid: updates and deletes
                store.update("DELETE DATA { <Android> <kernel> <Linux> }")
                store.update("INSERT DATA { <Larry_Page> <founder> <IBM> }")
                assert snap.query(EVERYTHING).canonical() == before
                raise RuntimeError("boom")
        assert snap.query(EVERYTHING).canonical() == before
        assert store.query(EVERYTHING).canonical() == before
    finally:
        snap.close()
    if store.backend.name == "minirel":
        tables = store.backend.db.tables.values()
        assert sum(len(t.born) + len(t.died) for t in tables) == 0


def test_two_snapshots_pin_two_states(store):
    older = store.snapshot()
    store.update(INSERT)
    newer = store.snapshot()
    store.update(DELETE)
    try:
        assert _values(older.query(INDUSTRIES)) == {
            "Software", "Internet"
        }
        assert _values(newer.query(INDUSTRIES)) == {
            "Software", "Internet", "Robotics"
        }
        assert _values(store.query(INDUSTRIES)) == {
            "Internet", "Robotics"
        }
    finally:
        older.close()
        newer.close()


def test_snapshot_pins_stats_epoch_and_plan_cache(store):
    store.query(INDUSTRIES)  # compile under the current epoch
    snap = store.snapshot()
    store.update(INSERT)  # bumps the epoch, stales the cached plan
    try:
        assert snap.epoch < store.stats.epoch
        snap.query(INDUSTRIES)  # compiles for the pinned epoch
        hits_before = store.cache_info().hits
        store.query(INDUSTRIES)
        info = store.cache_info()
        # The snapshot's older plan never clobbered the live entry: the
        # live reader recompiles once (invalidation), then hits.
        store.query(INDUSTRIES)
        assert store.cache_info().hits >= hits_before + 1
        assert info.lookups == info.hits + info.misses + info.invalidations
    finally:
        snap.close()


def test_snapshot_close_is_idempotent_then_queries_fail(store):
    snap = store.snapshot()
    snap.close()
    snap.close()
    with pytest.raises(SnapshotClosedError):
        snap.query(INDUSTRIES)


def test_snapshot_inside_transaction_is_rejected(store):
    with store.transaction() as txn:
        with pytest.raises(TransactionError, match="snapshot"):
            store.snapshot()
        txn.rollback()


def test_ask_through_snapshot(store):
    with store.snapshot() as snap:
        store.update(DELETE)
        assert snap.ask("ASK { <Google> <industry> <Software> }")
        assert not store.ask("ASK { <Google> <industry> <Software> }")


def test_minirel_gc_drains_retained_versions():
    store = _store("minirel")
    mvcc = store.backend.db.mvcc
    snap = store.snapshot()
    store.update(DELETE)
    store.update(INSERT)
    retained = sum(len(t.died) for t in store.backend.db.tables.values())
    assert retained > 0, "open snapshot should retain superseded rows"
    snap.close()
    assert mvcc.pinned_versions() == []
    # The next write bracket collects everything the snapshot was pinning.
    store.update("INSERT DATA { <Newco> <fresh_pred> <Newval> }")
    assert sum(len(t.died) for t in store.backend.db.tables.values()) == 0
    assert sum(len(t.born) for t in store.backend.db.tables.values()) == 0


def test_no_retention_without_snapshots():
    store = _store("minirel")
    store.update(DELETE)
    store.update(INSERT)
    tables = store.backend.db.tables.values()
    assert sum(len(t.died) for t in tables) == 0
    assert sum(len(t.born) for t in tables) == 0


def test_sqlite_file_backed_wal_snapshots(tmp_path):
    backend = SqliteBackend(str(tmp_path / "store.db"))
    store = RdfStore.from_graph(figure1_graph(), backend=backend)
    if not backend._wal_snapshots:
        pytest.skip("filesystem refused WAL")
    with store.snapshot() as snap:
        store.update(INSERT)
        assert "Robotics" not in _values(snap.query(INDUSTRIES))
        assert "Robotics" in _values(store.query(INDUSTRIES))


def test_snapshot_usable_from_another_thread(store):
    snap = store.snapshot()
    store.update(INSERT)
    outcome = {}

    def reader():
        outcome["seen"] = _values(snap.query(INDUSTRIES))

    thread = threading.Thread(target=reader)
    thread.start()
    thread.join(10)
    snap.close()
    assert outcome["seen"] == {"Software", "Internet"}


# ----------------------------------------- index-probed DML under MVCC

#: every WHERE pins the indexed column ``k``: minirel probes ``t_k`` and
#: runs the rest on the bucket. The third statement revisits the ``a``
#: bucket after the first re-versioned two of its rows.
PROBED_WRITES = (
    "UPDATE t SET n = n + 10 WHERE k = 'a' AND n < 3",
    "DELETE FROM t WHERE k = 'b' AND n > 1",
    "UPDATE t SET n = n + 100 WHERE k = 'a'",
)
TABLE_ROWS = [("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 5)]


def _indexed_table(backend_factory):
    backend = backend_factory()
    backend.create_table("t", [("k", ColumnType.TEXT), ("n", ColumnType.INTEGER)])
    backend.create_index("t_k", "t", ["k"])
    backend.insert_many("t", TABLE_ROWS)
    return backend


def _table_rows(backend, snapshot=None) -> list[tuple]:
    return sorted(backend.execute("SELECT k, n FROM t", snapshot=snapshot)[1])


def _probe_state(backend) -> tuple:
    """Per key, the row ids minirel's index files under it (sqlite: none)."""
    if backend.name != "minirel":
        return ()
    index = backend.db.indexes["t_k"]
    return tuple(sorted(
        (int(key[0]), tuple(sorted(ids)))
        for key, ids in index._buckets.items() if ids
    ))


@pytest.mark.parametrize("backend_factory", [MiniRelBackend, SqliteBackend])
def test_index_probed_writes_under_a_pinned_snapshot(backend_factory):
    """The snapshot keeps the old rows; each row is written once, so the
    versions an UPDATE appends to the probed bucket are never revisited;
    once the snapshot closes, the next bracket collects every version."""
    backend = _indexed_table(backend_factory)
    before = _table_rows(backend)
    snap = backend.open_snapshot()
    try:
        backend.begin_write()
        for statement in PROBED_WRITES:
            backend.execute(statement)
        backend.commit_write()
        assert _table_rows(backend, snap) == before
        assert _table_rows(backend) == [
            ("a", 103), ("a", 111), ("a", 112), ("b", 1),
        ]
        assert sorted(backend.execute("SELECT n FROM t WHERE k = 'a'")[1]) == [
            (103,), (111,), (112,),
        ]
    finally:
        snap.release()
    if backend.name == "minirel":
        index = backend.db.indexes["t_k"]
        assert index.probe_count == len(PROBED_WRITES) + 1
        backend.begin_write()
        backend.commit_write()
        table = backend.db.table("t")
        assert not table.born and not table.died


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("backend_factory", [MiniRelBackend, SqliteBackend])
def test_aborted_index_probed_writes_restore_rows_and_buckets(
    backend_factory, pinned
):
    """The same writes in an aborted bracket, with and without a pinned
    snapshot (logical versions vs in-place before-images): the table and
    every index bucket are as before the bracket."""
    backend = _indexed_table(backend_factory)
    before, buckets = _table_rows(backend), _probe_state(backend)
    snap = backend.open_snapshot() if pinned else None
    try:
        backend.begin_write()
        for statement in PROBED_WRITES:
            backend.execute(statement)
        backend.abort_write()
        assert _table_rows(backend) == before
        assert _probe_state(backend) == buckets
        assert sorted(backend.execute("SELECT n FROM t WHERE k = 'a'")[1]) == [
            (1,), (2,), (3,),
        ]
    finally:
        if snap is not None:
            snap.release()
