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

from repro import RdfStore, SqliteBackend
from repro.core.concurrency import SnapshotClosedError
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
