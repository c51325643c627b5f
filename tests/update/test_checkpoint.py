"""Durable checkpoints, compaction, and online backup/restore.

The acceptance contract: after ``store.checkpoint()`` a restart replays
only post-checkpoint segments (asserted by record count), and a backup
taken while concurrent readers hold snapshots restores to a
checksum-verified, identical query result set.
"""

from __future__ import annotations

import pathlib
import threading

import pytest

from repro import RdfStore, Triple, URI
from repro.backends import MiniRelBackend, SqliteBackend
from repro.update import TransactionError, WalError, WriteAheadLog, inspect_wal

from ..conftest import figure1_graph

BACKENDS = [MiniRelBackend, SqliteBackend]

ALL_SPO = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"


def _build(backend_factory, wal_path, **wal_kwargs):
    store = RdfStore.from_graph(figure1_graph(), backend=backend_factory())
    store.attach_wal(wal_path, **wal_kwargs)
    return store


def _segments(wal_path):
    return sorted(pathlib.Path(wal_path).glob("wal-*.seg"))


def _checkpoints(wal_path):
    return sorted(pathlib.Path(wal_path).glob("checkpoint-*.ckpt"))


class TestCheckpoint:
    @pytest.mark.parametrize("backend_factory", BACKENDS)
    def test_checkpoint_bounds_replay(self, backend_factory, tmp_path):
        """The headline property: records before the checkpoint are never
        replayed again — recovery reads the checkpoint plus only the
        post-checkpoint segments."""
        wal_path = tmp_path / "store.wal"
        store = _build(backend_factory, wal_path)
        for i in range(6):
            store.add(Triple(URI(f"E{i}"), URI("tag"), URI(f"V{i}")))
        info = store.checkpoint()
        assert info.txn == 6
        for i in range(6, 9):
            store.add(Triple(URI(f"E{i}"), URI("tag"), URI(f"V{i}")))
        expected = tuple(store.query(ALL_SPO).canonical())
        store.flush_wal()
        del store

        reopened = _build(backend_factory, wal_path)
        assert tuple(reopened.query(ALL_SPO).canonical()) == expected
        recovery = reopened._wal.last_recovery
        assert recovery.checkpoint_txn == 6
        assert recovery.segment_records == 3  # only the post-checkpoint txns
        assert recovery.records_skipped == 0  # compaction removed the rest

    def test_compaction_removes_covered_segments(self, tmp_path):
        wal_path = tmp_path / "j.wal"
        wal = WriteAheadLog(wal_path, segment_max_bytes=128)
        for i in range(10):
            wal.append([("+", f"s{i}", "p", f"o{i}")])
        assert len(_segments(wal_path)) > 2
        info = wal.checkpoint()
        assert info.segments_removed >= 2
        assert _segments(wal_path) == []
        (ckpt,) = _checkpoints(wal_path)
        assert ckpt.name == "checkpoint-00000010.ckpt"
        # Replay now comes entirely from the checkpoint, consolidated.
        replayed = list(wal.replay())
        assert len(replayed) == 1
        txn, ops = replayed[0]
        assert txn == 10
        assert sorted(ops) == sorted(
            [("+", f"s{i}", "p", f"o{i}") for i in range(10)]
        )

    def test_checkpoint_consolidates_deletes(self, tmp_path):
        """Add-then-remove nets out: the checkpoint carries one op per
        distinct triple, last tag wins, and replay applies cleanly."""
        wal_path = tmp_path / "j.wal"
        wal = WriteAheadLog(wal_path)
        wal.append([("+", "a", "p", "b")])
        wal.append([("-", "a", "p", "b")])
        wal.append([("+", "a", "p", "b")])
        wal.append([("+", "c", "p", "d"), ("-", "c", "p", "d")])
        wal.checkpoint()
        (entry,) = list(wal.replay())
        assert entry[0] == 4
        assert dict(((s, p, o), tag) for tag, s, p, o in entry[1]) == {
            ("a", "p", "b"): "+",
            ("c", "p", "d"): "-",
        }

    def test_checkpoint_of_empty_journal_is_a_noop(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "j.wal")
        info = wal.checkpoint()
        assert info.txn == 0
        assert _checkpoints(tmp_path / "j.wal") == []

    def test_repeated_checkpoints_replace_the_old_one(self, tmp_path):
        wal_path = tmp_path / "j.wal"
        wal = WriteAheadLog(wal_path)
        wal.append([("+", "a", "p", "b")])
        wal.checkpoint()
        wal.append([("+", "c", "p", "d")])
        wal.checkpoint()
        (ckpt,) = _checkpoints(wal_path)
        assert ckpt.name == "checkpoint-00000002.ckpt"
        (entry,) = list(WriteAheadLog(wal_path).replay())
        assert entry[0] == 2
        assert len(entry[1]) == 2

    def test_auto_checkpoint_by_record_count(self, tmp_path):
        """The policy trigger: every Nth committed record compacts the
        journal from inside the commit, without an explicit call."""
        wal_path = tmp_path / "store.wal"
        store = RdfStore.from_graph(figure1_graph())
        store.attach_wal(wal_path, checkpoint_every_records=3)
        for i in range(7):
            store.add(Triple(URI(f"E{i}"), URI("tag"), URI(f"V{i}")))
        assert store._wal.checkpoint_txn >= 3  # fired at least once
        assert store._wal.record_count < 7  # and compacted
        # A reopened store sees the exact same state.
        expected = tuple(store.query(ALL_SPO).canonical())
        del store
        reopened = RdfStore.from_graph(figure1_graph())
        reopened.attach_wal(wal_path)
        assert tuple(reopened.query(ALL_SPO).canonical()) == expected

    def test_auto_checkpoint_by_bytes(self, tmp_path):
        wal_path = tmp_path / "store.wal"
        store = RdfStore.from_graph(figure1_graph())
        store.attach_wal(wal_path, checkpoint_every_bytes=256)
        for i in range(12):
            store.add(Triple(URI(f"Entity-{i:03d}"), URI("tag"), URI(f"V{i}")))
        assert store._wal.checkpoint_txn > 0

    def test_checkpoint_requires_a_journal_and_no_open_txn(self, tmp_path):
        bare = RdfStore.from_graph(figure1_graph())
        with pytest.raises(TransactionError, match="no journal"):
            bare.checkpoint()
        store = RdfStore.from_graph(figure1_graph(),
                                    wal_path=tmp_path / "j.wal")
        with store.transaction():
            with pytest.raises(TransactionError, match="mid-transaction"):
                store.checkpoint()

    def test_checkpoint_meta_records_store_context(self, tmp_path):
        store = RdfStore.from_graph(figure1_graph(),
                                    wal_path=tmp_path / "j.wal")
        store.add(Triple(URI("a"), URI("p"), URI("b")))
        store.checkpoint()
        from repro.update.wal import _read_checkpoint, _scan_journal

        path = _scan_journal(
            tmp_path / "j.wal", store._wal.max_record_bytes
        ).checkpoint_path
        _txn, _ops, meta = _read_checkpoint(path, store._wal.max_record_bytes)
        assert meta["epoch"] == store.stats.epoch
        assert meta["triples"] == store.stats.total_triples


class TestBackup:
    @pytest.mark.parametrize("backend_factory", BACKENDS)
    def test_backup_under_concurrent_reads_restores_identically(
        self, backend_factory, tmp_path
    ):
        """The acceptance scenario: snapshot readers keep querying while
        the backup runs; the restored store answers identically and the
        copy is checksum-verified."""
        wal_path = tmp_path / "live.wal"
        store = _build(backend_factory, wal_path)
        for i in range(4):
            store.add(Triple(URI(f"E{i}"), URI("tag"), URI(f"V{i}")))
        store.checkpoint()
        store.add(Triple(URI("post"), URI("ckpt"), URI("record")))
        expected = tuple(store.query(ALL_SPO).canonical())

        stop = threading.Event()
        failures: list[Exception] = []

        def reader():
            try:
                while not stop.is_set():
                    with store.snapshot() as snap:
                        rows = snap.query(ALL_SPO).canonical()
                        assert len(rows) >= len(expected) - 1
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            backup_dir = tmp_path / "backup"
            status = store.backup(backup_dir)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures
        assert status.ok
        assert status.last_txn == 5

        restored = RdfStore.from_graph(
            figure1_graph(), backend=backend_factory(), wal_path=backup_dir
        )
        assert tuple(restored.query(ALL_SPO).canonical()) == expected

    def test_backup_is_isolated_from_later_writes(self, tmp_path):
        wal_path = tmp_path / "live.wal"
        store = _build(MiniRelBackend, wal_path)
        store.add(Triple(URI("before"), URI("p"), URI("v")))
        at_backup = tuple(store.query(ALL_SPO).canonical())
        backup_dir = tmp_path / "backup"
        store.backup(backup_dir)
        store.add(Triple(URI("after"), URI("p"), URI("v")))

        restored = RdfStore.from_graph(figure1_graph(), wal_path=backup_dir)
        assert tuple(restored.query(ALL_SPO).canonical()) == at_backup

    def test_restore_verifies_checksums(self, tmp_path):
        wal_path = tmp_path / "live.wal"
        store = _build(MiniRelBackend, wal_path)
        store.add(Triple(URI("a"), URI("p"), URI("b")))
        backup_dir = tmp_path / "backup"
        store.backup(backup_dir)
        segment = _segments(backup_dir)[0]
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0x01
        segment.write_bytes(bytes(data))
        assert not inspect_wal(backup_dir).ok
        with pytest.raises(WalError):
            RdfStore.from_graph(figure1_graph(), wal_path=backup_dir)

    def test_backup_refuses_nonempty_destination(self, tmp_path):
        store = _build(MiniRelBackend, tmp_path / "live.wal")
        store.add(Triple(URI("a"), URI("p"), URI("b")))
        dest = tmp_path / "occupied"
        dest.mkdir()
        (dest / "keep.txt").write_text("precious")
        with pytest.raises(WalError, match="not empty"):
            store.backup(dest)
        assert (dest / "keep.txt").read_text() == "precious"

    def test_backup_requires_a_journal(self, tmp_path):
        bare = RdfStore.from_graph(figure1_graph())
        with pytest.raises(TransactionError, match="no journal"):
            bare.backup(tmp_path / "b")
