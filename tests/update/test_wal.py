"""The write-ahead journal: framing, checksums, recovery policies, replay.

Covers the segmented layout end to end — append/replay round trips, torn
tails vs real corruption under both recovery policies, the refusal of a
single-file journal, durability levels, and the replay edge cases (empty journal,
only a torn record, double replay, the max_record_bytes boundary).
"""

from __future__ import annotations

import json
import logging
import pathlib

import pytest

from repro import RdfStore, Triple, URI
from repro.cli import EXIT_WAL, main
from repro.update import (
    TransactionError,
    WalCorruptionError,
    WalError,
    WalWriteError,
    WriteAheadLog,
    inspect_wal,
)
from repro.update.crc import crc32c

from ..conftest import figure1_graph

QUERY = "SELECT ?x ?y WHERE { ?x <founder> ?y }"


def t(subject: str, predicate: str, obj: str) -> Triple:
    return Triple(URI(subject), URI(predicate), URI(obj))


def _segment_paths(wal_dir):
    return sorted(wal_dir.glob("wal-*.seg"))


def _only_segment(wal_dir):
    (segment,) = _segment_paths(wal_dir)
    return segment


class TestChecksum:
    def test_crc32c_known_answer(self):
        # The iSCSI/RFC 3720 check value for the nine-digit test vector.
        assert crc32c(b"123456789") == 0xE3069283

    def test_crc32c_streaming_matches_one_shot(self):
        data = b"the quick brown fox jumps over the lazy dog"
        assert crc32c(data) == crc32c(data[7:], crc32c(data[:7]))


class TestJournal:
    def test_append_then_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "j.wal")
        assert wal.append([("+", "a", "p", "b")]) == 1
        assert wal.append([("-", "a", "p", "b"), ("+", "c", "p", "d")]) == 2
        replayed = list(WriteAheadLog(tmp_path / "j.wal").replay())
        assert replayed == [
            (1, [("+", "a", "p", "b")]),
            (2, [("-", "a", "p", "b"), ("+", "c", "p", "d")]),
        ]

    def test_journal_is_a_directory_of_framed_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "j.wal")
        wal.append([("+", "a", "p", "b")])
        wal.close()
        segment = _only_segment(tmp_path / "j.wal")
        line = segment.read_bytes()
        magic, length, checksum, payload = line.split(b" ", 3)
        assert magic == b"W1"
        payload = payload[:-1]  # strip the record terminator
        assert int(length) == len(payload)
        assert int(checksum, 16) == crc32c(payload)
        assert json.loads(payload) == {"txn": 1, "ops": [["+", "a", "p", "b"]]}

    def test_txn_ids_continue_after_reopen(self, tmp_path):
        path = tmp_path / "j.wal"
        WriteAheadLog(path).append([("+", "a", "p", "b")])
        assert WriteAheadLog(path).append([("+", "c", "p", "d")]) == 2

    def test_replay_streams_records(self, tmp_path):
        """Replay is lazy: records are yielded as the file is read, not
        after loading it whole (consume one, then the rest)."""
        path = tmp_path / "j.wal"
        wal = WriteAheadLog(path)
        for i in range(50):
            wal.append([("+", f"s{i}", "p", f"o{i}")])
        replay = WriteAheadLog(path).replay()
        first = next(replay)
        assert first == (1, [("+", "s0", "p", "o0")])
        assert sum(1 for _ in replay) == 49

    def test_double_replay_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "j.wal")
        wal.append([("+", "a", "p", "b")])
        wal.append([("-", "a", "p", "b")])
        first = list(wal.replay())
        second = list(wal.replay())
        assert first == second == [
            (1, [("+", "a", "p", "b")]),
            (2, [("-", "a", "p", "b")]),
        ]

    def test_empty_journal_replays_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "j.wal")
        assert list(wal.replay()) == []
        assert wal.last_txn == 0
        assert list(WriteAheadLog(tmp_path / "j.wal").replay()) == []

    def test_segment_rotation_preserves_replay(self, tmp_path):
        path = tmp_path / "j.wal"
        wal = WriteAheadLog(path, segment_max_bytes=256)
        for i in range(20):
            wal.append([("+", f"subject-{i:04d}", "p", f"object-{i:04d}")])
        wal.close()
        assert len(_segment_paths(path)) > 1
        reopened = WriteAheadLog(path)
        replayed = list(reopened.replay())
        assert [txn for txn, _ in replayed] == list(range(1, 21))
        assert reopened.append([("+", "last", "p", "o")]) == 21


class TestTornTail:
    def test_torn_final_record_is_truncated_and_counted(self, tmp_path, caplog):
        path = tmp_path / "j.wal"
        WriteAheadLog(path).append([("+", "a", "p", "b")])
        segment = _only_segment(path)
        intact = segment.read_bytes()
        with open(segment, "ab") as handle:
            handle.write(b'W1 40 00000000 {"txn": 2, "ops": [["+", "c"')
        with caplog.at_level(logging.WARNING, logger="repro.update.wal"):
            wal = WriteAheadLog(path)
        assert list(wal.replay()) == [(1, [("+", "a", "p", "b")])]
        assert wal.records_dropped == 1
        assert wal.dropped[0].offset == len(intact)
        assert wal.dropped[0].index == 2
        assert "dropping record" in caplog.text
        # The repair physically removed the torn bytes...
        assert segment.read_bytes() == intact
        # ...and appending after recovery reuses the torn record's slot.
        assert wal.append([("+", "x", "p", "y")]) == 2

    def test_journal_with_only_a_torn_record(self, tmp_path):
        path = tmp_path / "j.wal"
        path.mkdir()
        (path / "wal-00000001.seg").write_bytes(b'W1 30 deadbeef {"txn": 1,')
        wal = WriteAheadLog(path)
        assert list(wal.replay()) == []
        assert wal.records_dropped == 1
        assert wal.append([("+", "a", "p", "b")]) == 1

    def test_torn_tail_tolerated_by_strict_policy_too(self, tmp_path):
        path = tmp_path / "j.wal"
        WriteAheadLog(path).append([("+", "a", "p", "b")])
        with open(_only_segment(path), "ab") as handle:
            handle.write(b"W1 10")
        wal = WriteAheadLog(path, recovery="strict")
        assert [txn for txn, _ in wal.replay()] == [1]


class TestCorruption:
    def _flip_bit_in_record(self, segment, record_index):
        """Flip one payload bit of the (0-based) Nth record in a segment."""
        lines = segment.read_bytes().splitlines(keepends=True)
        damaged = bytearray(lines[record_index])
        damaged[damaged.index(b"{") + 4] ^= 0x10
        lines[record_index] = bytes(damaged)
        segment.write_bytes(b"".join(lines))

    def test_bit_flip_raises_typed_error_with_location(self, tmp_path):
        path = tmp_path / "j.wal"
        wal = WriteAheadLog(path)
        wal.append([("+", "a", "p", "b")])
        wal.append([("+", "c", "p", "d")])
        wal.close()
        segment = _only_segment(path)
        self._flip_bit_in_record(segment, 0)
        with pytest.raises(WalCorruptionError, match="checksum mismatch") as info:
            WriteAheadLog(path)
        assert info.value.segment == str(segment)
        assert info.value.offset == 0
        assert info.value.index == 1

    def test_tolerate_tail_truncates_at_first_bad_record(self, tmp_path):
        path = tmp_path / "j.wal"
        wal = WriteAheadLog(path)
        first = wal.append([("+", "a", "p", "b")])
        wal.append([("+", "c", "p", "d")])
        wal.append([("+", "e", "p", "f")])
        wal.close()
        segment = _only_segment(path)
        self._flip_bit_in_record(segment, 1)
        tolerant = WriteAheadLog(path, recovery="tolerate_tail")
        assert [txn for txn, _ in tolerant.replay()] == [first]
        assert tolerant.records_dropped >= 1
        # The journal stays usable: new appends fill the reclaimed slots.
        assert tolerant.append([("+", "x", "p", "y")]) == first + 1

    def test_missing_interior_transactions_detected(self, tmp_path):
        """Deleting a whole sealed segment is a hole in the committed
        sequence — no recovery policy may silently skip it."""
        path = tmp_path / "j.wal"
        wal = WriteAheadLog(path, segment_max_bytes=64)
        for i in range(6):
            wal.append([("+", f"s{i}", "p", f"o{i}")])
        wal.close()
        segments = _segment_paths(path)
        assert len(segments) >= 3
        segments[1].unlink()
        for policy in ("strict", "tolerate_tail"):
            with pytest.raises(WalCorruptionError, match="missing transactions"):
                WriteAheadLog(path, recovery=policy)

    def test_unknown_operation_tag_raises(self, tmp_path):
        path = tmp_path / "j.wal"
        path.mkdir()
        payload = json.dumps({"txn": 1, "ops": [["*", "a", "p", "b"]]}).encode()
        frame = b"W1 %d %08x " % (len(payload), crc32c(payload)) + payload + b"\n"
        (path / "wal-00000001.seg").write_bytes(frame)
        with pytest.raises(WalCorruptionError, match="unknown operation"):
            WriteAheadLog(path)


class TestRecordCap:
    def test_record_exactly_at_the_cap_round_trips(self, tmp_path):
        path = tmp_path / "j.wal"
        probe = json.dumps(
            {"txn": 1, "ops": [["+", "s", "p", "x"]]}, separators=(",", ":")
        )
        pad = 512 - len(probe)
        ops = [("+", "s", "p", "x" + "y" * pad)]
        wal = WriteAheadLog(path, max_record_bytes=512)
        assert wal.append(ops) == 1
        wal.close()
        reopened = WriteAheadLog(path, max_record_bytes=512)
        assert list(reopened.replay()) == [(1, [ops[0]])]

    def test_record_over_the_cap_is_refused_at_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "j.wal", max_record_bytes=512)
        with pytest.raises(WalWriteError, match="max_record_bytes"):
            wal.append([("+", "s", "p", "x" * 600)])
        # The refusal journalled nothing: the next append takes txn 1.
        assert wal.append([("+", "a", "p", "b")]) == 1

    def test_replay_with_a_lower_cap_raises_typed_error(self, tmp_path):
        path = tmp_path / "j.wal"
        wal = WriteAheadLog(path)
        wal.append([("+", "a", "p", "b")])
        wal.append([("+", "x" * 4096, "p", "b")])
        wal.close()
        with pytest.raises(WalError, match="max_record_bytes"):
            WriteAheadLog(path, max_record_bytes=1024)
        # A generous ceiling accepts the same journal unchanged.
        assert len(list(WriteAheadLog(path, max_record_bytes=65536).replay())) == 2


class TestSingleFileJournalRefused:
    def test_regular_file_at_journal_path_is_refused_untouched(
        self, tmp_path, capsys
    ):
        """A v0 single-file journal is neither replayed, treated as absent,
        nor overwritten: every entry point names the unsupported format."""
        path = tmp_path / "j.wal"
        original = (
            json.dumps({"txn": 1, "ops": [["+", "a", "p", "b"]]}) + "\n"
        ).encode()
        path.write_bytes(original)
        with pytest.raises(WalError, match="v0 single-file journal format"):
            WriteAheadLog(path)
        with pytest.raises(WalError, match="not a journal directory"):
            RdfStore.from_graph(figure1_graph(), wal_path=path)
        status = inspect_wal(path)
        assert status.format == "unsupported"
        assert not status.ok and "not supported" in status.error
        assert main(["wal", "info", str(path)]) == EXIT_WAL
        assert "error (wal)" in capsys.readouterr().err
        assert path.read_bytes() == original
        assert sorted(p.name for p in tmp_path.iterdir()) == ["j.wal"]


class TestDurabilityLevels:
    @pytest.mark.parametrize("durability", ["none", "flush", "fsync"])
    def test_all_levels_round_trip(self, tmp_path, durability):
        path = tmp_path / f"{durability}.wal"
        wal = WriteAheadLog(path, durability=durability)
        wal.append([("+", "a", "p", "b")])
        wal.close()
        assert [txn for txn, _ in WriteAheadLog(path).replay()] == [1]

    def test_default_durability_is_flush(self, tmp_path):
        assert WriteAheadLog(tmp_path / "j.wal").durability == "flush"

    def test_invalid_options_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="durability"):
            WriteAheadLog(tmp_path / "a.wal", durability="eventually")
        with pytest.raises(ValueError, match="recovery"):
            WriteAheadLog(tmp_path / "b.wal", recovery="optimistic")

    def test_fault_hook_sees_every_append_step(self, tmp_path):
        steps: list[str] = []
        wal = WriteAheadLog(
            tmp_path / "j.wal",
            durability="fsync",
            fault_hook=lambda step, payload: steps.append(step),
        )
        wal.append([("+", "a", "p", "b")])
        wal.append([("+", "c", "p", "d")])
        # "fsync" durability syncs every commit, never a batch of them.
        assert steps == 2 * [
            "append.start",
            "append.write",
            "append.flush",
            "append.fsync",
        ]


class TestInspect:
    def test_inspect_absent_and_healthy(self, tmp_path):
        assert inspect_wal(tmp_path / "nope.wal").format == "absent"
        path = tmp_path / "j.wal"
        wal = WriteAheadLog(path)
        wal.append([("+", "a", "p", "b")])
        wal.append([("+", "c", "p", "d")])
        wal.close()
        status = inspect_wal(path)
        assert status.format == "segmented-v1"
        assert status.ok
        assert status.segments == 1
        assert status.records == 2
        assert status.last_txn == 2

    def test_inspect_reports_corruption_without_mutating(self, tmp_path):
        path = tmp_path / "j.wal"
        wal = WriteAheadLog(path)
        wal.append([("+", "a", "p", "b")])
        wal.close()
        segment = _only_segment(path)
        damaged = segment.read_bytes()[:-10] + b"XXXXXXXXX\n"
        segment.write_bytes(damaged)
        status = inspect_wal(path)
        assert not status.ok
        assert segment.name in status.error
        assert segment.read_bytes() == damaged  # read-only, no repair

    @pytest.mark.parametrize(
        "damage, expected_ok",
        [
            ("torn_last_tail", True),
            ("torn_interior_segment", False),
            ("deleted_interior_segment", False),
            ("flipped_crc_byte", False),
            ("newest_checkpoint_corrupt_older_valid", True),
            ("newest_checkpoint_corrupt_segments_compacted", False),
            ("all_checkpoints_corrupt", False),
        ],
    )
    def test_inspect_ok_iff_strict_open_succeeds(
        self, tmp_path, damage, expected_ok
    ):
        """``repro wal info`` and backup verification run the same scan a
        journal open runs, so they never pass a journal the store refuses
        (nor refuse one it opens)."""
        path = tmp_path / "j.wal"
        _DAMAGE[damage](path)
        before = {p.name: p.read_bytes() for p in path.iterdir()}
        ok = inspect_wal(path).ok
        exit_code = main(["wal", "info", str(path)])
        assert {p.name: p.read_bytes() for p in path.iterdir()} == before
        try:
            WriteAheadLog(path, recovery="strict")
            opens = True
        except WalCorruptionError:
            opens = False
        assert ok == opens == expected_ok
        assert exit_code == (0 if ok else EXIT_WAL)


def _flip(file, at):
    data = bytearray(file.read_bytes())
    data[at] ^= 0x01
    file.write_bytes(bytes(data))


def _rotated(path):
    wal = WriteAheadLog(path, segment_max_bytes=64)
    for i in range(6):
        wal.append([("+", f"s{i}", "p", f"o{i}")])
    wal.close()
    segments = _segment_paths(path)
    assert len(segments) >= 3
    return segments


def _two_checkpoints(path, compacted):
    """Checkpoints at txn 2 and 4, then damage the newer one; with
    ``compacted`` the segment holding txns 3..4 is gone too."""
    wal = WriteAheadLog(path)
    wal.append([("+", "a", "p", "b")])
    wal.append([("+", "c", "p", "d")])
    older = pathlib.Path(wal.checkpoint().path)
    older_bytes = older.read_bytes()
    wal.append([("+", "e", "p", "f")])
    wal.append([("+", "g", "p", "h")])
    if compacted:
        wal.checkpoint()
        older.write_bytes(older_bytes)  # as if its unlink never happened
    else:
        def crash(step, payload):
            if step == "compact.unlink":
                raise RuntimeError("killed before compaction")

        wal.fault_hook = crash
        with pytest.raises(RuntimeError):
            wal.checkpoint()
    (newer,) = [p for p in path.glob("checkpoint-*.ckpt") if p != older]
    _flip(newer, len(newer.read_bytes()) // 2)


def _all_checkpoints_corrupt(path):
    wal = WriteAheadLog(path)
    wal.append([("+", "a", "p", "b")])
    ckpt = pathlib.Path(wal.checkpoint().path)
    _flip(ckpt, len(ckpt.read_bytes()) // 2)


def _torn_last_tail(path):
    _rotated(path)
    with open(_segment_paths(path)[-1], "ab") as handle:
        handle.write(b'W1 40 00000000 {"txn"')


def _torn_interior_segment(path):
    interior = _rotated(path)[1]
    interior.write_bytes(interior.read_bytes()[:-5])


def _flipped_crc_byte(path):
    wal = WriteAheadLog(path)
    wal.append([("+", "a", "p", "b")])
    wal.append([("+", "c", "p", "d")])
    wal.close()
    segment = _only_segment(path)
    first_crc_digit = segment.read_bytes().index(b" ", 3) + 1
    _flip(segment, first_crc_digit)


#: builders of damaged journals for the inspect-vs-open equivalence test
_DAMAGE = {
    "torn_last_tail": _torn_last_tail,
    "torn_interior_segment": _torn_interior_segment,
    "deleted_interior_segment": lambda path: _rotated(path)[1].unlink(),
    "flipped_crc_byte": _flipped_crc_byte,
    "newest_checkpoint_corrupt_older_valid": lambda path: _two_checkpoints(
        path, compacted=False
    ),
    "newest_checkpoint_corrupt_segments_compacted": (
        lambda path: _two_checkpoints(path, compacted=True)
    ),
    "all_checkpoints_corrupt": _all_checkpoints_corrupt,
}


class TestStoreRecovery:
    def test_crash_and_reopen_replays_committed_txns(self, tmp_path):
        """The acceptance scenario: kill a store, rebuild from the same
        base data + journal, and observe every committed write again."""
        path = tmp_path / "store.wal"
        store = RdfStore.from_graph(figure1_graph(), wal_path=path)
        with store.transaction() as txn:
            txn.add(t("Ada", "founder", "Analytical_Engines"))
            txn.remove(t("Larry_Page", "founder", "Google"))
        store.update('INSERT DATA { <Grace> <founder> <COBOL_Inc> }')
        expected = store.query(QUERY).canonical()
        del store  # "crash"

        reopened = RdfStore.from_graph(figure1_graph(), wal_path=path)
        assert reopened.query(QUERY).canonical() == expected
        rows = reopened.query(QUERY).key_rows()
        assert ("Ada", "Analytical_Engines") in rows
        assert ("Grace", "COBOL_Inc") in rows
        assert ("Larry_Page", "Google") not in rows

    def test_rolled_back_txn_never_reaches_the_journal(self, tmp_path):
        path = tmp_path / "store.wal"
        store = RdfStore.from_graph(figure1_graph(), wal_path=path)
        with pytest.raises(RuntimeError):
            with store.transaction() as txn:
                txn.add(t("ghost", "p", "x"))
                raise RuntimeError("abort")
        store.add(t("real", "p", "x"))
        reopened = RdfStore.from_graph(figure1_graph(), wal_path=path)
        assert reopened.ask("ASK { <real> <p> <x> }")
        assert not reopened.ask("ASK { <ghost> <p> <x> }")

    def test_replay_bumps_epoch_once(self, tmp_path):
        path = tmp_path / "store.wal"
        store = RdfStore.from_graph(figure1_graph(), wal_path=path)
        for i in range(5):
            store.add(t(f"s{i}", "p", f"o{i}"))

        reopened = RdfStore.from_graph(figure1_graph())
        epoch = reopened.stats.epoch
        assert reopened.attach_wal(path) == 5
        assert reopened.stats.epoch == epoch + 1

    def test_literals_round_trip_through_the_journal(self, tmp_path):
        path = tmp_path / "store.wal"
        store = RdfStore.from_graph(figure1_graph(), wal_path=path)
        store.update(
            'INSERT DATA { <s> <p> "plain" . <s> <q> "typed"^^<http://t> }'
        )
        reopened = RdfStore.from_graph(figure1_graph(), wal_path=path)
        result = reopened.query("SELECT ?o WHERE { <s> ?p ?o }")
        assert sorted(result.canonical()) == [
            ('"plain"',),
            ('"typed"^^<http://t>',),
        ]

    def test_attach_errors(self, tmp_path):
        store = RdfStore.from_graph(figure1_graph(), wal_path=tmp_path / "a.wal")
        with pytest.raises(TransactionError):
            store.attach_wal(tmp_path / "b.wal")  # already attached
        other = RdfStore.from_graph(figure1_graph())
        with other.transaction():
            with pytest.raises(TransactionError):
                other.attach_wal(tmp_path / "c.wal")  # mid-transaction

    def test_report_surfaces_dropped_records(self, tmp_path):
        path = tmp_path / "store.wal"
        store = RdfStore.from_graph(figure1_graph(), wal_path=path)
        store.add(t("a", "p", "b"))
        store.flush_wal()
        segment = _only_segment(path)
        with open(segment, "ab") as handle:
            handle.write(b'W1 20 00000000 {"txn"')  # torn tail
        del store
        reopened = RdfStore.from_graph(figure1_graph(), wal_path=path)
        report = reopened.report()
        assert report.wal_records_dropped == 1
        assert report.wal_segments == 1
        assert report.wal_last_txn == 1
        summary = reopened.wal_summary()
        assert summary["records_dropped"] == 1
        assert summary["last_txn"] == 1
