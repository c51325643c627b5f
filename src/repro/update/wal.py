"""A checksummed, segmented write-ahead journal with durable checkpoints.

The journal is a commit log, not a redo-before-write log: a transaction's
net delta is appended as one framed record *at commit time*, after the
in-memory apply succeeded. A store reopened against the same path replays
the checkpoint (if any) plus every committed record to reconstruct its
write history; anything that never reached ``append`` simply never
happened, which is exactly the rollback semantics the transaction layer
promises.

Layout — ``path`` is a directory, and the directory is the only layout
record (file names carry the sequence and transaction numbers)::

    <path>/
      wal-00000001.seg         # sealed segment (rotated at segment_max_bytes)
      wal-00000002.seg         # active segment (appends go here)
      checkpoint-00000042.ckpt # consolidated prefix of the journal

Each segment record is one line::

    W1 <payload-bytes> <crc32c-hex8> {"txn":3,"ops":[["+","s","p","o"],...]}\\n

The CRC32C covers the JSON payload; the declared length lets recovery
distinguish a torn tail (incomplete final line of the last segment — the
expected footprint of a crash mid-append, truncated with a warning) from
real damage (checksum mismatch, mangled frame, or a gap in the transaction
sequence). One read-only scan (:func:`_scan_journal`) finds and classifies
the first damage; opening a journal applies the ``recovery`` policy to
what it found, and :func:`inspect_wal` only reports it, so ``inspect_wal``
says ok exactly when a strict open succeeds:

* ``"strict"`` (default) raises :class:`WalCorruptionError` naming the
  segment, byte offset, and record index;
* ``"tolerate_tail"`` truncates at the first bad record, drops everything
  after it, and records what was dropped (surfaced via
  :attr:`WriteAheadLog.dropped` and the store's ``wal_records_dropped``).

Durability is configurable per journal: ``"none"`` buffers appends in the
process (fastest; survives only a clean close), ``"flush"`` (default)
pushes every record to the OS (survives process death), ``"fsync"``
forces every commit's record to stable storage (survives power loss).

A checkpoint consolidates the journal's committed prefix — the net
surviving delta of every record up to transaction N — into one
checksummed file, after which the covered segments are deleted
(compaction) and recovery replays only post-checkpoint segments.
Checkpoints are published with write-temp / fsync / atomic-rename
discipline, so a crash between any two steps of checkpoint publication
recovers exactly the committed-prefix state.

Transaction ids are assigned contiguously, one record per transaction, so
recovery can detect holes: a surviving record whose txn id skips past the
expected successor means an interior segment was lost, and a corrupt
checkpoint whose transactions nothing else still covers means they were
lost; no policy tolerates either.

``fault_hook``, when set, is called as ``hook(step, payload)`` at every
step boundary of the write path — ``append.start`` / ``append.write`` /
``append.flush`` / ``append.fsync``, ``rotate.seal``,
``checkpoint.write`` / ``checkpoint.sync`` / ``checkpoint.rename``,
``compact.unlink`` — and may raise to simulate a crash or disk fault at
exactly that point; this is the seam the crash/disk-fault matrices drive.

Replay streams one record at a time: memory is bounded by the largest
single record, never the journal size, and ``max_record_bytes`` caps even
that so a corrupt length field cannot balloon the process.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from .crc import crc32c
from .errors import WalCorruptionError, WalError, WalWriteError

logger = logging.getLogger("repro.update.wal")

#: one journalled operation: ("+"/"-", subject key, predicate IRI, object key)
WalOp = tuple[str, str, str, str]

#: default ceiling on a single journal record (16 MiB) — far above any real
#: commit, low enough that a corrupt record cannot exhaust memory on replay
DEFAULT_MAX_RECORD_BYTES = 16 * 1024 * 1024

#: default segment rotation threshold
DEFAULT_SEGMENT_MAX_BYTES = 4 * 1024 * 1024

_RECORD_MAGIC = b"W1"
_CHECKPOINT_MAGIC = b"C1"
#: generous headroom over max_record_bytes for the frame header
_FRAME_OVERHEAD = 64

DURABILITY_LEVELS = ("none", "flush", "fsync")
RECOVERY_POLICIES = ("strict", "tolerate_tail")


def _segment_name(seq: int) -> str:
    return f"wal-{seq:08d}.seg"


def _checkpoint_name(txn: int) -> str:
    return f"checkpoint-{txn:08d}.ckpt"


def _frame(magic: bytes, payload: bytes) -> bytes:
    return b"%s %d %08x " % (magic, len(payload), crc32c(payload)) + payload + b"\n"


def _fsync_dir(path: Path) -> None:
    """Make a directory entry change (create/rename/unlink) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir fsync
        pass
    finally:
        os.close(fd)


# ------------------------------------------------------------------ metadata


@dataclass(frozen=True)
class DroppedRecord:
    """One discarded journal record, kept for observability."""

    segment: str  #: segment file path
    offset: int  #: byte offset where the bad data starts
    index: int  #: 1-based record number within the segment
    reason: str


@dataclass
class SegmentInfo:
    """Verified shape of one on-disk segment."""

    seq: int
    path: Path
    records: int = 0
    size: int = 0


@dataclass(frozen=True)
class _Damage:
    """The first damage a journal scan hit.

    ``kind`` is ``"torn"`` (incomplete final line of the *last* segment —
    a crash footprint every policy truncates), ``"corrupt"`` (anything
    else wrong with a record — the recovery policy decides) or ``"gap"``
    (committed transactions are missing — no policy tolerates it).
    """

    kind: str
    message: str
    segment: Path
    offset: int | None = None
    index: int | None = None
    reason: str = ""


@dataclass
class JournalScan:
    """What one read-only pass over a journal directory found.

    Held as :attr:`WriteAheadLog.last_recovery` — the checkpoint-bounding
    proof of the last open.
    """

    checkpoint_txn: int = 0
    checkpoint_ops: int = 0
    checkpoint_path: Path | None = None
    #: unreadable checkpoints newer than the one in use, newest first
    corrupt_checkpoints: list[Path] = field(default_factory=list)
    #: every segment up to and including the damaged one, sized to its
    #: last intact record
    segments: list[SegmentInfo] = field(default_factory=list)
    #: segments after the damaged one (``tolerate_tail`` parks them)
    after_damage: list[Path] = field(default_factory=list)
    segment_records: int = 0  #: post-checkpoint records (what replay yields)
    records_skipped: int = 0  #: segment records covered by the checkpoint
    last_txn: int = 0
    damage: _Damage | None = None


@dataclass
class CheckpointInfo:
    """Result of one :meth:`WriteAheadLog.checkpoint` call."""

    txn: int  #: last transaction the checkpoint covers
    ops: int  #: consolidated operations it holds
    segments_removed: int
    path: str


@dataclass
class WalStatus:
    """Read-only health summary (see :func:`inspect_wal`)."""

    path: str
    format: str  #: "segmented-v1" | "unsupported" | "absent"
    segments: int = 0
    records: int = 0
    last_txn: int = 0
    checkpoint_txn: int = 0
    checkpoint_ops: int = 0
    tail_torn: bool = False
    ok: bool = True
    error: str | None = None


class _ScanProblem(Exception):
    """Internal: a segment scan hit a bad record.

    ``torn`` means an incomplete final line at EOF — the one shape of
    damage that is an expected crash footprint rather than corruption.
    """

    def __init__(self, offset: int, index: int, reason: str, torn: bool) -> None:
        super().__init__(reason)
        self.offset = offset
        self.index = index
        self.reason = reason
        self.torn = torn

    def describe(self, path: Path) -> str:
        return (
            f"corrupt journal record in {path} at offset {self.offset} "
            f"(record {self.index}): {self.reason}"
        )


@dataclass(frozen=True)
class _Record:
    txn: int
    ops: list[WalOp]
    offset: int
    index: int


# ----------------------------------------------------------------- scanning


def _parse_ops(raw: Any) -> list[WalOp]:
    ops = [(str(tag), str(s), str(p), str(o)) for tag, s, p, o in raw]
    for op in ops:
        if op[0] not in ("+", "-"):
            raise ValueError(f"unknown operation tag {op[0]!r}")
    return ops


def _read_frame(
    handle: Any, magic: bytes, max_record_bytes: int, offset: int, index: int
) -> bytes | None:
    """Read and verify one framed line; returns the payload bytes.

    Returns None at clean EOF; raises :class:`_ScanProblem` on damage.
    """
    cap = max_record_bytes + _FRAME_OVERHEAD
    line = handle.readline(cap + 1)
    if not line:
        return None
    if not line.endswith(b"\n"):
        rest = handle.read(1)
        if len(line) > cap or rest:
            raise _ScanProblem(
                offset, index,
                f"record exceeds max_record_bytes={max_record_bytes}",
                torn=False,
            )
        raise _ScanProblem(offset, index, "incomplete record at end of file",
                           torn=True)
    parts = line.split(b" ", 3)
    if len(parts) != 4 or parts[0] != magic:
        raise _ScanProblem(offset, index, "mangled record frame", torn=False)
    try:
        declared = int(parts[1])
        checksum = int(parts[2], 16)
    except ValueError:
        raise _ScanProblem(offset, index, "mangled record header",
                           torn=False) from None
    if declared > max_record_bytes:
        raise _ScanProblem(
            offset, index,
            f"record of {declared} bytes exceeds "
            f"max_record_bytes={max_record_bytes}",
            torn=False,
        )
    payload = parts[3][:-1]
    if len(payload) != declared:
        raise _ScanProblem(
            offset, index,
            f"record length mismatch (declared {declared}, "
            f"found {len(payload)})",
            torn=False,
        )
    if crc32c(payload) != checksum:
        raise _ScanProblem(
            offset, index,
            f"checksum mismatch (expected {checksum:08x}, "
            f"computed {crc32c(payload):08x})",
            torn=False,
        )
    return payload


class _SegmentScan:
    """Stream the verified records of one segment file.

    After iteration, ``problem`` holds the first damage hit (or None) and
    ``clean_bytes`` the offset where it starts (== file size when clean).
    """

    def __init__(self, path: Path, max_record_bytes: int) -> None:
        self.path = path
        self.max_record_bytes = max_record_bytes
        self.problem: _ScanProblem | None = None
        self.clean_bytes = 0

    def records(self) -> Iterator[_Record]:
        with open(self.path, "rb") as handle:
            offset = 0
            index = 0
            while True:
                index += 1
                try:
                    payload = _read_frame(
                        handle, _RECORD_MAGIC, self.max_record_bytes,
                        offset, index,
                    )
                except _ScanProblem as problem:
                    self.problem = problem
                    return
                if payload is None:
                    return
                try:
                    decoded = json.loads(payload)
                    record = _Record(
                        txn=int(decoded["txn"]),
                        ops=_parse_ops(decoded["ops"]),
                        offset=offset,
                        index=index,
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    # The CRC matched, so this is a writer bug or hand
                    # edit, not bit rot — still damage, never a torn tail.
                    self.problem = _ScanProblem(
                        offset, index, f"undecodable record: {exc}", torn=False
                    )
                    return
                offset = handle.tell()
                self.clean_bytes = offset
                yield record


# ---------------------------------------------------------------- the scan


def _not_a_directory(path: Path) -> str:
    return (
        f"{path} is a regular file, not a journal directory: the v0 "
        "single-file journal format is not supported"
    )


def _segment_paths(directory: Path) -> list[Path]:
    return sorted(directory.glob("wal-*.seg"))


def _checkpoint_paths(directory: Path) -> list[Path]:
    return sorted(directory.glob("checkpoint-*.ckpt"))


def _read_checkpoint(
    path: Path, max_record_bytes: int
) -> tuple[int, list[WalOp], dict[str, Any]]:
    """Verify and decode a checkpoint file: (txn, ops, meta)."""
    with open(path, "rb") as handle:
        try:
            payload = _read_frame(
                handle, _CHECKPOINT_MAGIC, max(max_record_bytes, 1 << 30), 0, 1
            )
        except _ScanProblem as problem:
            raise WalCorruptionError(
                f"corrupt checkpoint {path}: {problem.reason}",
                segment=str(path), offset=problem.offset, index=problem.index,
            ) from None
    if payload is None:
        raise WalCorruptionError(
            f"corrupt checkpoint {path}: empty file", segment=str(path)
        )
    try:
        decoded = json.loads(payload)
        return (
            int(decoded["txn"]),
            _parse_ops(decoded["ops"]),
            dict(decoded.get("meta", {})),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise WalCorruptionError(
            f"corrupt checkpoint {path}: {exc}", segment=str(path)
        ) from exc


def _scan_journal(directory: Path, max_record_bytes: int) -> JournalScan:
    """One side-effect-free pass over a journal directory.

    Picks the newest valid checkpoint, then walks every segment in order
    verifying frames, checksums and txn-id continuity, and stops at the
    first damage. Falling back past a corrupt checkpoint is safe because
    segments are only deleted after a newer checkpoint is durable and
    replay skips covered records; the continuity check (plus the corrupt
    checkpoint's own txn number, from its name) catches the case where
    the fallback cannot reach every committed transaction.
    """
    scan = JournalScan()
    for path in reversed(_checkpoint_paths(directory)):
        try:
            txn, ops, _meta = _read_checkpoint(path, max_record_bytes)
        except WalCorruptionError:
            scan.corrupt_checkpoints.append(path)
            continue
        scan.checkpoint_txn, scan.checkpoint_ops = txn, len(ops)
        scan.checkpoint_path = path
        break
    expected = scan.checkpoint_txn
    paths = _segment_paths(directory)
    for position, seg_path in enumerate(paths):
        segment = SegmentInfo(
            seq=int(seg_path.name[len("wal-"):-len(".seg")]), path=seg_path
        )
        scan.segments.append(segment)
        reader = _SegmentScan(seg_path, max_record_bytes)
        for record in reader.records():
            if record.txn > expected + 1:
                scan.damage = _Damage(
                    "gap",
                    f"journal {directory} is missing transactions "
                    f"{expected + 1}..{record.txn - 1} (found txn "
                    f"{record.txn} in {seg_path.name} after txn {expected})",
                    seg_path, record.offset, record.index,
                )
                break
            expected = max(expected, record.txn)
            segment.records += 1
            if record.txn <= scan.checkpoint_txn:
                scan.records_skipped += 1
            else:
                scan.segment_records += 1
        segment.size = reader.clean_bytes
        problem = reader.problem
        if scan.damage is None and problem is not None:
            torn = problem.torn and position == len(paths) - 1
            scan.damage = _Damage(
                "torn" if torn else "corrupt", problem.describe(seg_path),
                seg_path, problem.offset, problem.index, problem.reason,
            )
        if scan.damage is not None:
            scan.after_damage = paths[position + 1:]
            break
    scan.last_txn = expected
    if scan.corrupt_checkpoints and (
        scan.damage is None or scan.damage.kind == "torn"
    ):
        newest = scan.corrupt_checkpoints[0]
        horizon = int(newest.name[len("checkpoint-"):-len(".ckpt")])
        if horizon > expected:
            scan.damage = _Damage(
                "gap",
                f"journal {directory} is missing transactions "
                f"{expected + 1}..{horizon} (checkpoint {newest.name} is "
                "corrupt and no older checkpoint or segment covers them)",
                newest,
            )
    return scan


def inspect_wal(
    path: str | os.PathLike,
    max_record_bytes: int = DEFAULT_MAX_RECORD_BYTES,
) -> WalStatus:
    """Read-only health check: never repairs, never raises.

    Runs the scan a journal open runs and reports what it found — the
    engine behind ``repro wal info`` and backup verification. ``ok`` is
    True exactly when a ``strict`` open would succeed: no damage, or only
    a torn tail of the last segment (which the open truncates).
    """
    target = Path(path)
    if not target.exists():
        return WalStatus(path=str(target), format="absent")
    if target.is_file():
        return WalStatus(
            path=str(target), format="unsupported", ok=False,
            error=_not_a_directory(target),
        )
    scan = _scan_journal(target, max_record_bytes)
    damage = scan.damage
    torn = damage is not None and damage.kind == "torn"
    return WalStatus(
        path=str(target),
        format="segmented-v1",
        segments=len(scan.segments),
        records=scan.segment_records + scan.records_skipped,
        last_txn=scan.last_txn,
        checkpoint_txn=scan.checkpoint_txn,
        checkpoint_ops=scan.checkpoint_ops,
        tail_torn=torn,
        ok=damage is None or torn,
        error=None if damage is None or torn else damage.message,
    )


# -------------------------------------------------------------------- journal


class WriteAheadLog:
    """A durable, replayable, checksummed journal rooted at ``path``.

    ``path`` is the journal *directory* (created on first use); a regular
    file there — e.g. a v0 single-file journal — is refused with
    :class:`WalError` and left untouched. ``durability`` defaults to
    ``"flush"``.

    ``checkpoint_every_bytes`` / ``checkpoint_every_records`` arm
    :meth:`should_checkpoint`, which the transaction layer consults after
    each commit to trigger automatic checkpoint + compaction.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        max_record_bytes: int = DEFAULT_MAX_RECORD_BYTES,
        fault_hook: Callable[[str, dict[str, Any]], None] | None = None,
        durability: str | None = None,
        recovery: str = "strict",
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        checkpoint_every_bytes: int | None = None,
        checkpoint_every_records: int | None = None,
    ) -> None:
        self.path = Path(path)
        if durability is None:
            durability = "flush"
        if durability not in DURABILITY_LEVELS:
            raise ValueError(
                f"unknown durability {durability!r} (use one of "
                f"{'/'.join(DURABILITY_LEVELS)})"
            )
        if recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"unknown recovery policy {recovery!r} (use one of "
                f"{'/'.join(RECOVERY_POLICIES)})"
            )
        self.durability = durability
        self.recovery = recovery
        self.max_record_bytes = max_record_bytes
        self.segment_max_bytes = segment_max_bytes
        self.checkpoint_every_bytes = checkpoint_every_bytes
        self.checkpoint_every_records = checkpoint_every_records
        self.fault_hook = fault_hook

        self._handle: Any = None
        #: every record discarded by recovery, in discovery order
        self.dropped: list[DroppedRecord] = []
        self._open_journal()

    # ----------------------------------------------------------- properties

    @property
    def last_txn(self) -> int:
        """Id of the most recently committed transaction (0 when empty)."""
        return self._next_txn - 1

    @property
    def checkpoint_txn(self) -> int:
        """Last transaction covered by the active checkpoint (0 = none)."""
        return self._checkpoint_txn

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def record_count(self) -> int:
        """Records currently held in segments (post-checkpoint)."""
        return sum(seg.records for seg in self._segments)

    @property
    def records_dropped(self) -> int:
        return len(self.dropped)

    # ----------------------------------------------------------------- hooks

    def _fire(self, step: str, **payload: Any) -> None:
        if self.fault_hook is not None:
            self.fault_hook(step, payload)

    # ------------------------------------------------------------------ open

    def _open_journal(self) -> None:
        """Scan the directory and apply the recovery policy to the first
        damage: raise, truncate the damaged segment, or park the segments
        after it as ``.seg.dropped``. Fires no fault-hook step."""
        if self.path.is_file():
            raise WalError(_not_a_directory(self.path))
        self.path.mkdir(parents=True, exist_ok=True)
        for stale in self.path.glob("*.tmp"):
            stale.unlink()  # unpublished writes from a crashed process
        scan = _scan_journal(self.path, self.max_record_bytes)
        damage = scan.damage
        if damage is not None and (
            damage.kind == "gap"
            or (damage.kind == "corrupt" and self.recovery == "strict")
        ):
            raise WalCorruptionError(
                damage.message, segment=str(damage.segment),
                offset=damage.offset, index=damage.index,
            )
        for path in scan.corrupt_checkpoints:
            logger.warning(
                "journal %s: ignoring corrupt checkpoint %s (its "
                "transactions are still covered)", self.path, path.name,
            )
        if damage is not None:
            # A torn tail, or corruption under tolerate_tail: truncate at
            # the first bad record and park every later segment.
            self.dropped.append(DroppedRecord(
                str(damage.segment), damage.offset, damage.index, damage.reason
            ))
            with open(damage.segment, "rb+") as handle:
                handle.truncate(damage.offset)
            for later in scan.after_damage:
                self.dropped.append(
                    DroppedRecord(str(later), 0, 1, "follows a corrupt segment")
                )
                later.rename(later.with_suffix(".seg.dropped"))
        for dropped in self.dropped:
            logger.warning(
                "journal %s: dropping record %d at offset %d (%s)",
                dropped.segment, dropped.index, dropped.offset, dropped.reason,
            )
        self._segments = scan.segments
        self._checkpoint_txn = scan.checkpoint_txn
        self._checkpoint_path = scan.checkpoint_path
        self._next_txn = scan.last_txn + 1
        self.last_recovery = scan

    # ------------------------------------------------------------- appending

    def _active_segment(self) -> SegmentInfo:
        if self._segments and self._segments[-1].size < self.segment_max_bytes:
            return self._segments[-1]
        seq = self._segments[-1].seq + 1 if self._segments else 1
        segment = SegmentInfo(seq=seq, path=self.path / _segment_name(seq))
        # No fault-hook step here: a crash with the file created but the
        # record unwritten is indistinguishable from one at append.start.
        with open(segment.path, "wb"):
            pass
        _fsync_dir(self.path)
        self._segments.append(segment)
        return segment

    def _segment_handle(self, segment: SegmentInfo) -> Any:
        if self._handle is not None and self._handle.name == str(segment.path):
            return self._handle
        self._close_handle()
        # "none" buffers appends in the process; the durable levels write
        # straight through so a record is OS-durable the moment the write
        # returns (the crash matrix's append.flush expectation).
        buffering = -1 if self.durability == "none" else 0
        self._handle = open(segment.path, "ab", buffering=buffering)
        return self._handle

    def _close_handle(self) -> None:
        if self._handle is None:
            return
        try:
            self._handle.close()
        finally:
            self._handle = None

    def append(self, ops: Sequence[WalOp]) -> int:
        """Journal one committed transaction; returns its id.

        On a disk fault (ENOSPC, I/O error, failed fsync) the partial
        record is truncated away and :class:`WalWriteError` raised — the
        journal stays valid and holds exactly the committed prefix.
        """
        txn_id = self._next_txn
        payload = json.dumps(
            {"txn": txn_id, "ops": [list(op) for op in ops]},
            separators=(",", ":"),
        ).encode("utf-8")
        if len(payload) > self.max_record_bytes:
            raise WalWriteError(
                f"refusing to journal a {len(payload)}-byte record "
                f"(max_record_bytes={self.max_record_bytes})"
            )
        data = _frame(_RECORD_MAGIC, payload)
        self._fire("append.start", txn=txn_id)
        segment = self._active_segment()
        handle = self._segment_handle(segment)
        offset = segment.size
        try:
            self._fire(
                "append.write", txn=txn_id, data=data, handle=handle,
                offset=offset,
            )
            handle.write(data)
            if self.durability != "none":
                self._fire("append.flush", txn=txn_id)
                handle.flush()
            if self.durability == "fsync":
                self._fire(
                    "append.fsync", txn=txn_id, data=data, handle=handle,
                    offset=offset,
                )
                os.fsync(handle.fileno())
        except OSError as exc:
            self._unwind_partial_append(handle, offset)
            raise WalWriteError(
                f"journal append for txn {txn_id} failed: {exc}"
            ) from exc
        segment.size = offset + len(data)
        segment.records += 1
        self._next_txn = txn_id + 1
        if segment.size >= self.segment_max_bytes:
            self._rotate()
        return txn_id

    def _unwind_partial_append(self, handle: Any, offset: int) -> None:
        """Erase whatever prefix of a failed append reached the file."""
        try:
            try:
                handle.flush()
            except OSError:
                pass
            os.ftruncate(handle.fileno(), offset)
        except OSError:  # pragma: no cover - second fault while unwinding
            logger.exception(
                "journal %s: could not truncate a failed append; the tail "
                "will be dropped as torn on the next open", self.path,
            )

    def _rotate(self) -> None:
        """Seal the active segment; the next append opens a fresh one."""
        self._fire("rotate.seal", segment=self._segments[-1].path.name)
        try:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            self._close_handle()
        except OSError as exc:
            # Rotation is advisory — the record is already durable, so a
            # fault here must not fail the commit that triggered it.
            logger.warning("journal %s: segment rotation failed: %s",
                           self.path, exc)

    # ---------------------------------------------------------------- replay

    def replay(self) -> Iterator[tuple[int, list[WalOp]]]:
        """Yield ``(txn_id, ops)`` for the whole committed history.

        The checkpoint (if any) comes first as one consolidated entry,
        then every post-checkpoint record in commit order. Streams one
        record at a time; calling it again re-reads from disk and yields
        the same history (replay is idempotent).
        """
        if self._checkpoint_path is not None:
            txn, ops, _meta = _read_checkpoint(
                self._checkpoint_path, self.max_record_bytes
            )
            yield txn, ops
        for segment in list(self._segments):
            scan = _SegmentScan(segment.path, self.max_record_bytes)
            for record in scan.records():
                if record.txn <= self._checkpoint_txn:
                    continue
                yield record.txn, record.ops
            problem = scan.problem
            if problem is not None and not problem.torn:
                # Damage that appeared after the open-time repair pass.
                raise WalCorruptionError(
                    problem.describe(segment.path), segment=str(segment.path),
                    offset=problem.offset, index=problem.index,
                )

    # ------------------------------------------------------------ durability

    def flush(self) -> None:
        """Push buffered appends to the OS (a no-op at durable levels)."""
        if self._handle is not None:
            self._handle.flush()

    def sync_to_disk(self) -> None:
        """Force everything appended so far onto stable storage."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush, fsync, and release the active segment handle."""
        if self._handle is not None:
            try:
                self.sync_to_disk()
            finally:
                self._close_handle()

    # ------------------------------------------------------------ checkpoint

    def should_checkpoint(self) -> bool:
        """True when the auto-checkpoint policy says it is time."""
        if self.checkpoint_every_records is not None:
            if self.record_count >= self.checkpoint_every_records:
                return True
        if self.checkpoint_every_bytes is not None:
            if sum(seg.size for seg in self._segments) >= self.checkpoint_every_bytes:
                return True
        return False

    def checkpoint(self, meta: dict[str, Any] | None = None) -> CheckpointInfo:
        """Consolidate the committed prefix and compact covered segments.

        The net surviving delta of the old checkpoint plus every segment
        record is written to a new checksummed checkpoint file
        (write-temp, fsync, atomic rename), and only then are the covered
        segments and the superseded checkpoint deleted. Every step is
        crash-safe: recovery is scan-based and filters replay by the
        checkpoint's transaction id, so a kill between any two steps still
        recovers the exact committed state. The caller must hold the
        store's writer bracket (no concurrent commits).
        """
        last = self.last_txn
        if last <= 0:
            return CheckpointInfo(txn=0, ops=0, segments_removed=0, path="")
        net: dict[tuple[str, str, str], str] = {}
        for _txn, ops in self.replay():
            for tag, s, p, o in ops:
                net[(s, p, o)] = tag
        ops_out = [[tag, s, p, o] for (s, p, o), tag in net.items()]
        payload = json.dumps(
            {"txn": last, "ops": ops_out, "meta": meta or {}},
            separators=(",", ":"),
        ).encode("utf-8")

        target = self.path / _checkpoint_name(last)
        tmp = self.path / (_checkpoint_name(last) + ".tmp")
        self._fire("checkpoint.write", txn=last, path=str(tmp))
        with open(tmp, "wb") as handle:
            handle.write(_frame(_CHECKPOINT_MAGIC, payload))
            handle.flush()
            self._fire("checkpoint.sync", txn=last)
            os.fsync(handle.fileno())
        self._fire("checkpoint.rename", txn=last, path=str(target))
        os.replace(tmp, target)
        _fsync_dir(self.path)

        old_segments = self._segments
        old_checkpoint = self._checkpoint_path
        self._close_handle()
        self._segments = []
        self._checkpoint_txn = last
        self._checkpoint_path = target

        removed = 0
        for segment in old_segments:
            self._fire("compact.unlink", segment=segment.path.name)
            segment.path.unlink()
            removed += 1
        if old_checkpoint is not None and old_checkpoint != target:
            self._fire("compact.unlink", segment=old_checkpoint.name)
            old_checkpoint.unlink()
        _fsync_dir(self.path)
        logger.info(
            "journal %s: checkpoint at txn %d (%d op(s)), removed %d "
            "segment(s)", self.path, last, len(ops_out), removed,
        )
        return CheckpointInfo(
            txn=last, ops=len(ops_out), segments_removed=removed,
            path=str(target),
        )

    # ---------------------------------------------------------------- backup

    def backup_to(self, dest: str | os.PathLike) -> WalStatus:
        """Copy the journal into ``dest`` and verify the copy's checksums.

        The caller must hold the store's writer lock so no commit mutates
        the layout mid-copy; concurrent *readers* are unaffected. The copy
        is verified by the same scan a journal open runs (via
        :func:`inspect_wal`). Returns its :class:`WalStatus`; raises
        :class:`WalCorruptionError` if the copy fails verification.
        """
        target = Path(dest)
        target.mkdir(parents=True, exist_ok=True)
        if any(target.iterdir()):
            raise WalError(f"backup destination {target} is not empty")
        self.sync_to_disk()
        if self._checkpoint_path is not None:
            shutil.copyfile(
                self._checkpoint_path, target / self._checkpoint_path.name
            )
        for segment in self._segments:
            shutil.copyfile(segment.path, target / segment.path.name)
        _fsync_dir(target)
        status = inspect_wal(target, self.max_record_bytes)
        if not status.ok:
            raise WalCorruptionError(
                f"backup verification failed: {status.error}",
                segment=status.error,
            )
        return status
