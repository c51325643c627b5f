"""Multi-version concurrency control and write brackets for minirel.

The paper assumes the relational back-end provides snapshot reads and
ROLLBACK; DB2 gives them for free, minirel has to earn them. The design
trades write-path generality for a zero-cost read path:

* Row versions live in two side dicts per table — ``born[row_id]`` and
  ``died[row_id]`` — populated **only while a snapshot is pinned**. With no
  pins the write path is byte-for-byte the old one (physical tombstones,
  empty dicts), so the single-threaded query path pays nothing.
* A row is visible at snapshot version ``V`` iff
  ``born.get(rid, 0) <= V`` and (``rid not in died`` or ``died[rid] > V``).
  Latest-state readers only check ``died`` membership, preserving the
  read-your-own-pending-writes semantics transactions rely on.
* One writer at a time (the store's writer lock enforces this); a write
  bracket decides at :meth:`MvccController.begin` whether it must retain
  old versions, and garbage-collects retained versions as soon as the last
  pin drains.
* :meth:`MvccController.abort` is minirel's ROLLBACK. Each table marks its
  row count at ``begin`` and logs the before-image of every physical
  delete or in-place update; abort replays the before-images, revives
  rows that died at the write version and truncates past the mark
  (:meth:`Table.rollback_bracket`). Its cost is the rows the bracket
  touched, and it issues no statements.

Snapshot acquisition happens under the same writer lock, so the pin set
cannot change in the middle of a bracket — the retention decision made at
``begin`` stays valid until ``publish``/``abort``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import Table


class MvccController:
    """Database-wide version state: committed/write versions plus pins.

    ``version`` is the latest published version; ``write_version`` is what
    in-flight writes are tagged with (``version + 1`` inside a bracket).
    ``pin()`` registers a snapshot reader at the current version and
    returns it; ``unpin()`` releases it. Only :meth:`pin`/:meth:`unpin`
    may be called concurrently with a writer — everything else is
    serialized by the store's writer lock.
    """

    def __init__(self) -> None:
        self.version = 0
        self.write_version = 0
        #: True while the current write bracket must retain old versions
        self.tag_writes = False
        self._pins: dict[int, int] = {}
        self._lock = threading.Lock()
        self._tables: list["Table"] = []

    def register(self, table: "Table") -> None:
        table._mvcc = self
        self._tables.append(table)

    # -------------------------------------------------------- write bracket

    def begin(self) -> None:
        """Open a write bracket (caller holds the writer lock)."""
        self.write_version = self.version + 1
        with self._lock:
            pinned = bool(self._pins)
        self.tag_writes = pinned
        if not pinned:
            self._collect(self.version)
        for table in self._tables:
            table.open_bracket()

    def publish(self) -> None:
        """Commit the bracket: writes become the latest version."""
        self.version = self.write_version
        self.tag_writes = False
        for table in self._tables:
            table.close_bracket()
        with self._lock:
            pinned = bool(self._pins)
        if not pinned:
            self._collect(self.version)

    def abort(self) -> None:
        """Close the bracket without publishing: every table returns to
        its state at :meth:`begin`."""
        for table in self._tables:
            table.rollback_bracket(self.write_version)
        self.write_version = self.version
        self.tag_writes = False

    # -------------------------------------------------------------- readers

    def pin(self) -> int:
        """Register a snapshot at the current published version."""
        with self._lock:
            version = self.version
            self._pins[version] = self._pins.get(version, 0) + 1
            return version

    def unpin(self, version: int) -> None:
        with self._lock:
            remaining = self._pins.get(version, 0) - 1
            if remaining > 0:
                self._pins[version] = remaining
            else:
                self._pins.pop(version, None)

    def pinned_versions(self) -> list[int]:
        with self._lock:
            return sorted(self._pins)

    # ------------------------------------------------------------------- GC

    def _collect(self, horizon: int) -> None:
        """Physically drop versions retained for now-closed snapshots.

        Only called from inside the writer lock with zero pins, so no
        reader can be iterating the side dicts concurrently.
        """
        for table in self._tables:
            table.mvcc_gc(horizon)
