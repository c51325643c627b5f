"""Heap tables: schema, row storage, and insert/delete maintenance."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from .dictionary import StringDictionary
from .errors import CatalogError, ExecutionError
from .types import ColumnType


class TableSchema:
    """Ordered column definitions for a table."""

    def __init__(self, name: str, columns: Sequence[tuple[str, ColumnType]]) -> None:
        self.name = name
        self.column_names = [column_name for column_name, _ in columns]
        self.column_types = [column_type for _, column_type in columns]
        self._positions = {
            column_name.lower(): position
            for position, (column_name, _) in enumerate(columns)
        }
        if len(self._positions) != len(columns):
            raise CatalogError(f"duplicate column name in table {name!r}")

    def position(self, column_name: str) -> int:
        try:
            return self._positions[column_name.lower()]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {column_name!r}"
            ) from None

    def __len__(self) -> int:
        return len(self.column_names)


class Table:
    """A heap table: a schema plus a list of row tuples.

    Deleted rows are tombstoned (set to ``None``) so that row ids held by
    indexes stay stable; :meth:`compact` rebuilds storage when fragmentation
    grows. Indexes attach via :meth:`register_index` and are maintained by
    insert/delete.

    When the owning database has pinned snapshots (``_mvcc.tag_writes``),
    deletes become logical — ``died[row_id]`` records the write version and
    the row stays physically present for snapshot readers — and inserts
    record ``born[row_id]``. Both dicts stay empty with no snapshots open,
    so the unversioned scan path is unchanged.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: list[tuple | None] = []
        self.live_count = 0
        self._indexes: list[Any] = []  # HashIndex instances
        #: version metadata, populated only while snapshots are pinned
        self.born: dict[int, int] = {}
        self.died: dict[int, int] = {}
        self._mvcc: Any = None  # MvccController, set via register()
        #: string dictionary for TEXT columns (None = store plain strings)
        self.dictionary: StringDictionary | None = None
        #: per-column coerce (+encode for TEXT when interning) callables
        self._column_ops: list[Any] = [t.coerce for t in schema.column_types]
        #: count of physical tombstones (None slots) in ``rows``
        self.tombstones = 0

    def set_dictionary(self, dictionary: StringDictionary) -> None:
        """Intern TEXT values of this table through ``dictionary``."""
        self.dictionary = dictionary
        # Bulk load runs this op once per TEXT cell, so the coerce + encode
        # pipeline is fused into a single closure: one Python call per cell,
        # with the interning dict probed directly (allocation only on miss).
        ids_get = dictionary._ids.get
        encode = dictionary.encode

        def text_op(value: Any) -> Any:
            if type(value) is str:
                encoded = ids_get(value)
                return encoded if encoded is not None else encode(value)
            if value is None or isinstance(value, str):
                return value  # NULL, or str subclass stored as-is (lax)
            value = str(value)
            encoded = ids_get(value)
            return encoded if encoded is not None else encode(value)

        self._column_ops = [
            text_op if t is ColumnType.TEXT else t.coerce
            for t in self.schema.column_types
        ]

    @property
    def name(self) -> str:
        return self.schema.name

    def register_index(self, index: Any) -> None:
        self._indexes.append(index)
        index.build(self)

    @property
    def indexes(self) -> list[Any]:
        return list(self._indexes)

    def insert(self, values: Sequence[Any]) -> int:
        """Insert one row (coercing to column affinities); returns its row id."""
        if len(values) != len(self.schema):
            raise ExecutionError(
                f"table {self.name!r} expects {len(self.schema)} values, "
                f"got {len(values)}"
            )
        row = tuple(op(value) for op, value in zip(self._column_ops, values))
        row_id = len(self.rows)
        self.rows.append(row)
        self.live_count += 1
        mvcc = self._mvcc
        if mvcc is not None and mvcc.tag_writes:
            self.born[row_id] = mvcc.write_version
        for index in self._indexes:
            index.insert(row_id, row)
        return row_id

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk :meth:`insert`: one loop with everything hoisted.

        Loading dominates store construction, so this path avoids the
        per-row method call, re-resolving column ops, and the MVCC
        attribute checks that :meth:`insert` performs for each row.
        """
        ops = self._column_ops
        width = len(ops)
        store = self.rows
        indexes = self._indexes
        mvcc = self._mvcc
        tagged = mvcc is not None and mvcc.tag_writes
        born = self.born
        count = 0
        for values in rows:
            if len(values) != width:
                raise ExecutionError(
                    f"table {self.name!r} expects {width} values, "
                    f"got {len(values)}"
                )
            row = tuple([op(value) for op, value in zip(ops, values)])
            row_id = len(store)
            store.append(row)
            if tagged:
                born[row_id] = mvcc.write_version
            for index in indexes:
                index.insert(row_id, row)
            count += 1
        self.live_count += count
        return count

    def delete_row(self, row_id: int) -> None:
        row = self.rows[row_id]
        if row is None or row_id in self.died:
            return
        mvcc = self._mvcc
        if mvcc is not None and mvcc.tag_writes:
            # Logical delete: pinned snapshots still need this version.
            self.died[row_id] = mvcc.write_version
            self.live_count -= 1
            return
        for index in self._indexes:
            index.delete(row_id, row)
        self.rows[row_id] = None
        self.tombstones += 1
        self.live_count -= 1

    def update_row(self, row_id: int, values: Sequence[Any]) -> None:
        old = self.rows[row_id]
        if old is None or row_id in self.died:
            raise ExecutionError(f"row {row_id} of table {self.name!r} is deleted")
        new = tuple(op(value) for op, value in zip(self._column_ops, values))
        mvcc = self._mvcc
        if mvcc is not None and mvcc.tag_writes:
            # Old version stays for snapshot readers; new version is a
            # fresh row id born at the write version.
            write_version = mvcc.write_version
            self.died[row_id] = write_version
            new_id = len(self.rows)
            self.rows.append(new)
            self.born[new_id] = write_version
            for index in self._indexes:
                index.insert(new_id, new)
            return
        for index in self._indexes:
            index.delete(row_id, old)
        self.rows[row_id] = new
        for index in self._indexes:
            index.insert(row_id, new)

    def get(self, row_id: int) -> tuple | None:
        return self.rows[row_id]

    def scan(self) -> Iterator[tuple]:
        """Yield all live rows (the latest state, pending writes included)."""
        if not self.died:
            for row in self.rows:
                if row is not None:
                    yield row
            return
        died = self.died
        for row_id, row in enumerate(self.rows):
            if row is not None and row_id not in died:
                yield row

    def scan_at(self, version: int) -> Iterator[tuple]:
        """Yield rows visible at snapshot ``version``."""
        born, died = self.born, self.died
        for row_id, row in enumerate(self.rows):
            if row is None:
                continue
            if born.get(row_id, 0) > version:
                continue
            death = died.get(row_id)
            if death is not None and death <= version:
                continue
            yield row

    def scan_batches(self, size: int) -> Iterator[list[tuple]]:
        """Yield live rows in lists of up to ``size``.

        The common case — no logical deletes, no tombstones — degenerates to
        plain list slices, which is what makes batched scans cheap: no
        per-row Python-level work at all.
        """
        rows = self.rows
        if not self.died:
            if not self.tombstones:
                for start in range(0, len(rows), size):
                    yield rows[start:start + size]
                return
            for start in range(0, len(rows), size):
                chunk = [row for row in rows[start:start + size] if row is not None]
                if chunk:
                    yield chunk
            return
        died = self.died
        chunk = []
        for row_id, row in enumerate(rows):
            if row is not None and row_id not in died:
                chunk.append(row)
                if len(chunk) >= size:
                    yield chunk
                    chunk = []
        if chunk:
            yield chunk

    def scan_with_ids(self) -> Iterator[tuple[int, tuple]]:
        if not self.died:
            for row_id, row in enumerate(self.rows):
                if row is not None:
                    yield row_id, row
            return
        died = self.died
        for row_id, row in enumerate(self.rows):
            if row is not None and row_id not in died:
                yield row_id, row

    def mvcc_gc(self, horizon: int) -> None:
        """Physically drop versions dead at or before ``horizon``.

        Called only from the MVCC controller with no pinned snapshots and
        the writer lock held.
        """
        if self.died:
            for row_id in [r for r, v in self.died.items() if v <= horizon]:
                row = self.rows[row_id]
                if row is not None:
                    for index in self._indexes:
                        index.delete(row_id, row)
                    self.rows[row_id] = None
                    self.tombstones += 1
                del self.died[row_id]
        if self.born:
            for row_id in [r for r, v in self.born.items() if v <= horizon]:
                del self.born[row_id]

    def compact(self) -> None:
        """Drop tombstones and rebuild all indexes.

        Unsafe while snapshots are pinned (row ids shift); callers compact
        only from quiesced maintenance paths.
        """
        live = [
            row
            for row_id, row in enumerate(self.rows)
            if row is not None and row_id not in self.died
        ]
        self.rows = live
        self.born.clear()
        self.died.clear()
        self.tombstones = 0
        self.live_count = len(self.rows)
        for index in self._indexes:
            index.build(self)

    def __len__(self) -> int:
        return self.live_count
