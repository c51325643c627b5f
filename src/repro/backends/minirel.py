"""Backend over the pure-Python relational engine (executes ASTs directly)."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..relational import ast
from ..relational.catalog import Database
from ..relational.executor import traced
from ..relational.types import ColumnType
from .base import Backend


class MiniRelSnapshot:
    """A pinned MVCC version; every table scan filters rows against it."""

    __slots__ = ("_mvcc", "version", "_released")

    def __init__(self, mvcc: Any) -> None:
        self._mvcc = mvcc
        self.version: int = mvcc.pin()
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._mvcc.unpin(self.version)


class MiniRelBackend(Backend):
    """The default backend: :class:`repro.relational.Database` in-process.

    TEXT values (RDF term keys) are dictionary-encoded into integer ids
    and decoded only at the result boundary.
    """

    name = "minirel"
    supports_snapshots = True

    def __init__(self) -> None:
        self.db = Database()

    def create_table(
        self,
        table_name: str,
        columns: Sequence[tuple[str, ColumnType]],
        if_not_exists: bool = False,
    ) -> None:
        self.db.create_table(table_name, columns, if_not_exists=if_not_exists)

    def create_index(
        self, index_name: str, table_name: str, columns: Sequence[str]
    ) -> None:
        self.db.create_index(index_name, table_name, columns, if_not_exists=True)

    def insert_many(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        return self.db.insert(table_name, rows)

    def execute(
        self,
        statement: ast.Statement | str,
        budget: Any = None,
        snapshot: Any = None,
        tracer: Any = None,
    ) -> tuple[list[str], list[tuple]]:
        version = None if snapshot is None else snapshot.version
        # The planner meters every operator iterator (scans, joins,
        # filters, set ops, CTEs) into the span.
        with traced(tracer).span(f"{self.name}.execute") as span:
            result = self.db.execute(
                statement, trace=span, budget=budget, version=version
            )
            span.set("rows_out", len(result.rows))
        return result.columns, result.rows

    # ------------------------------------------------- write brackets/MVCC

    def begin_write(self) -> None:
        self.db.mvcc.begin()

    def commit_write(self) -> None:
        self.db.mvcc.publish()

    def abort_write(self) -> None:
        self.db.mvcc.abort()

    def open_snapshot(self) -> MiniRelSnapshot:
        return MiniRelSnapshot(self.db.mvcc)

    def table_names(self) -> list[str]:
        return [table.name for table in self.db.tables.values()]

    def row_count(self, table_name: str) -> int:
        return len(self.db.table(table_name))
