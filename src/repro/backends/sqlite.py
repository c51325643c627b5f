"""Backend over stdlib sqlite3 (renders ASTs to SQL text).

This backend exists for two reasons: it differentially tests the generated
SQL against an independent, battle-tested engine, and it shows that the
translator's output is plain portable SQL — the paper's central claim that
SPARQL can be compiled down to an ordinary relational database.

Concurrency model: one shared connection (``check_same_thread=False``
behind an RLock) serves latest-state reads and all writes, which the store
serializes into explicit ``BEGIN IMMEDIATE`` … ``COMMIT``/``ROLLBACK``
brackets. Snapshot reads get their own connection each: a WAL read
transaction for file-backed databases (readers never block the writer), or
a ``serialize()``/``deserialize()`` point-in-time copy for in-memory ones.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import Any, Iterable, Sequence

from ..relational import ast
from ..relational.expressions import CUSTOM_FUNCTIONS
from ..relational.render import render_statement
from ..relational.types import ColumnType
from .base import Backend


def _register_functions(connection: sqlite3.Connection, registered: set[str]) -> None:
    """Expose the engine's custom scalar functions to one connection."""
    for name, fn in CUSTOM_FUNCTIONS.items():
        if name in registered:
            continue
        # sqlite3 requires a fixed arity; -1 accepts any.
        connection.create_function(name, -1, fn, deterministic=True)
        registered.add(name)


class SqliteSnapshot:
    """A point-in-time read connection, released via :meth:`release`."""

    #: kept for interface parity with MiniRelSnapshot (sqlite pins state
    #: with a dedicated connection, not a version number)
    version = None

    def __init__(self, connection: sqlite3.Connection, read_txn: bool) -> None:
        self.connection = connection
        self.registered: set[str] = set()
        self.lock = threading.RLock()
        self._read_txn = read_txn
        self._released = False
        _register_functions(connection, self.registered)

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        with self.lock:
            try:
                if self._read_txn:
                    self.connection.execute("ROLLBACK")
            finally:
                self.connection.close()


class SqliteBackend(Backend):
    """In-memory (or file-backed) sqlite3 behind the Backend protocol."""

    name = "sqlite"
    supports_snapshots = True

    #: VM instructions between progress-handler firings (deadline checks)
    PROGRESS_OPS = 10_000
    #: finer granularity when an intermediate-row budget is active: each
    #: firing counts as one work unit against ``max_intermediate_rows``
    PROGRESS_OPS_BUDGET = 1_000

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        # autocommit + explicit write brackets; shared across reader threads
        self.connection = sqlite3.connect(
            path, check_same_thread=False, isolation_level=None
        )
        self._lock = threading.RLock()
        self.connection.execute("PRAGMA synchronous=OFF")
        self._wal_snapshots = False
        if path != ":memory:" and "mode=memory" not in path:
            # WAL lets snapshot connections hold a read transaction without
            # blocking the writer's COMMIT; fall back to serialize() copies
            # when the filesystem refuses WAL.
            mode = self.connection.execute("PRAGMA journal_mode=WAL").fetchone()
            self._wal_snapshots = bool(mode) and str(mode[0]).lower() == "wal"
        self._registered: set[str] = set()
        self._register_functions()

    def _register_functions(self) -> None:
        _register_functions(self.connection, self._registered)

    def create_table(
        self,
        table_name: str,
        columns: Sequence[tuple[str, ColumnType]],
        if_not_exists: bool = False,
    ) -> None:
        statement = ast.CreateTable(
            table_name,
            tuple(ast.ColumnDef(name, column_type) for name, column_type in columns),
            if_not_exists=if_not_exists,
        )
        with self._lock:
            self.connection.execute(render_statement(statement))

    def create_index(
        self, index_name: str, table_name: str, columns: Sequence[str]
    ) -> None:
        statement = ast.CreateIndex(
            index_name, table_name, tuple(columns), if_not_exists=True
        )
        with self._lock:
            self.connection.execute(render_statement(statement))

    def insert_many(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        materialized = [tuple(row) for row in rows]
        if not materialized:
            return 0
        placeholders = ", ".join("?" for _ in materialized[0])
        quoted = '"' + table_name.replace('"', '""') + '"'
        with self._lock:
            self.connection.executemany(
                f"INSERT INTO {quoted} VALUES ({placeholders})", materialized
            )
        return len(materialized)

    def execute(
        self,
        statement: ast.Statement | str,
        budget: Any = None,
        snapshot: Any = None,
        tracer: Any = None,
    ) -> tuple[list[str], list[tuple]]:
        if tracer is not None:
            # Traced: sqlite's own plan (one line per plan node) goes in an
            # ``explain-query-plan`` child span next to the result rowcount.
            with tracer.span(f"{self.name}.execute") as span:
                with tracer.span("explain-query-plan") as plan_span:
                    plan_span.set("plan", self.explain_query_plan(statement))
                columns, rows = self.execute(statement, budget, snapshot)
                span.set("rows_out", len(rows))
            return columns, rows
        if snapshot is not None:
            _register_functions(snapshot.connection, snapshot.registered)
            return self._execute_on(
                snapshot.connection, snapshot.lock, statement, budget
            )
        self._register_functions()  # pick up late registrations
        return self._execute_on(self.connection, self._lock, statement, budget)

    def _execute_on(
        self,
        connection: sqlite3.Connection,
        lock: threading.RLock,
        statement: ast.Statement | str,
        budget: Any,
    ) -> tuple[list[str], list[tuple]]:
        # sql_text memoizes rendering per AST instance: a warm plan-cache hit
        # executes the same AST object repeatedly and skips re-rendering too.
        sql = statement if isinstance(statement, str) else self.sql_text(statement)
        deadline = work_cap = None
        if budget is not None:
            deadline = budget.deadline
            # Best-effort intermediate budget: sqlite cannot count operator
            # rows, so each progress firing (one per PROGRESS_OPS_BUDGET VM
            # instructions) counts as one work unit against the ceiling.
            work_cap = budget.max_intermediate_rows
        guarded = deadline is not None or work_cap is not None
        with lock:
            if guarded:

                def _checker() -> int:
                    if work_cap is not None:
                        budget.ticks += 1
                        if budget.ticks > work_cap:
                            budget.tripped = "intermediate"
                            return 1
                    if deadline is not None and time.monotonic() > deadline:
                        budget.tripped = "timeout"
                        return 1
                    return 0

                ops = (
                    self.PROGRESS_OPS_BUDGET
                    if work_cap is not None
                    else self.PROGRESS_OPS
                )
                connection.set_progress_handler(_checker, ops)
            try:
                cursor = connection.execute(sql)
                rows = cursor.fetchall()
            except sqlite3.OperationalError as exc:
                # Only the budget's handler interrupts a statement.
                if guarded and budget.tripped is not None:
                    budget.raise_tripped(exc)
                raise
            finally:
                if guarded:
                    connection.set_progress_handler(None, 0)
        columns = [d[0] for d in cursor.description] if cursor.description else []
        return columns, rows

    # ------------------------------------------------- write brackets/MVCC

    def begin_write(self) -> None:
        with self._lock:
            self.connection.execute("BEGIN IMMEDIATE")

    def commit_write(self) -> None:
        with self._lock:
            self.connection.execute("COMMIT")

    def abort_write(self) -> None:
        with self._lock:
            self.connection.execute("ROLLBACK")

    def open_snapshot(self) -> SqliteSnapshot:
        with self._lock:
            if self._wal_snapshots:
                connection = sqlite3.connect(
                    self.path, check_same_thread=False, isolation_level=None
                )
                # A deferred transaction plus one read pins the WAL frame
                # this snapshot will keep seeing.
                connection.execute("BEGIN")
                connection.execute(
                    "SELECT COUNT(*) FROM sqlite_master"
                ).fetchone()
                return SqliteSnapshot(connection, read_txn=True)
            data = self.connection.serialize()
        connection = sqlite3.connect(
            ":memory:", check_same_thread=False, isolation_level=None
        )
        connection.deserialize(data)
        return SqliteSnapshot(connection, read_txn=False)

    def explain_query_plan(
        self, statement: ast.Statement | str
    ) -> list[str]:
        """sqlite's ``EXPLAIN QUERY PLAN`` rows, rendered one node per line
        with ``.``-indentation following the plan tree."""
        sql = statement if isinstance(statement, str) else self.sql_text(statement)
        with self._lock:
            cursor = self.connection.execute("EXPLAIN QUERY PLAN " + sql)
            plan_rows = cursor.fetchall()
        depths: dict[int, int] = {0: 0}
        lines: list[str] = []
        for node_id, parent_id, _, detail in plan_rows:
            depth = depths.get(parent_id, 0) + 1
            depths[node_id] = depth
            lines.append("..." * (depth - 1) + detail)
        return lines

    def table_names(self) -> list[str]:
        with self._lock:
            cursor = self.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
            return [row[0] for row in cursor.fetchall()]

    def row_count(self, table_name: str) -> int:
        quoted = '"' + table_name.replace('"', '""') + '"'
        with self._lock:
            cursor = self.connection.execute(f"SELECT COUNT(*) FROM {quoted}")
            return cursor.fetchone()[0]
