"""The backend protocol: what any relational back-end must provide.

The paper's system sits on DB2; this reproduction runs identically on two
back-ends — the pure-Python engine and stdlib sqlite3 — behind this small
interface. The translator emits SQL ASTs; each backend decides whether to
execute the AST directly or render it to text first.

The surface is stated once. :class:`Backend` declares it — one
``execute`` entry point, traced or not depending on its ``tracer``
argument — and :class:`BackendInterposer` is the one place that forwards
all of it to a wrapped backend, so a wrapper (such as fault injection)
overrides a single ``_around`` hook instead of re-listing every method.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Any, Callable, Iterable, Sequence

from ..relational import ast
from ..relational.types import ColumnType


class RenderMemo:
    """A small bounded memo from SQL AST instance to rendered text.

    Cached query plans hand the *same* immutable AST object to the backend
    on every execution, so re-rendering it to text is pure waste. Keyed by
    object identity (the AST is also kept as the value, so an id can never
    be reused while its entry is alive); bounded LRU to stay O(plans kept).
    """

    def __init__(self, maxsize: int = 64) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[int, tuple[ast.Statement, str]] = OrderedDict()

    def render(self, statement: ast.Statement) -> str:
        key = id(statement)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is statement:
            self._entries.move_to_end(key)
            return entry[1]
        from ..relational.render import render_statement

        text = render_statement(statement)
        self._entries[key] = (statement, text)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return text


class Backend(abc.ABC):
    """Abstract relational back-end used by the RDF store layers."""

    name: str = "abstract"
    #: True when :meth:`open_snapshot` hands out point-in-time read handles
    supports_snapshots: bool = False

    @abc.abstractmethod
    def create_table(
        self,
        table_name: str,
        columns: Sequence[tuple[str, ColumnType]],
        if_not_exists: bool = False,
    ) -> None:
        """Create a table with the given (name, type) columns."""

    @abc.abstractmethod
    def create_index(
        self, index_name: str, table_name: str, columns: Sequence[str]
    ) -> None:
        """Create an equality index."""

    @abc.abstractmethod
    def insert_many(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-insert rows; returns the number inserted."""

    @abc.abstractmethod
    def execute(
        self,
        statement: ast.Statement | str,
        timeout: float | None = None,
        budget: Any = None,
        snapshot: Any = None,
        tracer: Any = None,
    ) -> tuple[list[str], list[tuple]]:
        """Run a statement; returns (column names, rows).

        ``timeout`` is in seconds; expiry raises
        :class:`repro.relational.errors.QueryTimeout` on either backend.
        ``budget`` is an optional guardrail object (duck-typed,
        :class:`repro.core.resilience.Budget`): its deadline and
        intermediate-row ceiling are enforced cooperatively during
        execution and trips raise the typed guardrail errors.
        ``snapshot`` is a handle from :meth:`open_snapshot`; when given,
        the statement reads the point-in-time state the handle pins
        instead of the latest state.
        ``tracer`` is an optional ``repro.core.observe.Tracer`` (duck-typed,
        so backends need no dependency on the observability layer). The
        backend reports its work under a ``<name>.execute`` span: minirel
        meters every operator (``None`` runs the same body with the no-op
        ``NO_TRACE``); sqlite attaches its ``EXPLAIN QUERY PLAN``, a
        statement only a trace reads, so skipped when ``tracer`` is
        ``None``. Rows are identical either way.
        """

    # ------------------------------------------------------ write brackets

    def begin_write(self) -> None:
        """Open a write bracket (one writer at a time, enforced above)."""

    def commit_write(self) -> None:
        """Publish the bracket's writes to new snapshots."""

    def abort_write(self) -> None:
        """Close the bracket without publishing and restore the data to
        its state at :meth:`begin_write`: sqlite by ``ROLLBACK``, minirel
        from its bracket log. This is the store's only data undo."""

    # ----------------------------------------------------------- snapshots

    def open_snapshot(self) -> Any:
        """A point-in-time read handle (pass to ``execute(snapshot=...)``;
        call ``handle.release()`` when done). Only valid between write
        brackets — the store acquires it under the writer lock."""
        raise NotImplementedError(f"{self.name} backend has no snapshot support")

    @abc.abstractmethod
    def table_names(self) -> list[str]:
        """All table names currently in the catalog."""

    @abc.abstractmethod
    def row_count(self, table_name: str) -> int:
        """Number of rows in a table (cheap metadata access)."""

    def sql_text(self, statement: ast.Statement) -> str:
        """Render a statement to this backend's SQL dialect (for EXPLAIN-style
        introspection; both backends share the SQLite-ish dialect). Renders
        of one AST instance are memoized — cached plans re-use their AST."""
        memo = getattr(self, "_render_memo", None)
        if memo is None:
            memo = RenderMemo()
            self._render_memo = memo
        return memo.render(statement)


class BackendInterposer(Backend):
    """A backend that wraps another: the whole surface, forwarded once.

    The four operations that do work on the store's behalf —
    ``create_table``, ``create_index``, ``insert_many``, ``execute`` —
    pass through :meth:`_around`, the single hook a wrapper overrides.
    Everything else (write brackets, snapshots, catalog metadata, SQL
    rendering, backend extras such as ``explain_query_plan`` / ``db`` /
    ``connection``) goes straight to ``inner`` and never reaches the
    hook, so a wrapper's per-operation accounting (fault numbering)
    sees exactly those four.
    """

    def __init__(self, inner: Backend) -> None:
        self.inner = inner

    def _around(self, op: str, call: Callable[[], Any]) -> Any:
        """Run ``call`` (the forwarded operation named ``op``)."""
        return call()

    # ----------------------------------------------------- hooked operations

    def create_table(
        self,
        table_name: str,
        columns: Sequence[tuple[str, ColumnType]],
        if_not_exists: bool = False,
    ) -> None:
        self._around(
            "create_table",
            lambda: self.inner.create_table(table_name, columns, if_not_exists),
        )

    def create_index(
        self, index_name: str, table_name: str, columns: Sequence[str]
    ) -> None:
        self._around(
            "create_index",
            lambda: self.inner.create_index(index_name, table_name, columns),
        )

    def insert_many(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        return self._around(
            "insert_many", lambda: self.inner.insert_many(table_name, rows)
        )

    def execute(
        self,
        statement: ast.Statement | str,
        timeout: float | None = None,
        budget: Any = None,
        snapshot: Any = None,
        tracer: Any = None,
    ) -> tuple[list[str], list[tuple]]:
        return self._around(
            "execute",
            lambda: self.inner.execute(
                statement,
                timeout=timeout,
                budget=budget,
                snapshot=snapshot,
                tracer=tracer,
            ),
        )

    # ------------------------------------------------------ plain forwarding
    # Backend has defaults for these, so ``__getattr__`` would never fire
    # and the inner backend's MVCC machinery would be silently skipped.

    @property
    def supports_snapshots(self) -> bool:  # type: ignore[override]
        return self.inner.supports_snapshots

    def begin_write(self) -> None:
        self.inner.begin_write()

    def commit_write(self) -> None:
        self.inner.commit_write()

    def abort_write(self) -> None:
        self.inner.abort_write()

    def open_snapshot(self) -> Any:
        return self.inner.open_snapshot()

    def table_names(self) -> list[str]:
        return self.inner.table_names()

    def row_count(self, table_name: str) -> int:
        return self.inner.row_count(table_name)

    def sql_text(self, statement: ast.Statement) -> str:
        return self.inner.sql_text(statement)

    def __getattr__(self, attr: str) -> Any:
        # Backend extras (explain_query_plan, connection, db) pass through.
        # ``inner`` itself and dunder probes must not: copy/pickle look
        # attributes up on an instance whose __init__ has not run, and
        # reading ``self.inner`` there would recurse forever.
        if attr == "inner" or (attr.startswith("__") and attr.endswith("__")):
            raise AttributeError(attr)
        return getattr(self.inner, attr)
