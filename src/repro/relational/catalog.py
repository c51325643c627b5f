"""The database catalog: tables, indexes, and the statement entry point."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from . import ast
from .dictionary import StringDictionary
from .errors import CatalogError
from .index import HashIndex
from .mvcc import MvccController
from .table import Table, TableSchema
from .types import ColumnType


class Database:
    """A collection of named tables and indexes plus ``execute()``.

    This is the top-level object of the relational substrate. It can be used
    standalone (``db.execute("SELECT ...")`` with SQL text) or programmatically
    with AST statements, which is how the RDF store drives it.

    Every TEXT value is dictionary-encoded at insert time; results are
    decoded back to text at this ``execute`` boundary, so callers never
    observe ids (late materialization).
    """

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}
        self.indexes: dict[str, HashIndex] = {}
        #: snapshot-read version state shared by every table
        self.mvcc = MvccController()
        self.dictionary = StringDictionary()

    # ------------------------------------------------------------------ DDL

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, ColumnType]],
        if_not_exists: bool = False,
    ) -> Table:
        key = name.lower()
        if key in self.tables:
            if if_not_exists:
                return self.tables[key]
            raise CatalogError(f"table {name!r} already exists")
        table = Table(TableSchema(name, columns))
        table.set_dictionary(self.dictionary)
        self.mvcc.register(table)
        self.tables[key] = table
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self.tables:
            raise CatalogError(f"no table {name!r}")
        table = self.tables.pop(key)
        for index_name in [n for n, i in self.indexes.items() if i.table is table]:
            del self.indexes[index_name]

    def create_index(
        self,
        name: str,
        table_name: str,
        columns: Sequence[str],
        if_not_exists: bool = False,
    ) -> HashIndex:
        key = name.lower()
        if key in self.indexes:
            if if_not_exists:
                return self.indexes[key]
            raise CatalogError(f"index {name!r} already exists")
        index = HashIndex(name, self.table(table_name), columns)
        self.indexes[key] = index
        return index

    def table(self, name: str) -> Table:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    # ------------------------------------------------------------------ DML

    def insert(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        return self.table(table_name).insert_many(rows)

    # ------------------------------------------------------------- execute

    def execute(
        self,
        statement: ast.Statement | str,
        trace: Any = None,
        budget: Any = None,
        version: int | None = None,
    ) -> "QueryResult":
        """Run a statement (AST node or SQL text); returns a QueryResult.

        ``trace`` is an optional parent span (duck-typed, see
        ``repro.core.observe``) under which the planner reports
        per-operator rows-in/rows-out and timings. ``budget`` is an
        optional guardrail object (duck-typed,
        ``repro.core.resilience.Budget``) ticked by every operator loop;
        its deadline and row ceilings are the query's only limits, and a
        trip raises the budget's own typed error.
        ``version`` pins every table scan to an MVCC snapshot version
        (``None`` reads the latest state, pending writes included).
        """
        from .planner import run_statement  # deferred: planner imports catalog

        if isinstance(statement, str):
            from .parser import parse_sql

            results: QueryResult | None = None
            for parsed in parse_sql(statement):
                results = run_statement(self, parsed, trace, budget, version)
            if results is None:
                raise CatalogError("empty SQL script")
            return self._materialize(results)
        return self._materialize(
            run_statement(self, statement, trace, budget, version)
        )

    def _materialize(self, result: "QueryResult") -> "QueryResult":
        """Decode dictionary ids back to text at the result boundary."""
        # Decoded rows no longer honor affinity claims ("TEXT slots hold
        # only ids"); drop them so stale claims cannot leak into planning.
        result.column_types = None
        # Exact-type check against this database's EncodedString subclass:
        # every id in these rows was minted by our dictionary, and type()
        # is measurably cheaper than isinstance() on this per-value path.
        # Decoding runs column-at-a-time: transpose once (zip is a C loop),
        # decode each column in one comprehension, transpose back — instead
        # of detect-and-rebuild tuple work per row.
        cls = self.dictionary.cls
        lexicon = cls.lexicon
        rows = result.rows
        if rows and rows[0]:
            decoded = [
                [lexicon[v] if type(v) is cls else v for v in column]
                for column in zip(*rows)
            ]
            rows[:] = zip(*decoded)
        return result


class QueryResult:
    """Column names plus materialized rows (list of tuples)."""

    def __init__(self, columns: list[str], rows: list[tuple]) -> None:
        self.columns = columns
        self.rows = rows
        #: per-column affinities inferred by the planner (None = unknown);
        #: consumed by filter kernels when this result is scanned as a CTE
        self.column_types: list | None = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"QueryResult(columns={self.columns}, rows={len(self.rows)})"
