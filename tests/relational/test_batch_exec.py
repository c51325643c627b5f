"""Chunked executor: guardrail, chunk-size-invariance and guard regressions.

The pipeline moves rows in chunks, so the guardrails must count *logical
rows inside chunks*, not chunks: a 1-row intermediate budget has to trip on
the first chunk of a larger scan, and it must trip mid-query — not after
the scan completed. Results and tick counts must not depend on the chunk
size; sqlite3 is the oracle for the results.
"""

import inspect
import sqlite3

import pytest

from repro.backends.minirel import MiniRelBackend
from repro.core.observe import Span
from repro.core.resilience import Budget, BudgetExceededError
from repro.relational import batch, executor
from repro.relational.catalog import Database
from repro.relational.types import ColumnType

from .test_differential_sqlite import ROWS as EMP, both

CHUNK_SIZES = [1, 64, 256, 1024]

DEPT = [("eng", "nyc", 110), ("sales", "sfo", 95), ("ops", "nyc", 85), ("hr", None, None)]


def build_db(rows: int = 2_000) -> Database:
    db = Database()
    db.create_table("t", [("a", ColumnType.TEXT), ("b", ColumnType.INTEGER)])
    db.insert("t", [(f"v{i}", i) for i in range(rows)])
    return db


@pytest.fixture
def engines():
    """(minirel, sqlite3) over the same rows: a 777-row ``t`` (several
    chunks at every size but 1024) plus small emp/dept join tables."""
    mini = build_db(rows=777)
    mini.create_table(
        "emp",
        [("name", ColumnType.TEXT), ("dept", ColumnType.TEXT), ("salary", ColumnType.INTEGER)],
    )
    mini.insert("emp", EMP)
    mini.create_table(
        "dept",
        [("name", ColumnType.TEXT), ("city", ColumnType.TEXT), ("budget", ColumnType.INTEGER)],
    )
    mini.insert("dept", DEPT)

    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (a TEXT, b INTEGER)")
    lite.executemany("INSERT INTO t VALUES (?,?)", [(f"v{i}", i) for i in range(777)])
    lite.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INTEGER)")
    lite.executemany("INSERT INTO emp VALUES (?,?,?)", EMP)
    lite.execute("CREATE TABLE dept (name TEXT, city TEXT, budget INTEGER)")
    lite.executemany("INSERT INTO dept VALUES (?,?,?)", DEPT)
    return mini, lite


class TestBudgetCountsLogicalRows:
    def test_one_row_budget_trips_mid_batch(self):
        """A 1-row budget must fail a 2000-row scan on its first chunk."""
        db = build_db()
        budget = Budget(max_intermediate_rows=1)
        with pytest.raises(BudgetExceededError):
            db.execute("SELECT a, b FROM t", budget=budget)
        assert budget.tripped == "intermediate"
        # Tripped inside the first chunk: the scan must not have been
        # allowed to run to completion before the budget was checked.
        assert budget.ticks <= batch.CHUNK_SIZE

    def test_large_enough_budget_passes(self):
        db = build_db(rows=300)
        budget = Budget(max_intermediate_rows=10_000)
        result = db.execute("SELECT a, b FROM t", budget=budget)
        assert len(result.rows) == 300
        assert budget.tripped is None

    def test_budget_trips_inside_join_probe(self):
        """Probe-side work counts too, chunk by chunk."""
        db = build_db()
        db.create_table("u", [("a", ColumnType.TEXT)])
        db.insert("u", [(f"v{i}",) for i in range(2_000)])
        db.create_index("u_a", "u", ["a"])
        budget = Budget(max_intermediate_rows=50)
        with pytest.raises(BudgetExceededError):
            db.execute("SELECT t.a FROM t JOIN u ON t.a = u.a", budget=budget)
        assert budget.tripped == "intermediate"


#: (sql, ordered): every operator family — scan+filter (kernel and
#: row-wise), aggregate, hash join, LEFT hash join with a residual, CTE scan
SQL = [
    ("SELECT a, b FROM t WHERE b % 3 = 0 ORDER BY b", True),
    ("SELECT COUNT(*), MIN(a), MAX(b) FROM t", True),
    ("SELECT a FROM t WHERE a = 'v9'", True),
    ("SELECT e.name, d.city FROM emp e JOIN dept d ON e.dept = d.name", False),
    (
        "SELECT e.name, d.city FROM emp e LEFT OUTER JOIN dept d "
        "ON e.dept = d.name AND e.salary < d.budget",
        False,
    ),
    (
        "WITH low AS (SELECT a, b FROM t WHERE b <= 150) "
        "SELECT low.a, e.name FROM low, emp e WHERE low.b = e.salary",
        False,
    ),
]

#: no equi key anywhere: the only plans that reach nested_loop_join_batches
NON_EQUI_SQL = [
    "SELECT e.name, d.name FROM emp e JOIN dept d ON e.salary < d.budget",
    "SELECT e.name, d.name FROM emp e, dept d "
    "WHERE e.salary >= d.budget AND d.city = 'nyc'",
    "SELECT e.name, d.name FROM emp e LEFT OUTER JOIN dept d "
    "ON e.salary < d.budget AND d.city = 'nyc'",
]


class TestChunkSizeInvariance:
    @pytest.mark.parametrize("size", CHUNK_SIZES)
    @pytest.mark.parametrize("sql,ordered", SQL)
    def test_rows_match_sqlite_at_any_chunk_size(
        self, engines, monkeypatch, sql, ordered, size
    ):
        monkeypatch.setattr(batch, "CHUNK_SIZE", size)
        both(engines, sql, ordered=ordered)

    @pytest.mark.parametrize("sql", [sql for sql, _ in SQL] + NON_EQUI_SQL)
    def test_budget_ticks_independent_of_chunk_size(
        self, engines, monkeypatch, sql
    ):
        mini, _ = engines
        ticks = {}
        for size in CHUNK_SIZES:
            monkeypatch.setattr(batch, "CHUNK_SIZE", size)
            budget = Budget(max_intermediate_rows=1_000_000)
            mini.execute(sql, budget=budget)
            ticks[size] = budget.ticks
        assert len(set(ticks.values())) == 1 and ticks[1] > 0, ticks


class TestNestedLoopJoin:
    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("size", [1, 256])
    @pytest.mark.parametrize("sql", NON_EQUI_SQL)
    def test_non_equi_joins_match_sqlite(
        self, engines, monkeypatch, sql, size, traced
    ):
        monkeypatch.setattr(batch, "CHUNK_SIZE", size)
        root = Span("root") if traced else None
        both(engines, sql, trace=root)
        if root is not None:
            join = root.find("nested-loop-join")
            assert join is not None, sql
            assert join.attrs["rows_in_left"] == len(EMP)
            assert 0 < join.attrs["rows_in_right"] <= len(DEPT)
            assert join.attrs["rows_out"] > 0


class TestOneExecutor:
    """The scalar pipeline and the plain-string storage mode are gone; no
    parameter or export may bring a second executor back."""

    @pytest.mark.parametrize("cls", [Database, MiniRelBackend])
    def test_constructors_take_no_mode_parameters(self, cls):
        assert list(inspect.signature(cls.__init__).parameters) == ["self"]

    def test_scalar_operators_are_not_exported(self):
        for name in (
            "seq_scan",
            "index_scan",
            "filter_rows",
            "project_rows",
            "hash_join",
            "index_nested_loop_join",
            "distinct_rows",
        ):
            assert not hasattr(executor, name), name
