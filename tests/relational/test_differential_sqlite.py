"""Differential testing: the pure-Python engine vs stdlib sqlite3.

Every query is executed twice — AST directly on minirel, rendered text on
sqlite3 — and results must agree as multisets (or exactly, under ORDER BY).
This is the substrate-level guarantee the RDF translator builds on.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import ColumnType, Database, PlanError
from repro.relational.parser import parse_sql
from repro.relational.render import render_statement

ROWS = [
    ("alice", "eng", 120),
    ("bob", "eng", 100),
    ("carol", "sales", 90),
    ("dave", None, 80),
    ("erin", "eng", None),
    ("frank", None, None),
]

DEPTS = [("eng", "nyc"), ("sales", "sfo"), ("hr", None)]


@pytest.fixture
def engines():
    mini = Database()
    mini.create_table(
        "emp",
        [("name", ColumnType.TEXT), ("dept", ColumnType.TEXT), ("salary", ColumnType.INTEGER)],
    )
    mini.create_index("emp_dept", "emp", ["dept"])
    mini.insert("emp", ROWS)
    mini.create_table("dept", [("name", ColumnType.TEXT), ("city", ColumnType.TEXT)])
    mini.insert("dept", DEPTS)

    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INTEGER)")
    lite.execute("CREATE INDEX emp_dept ON emp (dept)")
    lite.executemany("INSERT INTO emp VALUES (?,?,?)", ROWS)
    lite.execute("CREATE TABLE dept (name TEXT, city TEXT)")
    lite.executemany("INSERT INTO dept VALUES (?,?)", DEPTS)
    return mini, lite


def both(engines, sql_text: str, ordered: bool = False, **mini_kwargs):
    mini, lite = engines
    (statement,) = parse_sql(sql_text)
    mini_rows = mini.execute(statement, **mini_kwargs).rows
    lite_rows = lite.execute(render_statement(statement)).fetchall()
    if ordered:
        assert mini_rows == lite_rows, sql_text
    else:
        assert sorted(mini_rows, key=repr) == sorted(lite_rows, key=repr), sql_text


QUERIES = [
    "SELECT name, dept FROM emp WHERE dept = 'eng'",
    "SELECT * FROM emp WHERE salary > 85 AND dept IS NOT NULL",
    "SELECT * FROM emp WHERE dept = NULL",
    "SELECT e.name, d.city FROM emp e, dept d WHERE e.dept = d.name",
    "SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e ON d.name = e.dept",
    "SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e "
    "ON d.name = e.dept AND e.salary > 100",
    "SELECT d.name FROM dept d LEFT OUTER JOIN emp e ON d.name = e.dept "
    "WHERE e.name IS NULL",
    "SELECT dept, COUNT(*), COUNT(salary), SUM(salary), MIN(name), MAX(salary) "
    "FROM emp GROUP BY dept",
    "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1",
    "SELECT COUNT(DISTINCT dept) FROM emp",
    "SELECT name FROM emp UNION SELECT name FROM dept",
    "SELECT dept FROM emp UNION ALL SELECT name FROM dept",
    "SELECT name FROM emp INTERSECT SELECT 'alice'",
    "SELECT name FROM emp EXCEPT SELECT 'alice'",
    "WITH rich AS (SELECT * FROM emp WHERE salary >= 100) "
    "SELECT r.name, d.city FROM rich r, dept d WHERE r.dept = d.name",
    "SELECT CASE WHEN salary > 100 THEN 'high' WHEN salary > 85 THEN 'mid' "
    "ELSE 'low' END AS band, name FROM emp",
    "SELECT COALESCE(dept, 'none'), name FROM emp",
    "SELECT name FROM emp WHERE name LIKE '%a%'",
    "SELECT name FROM emp WHERE salary IN (80, 100)",
    "SELECT name FROM emp WHERE salary NOT IN (80, 100)",
    "SELECT name, salary * 2 FROM emp WHERE salary IS NOT NULL",
    "SELECT s.n FROM (SELECT name AS n FROM emp WHERE dept = 'eng') AS s",
    "SELECT name FROM emp WHERE salary BETWEEN 85 AND 110",
]

ORDERED_QUERIES = [
    "SELECT name FROM emp ORDER BY name",
    "SELECT name, salary FROM emp ORDER BY salary DESC, name",
    "SELECT name FROM emp ORDER BY name LIMIT 3",
    "SELECT name FROM emp ORDER BY name LIMIT 2 OFFSET 2",
    "SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL ORDER BY dept",
    "SELECT name FROM emp ORDER BY salary",  # NULLs first on both engines
]


@pytest.mark.parametrize("sql_text", QUERIES)
def test_unordered_agreement(engines, sql_text):
    both(engines, sql_text, ordered=False)


@pytest.mark.parametrize("sql_text", ORDERED_QUERIES)
def test_ordered_agreement(engines, sql_text):
    both(engines, sql_text, ordered=True)


@pytest.mark.parametrize(
    "sql_text",
    [
        "SELECT name FROM emp WHERE name = 'nobody' "
        "UNION ALL SELECT name, dept FROM emp",
        "SELECT name FROM emp "
        "UNION ALL SELECT name, city FROM dept WHERE name = 'nowhere'",
    ],
    ids=["empty-left", "empty-right"],
)
def test_setop_arity_mismatch_rejected(engines, sql_text):
    """Set operations compare column counts, even when one side is empty."""
    mini, lite = engines
    (statement,) = parse_sql(sql_text)
    with pytest.raises(PlanError):
        mini.execute(statement)
    with pytest.raises(sqlite3.OperationalError):
        lite.execute(render_statement(statement))


# A tiny random-query generator over one table: projections of simple
# predicates combined with AND/OR, checked against sqlite.
_columns = st.sampled_from(["name", "dept", "salary"])
_values = st.sampled_from(["'alice'", "'eng'", "90", "100", "NULL"])
_ops = st.sampled_from(["=", "<>", "<", ">", "<=", ">="])


@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        column = draw(_columns)
        if draw(st.booleans()):
            return f"{column} IS NULL"
        return f"{column} {draw(_ops)} {draw(_values)}"
    left = draw(predicates(depth=depth - 1))
    right = draw(predicates(depth=depth - 1))
    connector = draw(st.sampled_from(["AND", "OR"]))
    return f"({left} {connector} {right})"


@settings(max_examples=60, deadline=None)
@given(condition=predicates())
def test_random_predicates_match_sqlite(condition):
    mini = Database()
    mini.create_table(
        "emp",
        [("name", ColumnType.TEXT), ("dept", ColumnType.TEXT), ("salary", ColumnType.INTEGER)],
    )
    mini.insert("emp", ROWS)
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INTEGER)")
    lite.executemany("INSERT INTO emp VALUES (?,?,?)", ROWS)

    sql_text = f"SELECT name FROM emp WHERE {condition} ORDER BY name"
    (statement,) = parse_sql(sql_text)
    mini_rows = mini.execute(statement).rows
    lite_rows = lite.execute(render_statement(statement)).fetchall()
    assert mini_rows == lite_rows, sql_text


# Random two-table join queries: join condition, optional LEFT OUTER,
# aggregates — checked against sqlite.
_join_cols = st.sampled_from(["name", "dept"])


@st.composite
def join_queries(draw):
    left_col = draw(_join_cols)
    join_kind = draw(st.sampled_from(["JOIN", "LEFT OUTER JOIN", ","]))
    extra = draw(
        st.sampled_from(
            [
                "",
                "AND e.salary > 90",
                "AND d.city = 'nyc'",
            ]
        )
    )
    where = draw(
        st.sampled_from(
            ["", "WHERE e.salary IS NOT NULL", "WHERE d.city IS NULL OR e.salary > 85"]
        )
    )
    if join_kind == ",":
        condition = f"e.{left_col} = d.name {extra}".strip()
        joined = "emp e, dept d"
        where_clause = f"WHERE {condition}" + (
            f" AND {where[6:]}" if where else ""
        )
        return f"SELECT e.name, d.city FROM {joined} {where_clause}"
    on = f"e.{left_col} = d.name {extra}".strip()
    return (
        f"SELECT e.name, d.city FROM emp e {join_kind} dept d ON {on} {where}"
    )


@settings(max_examples=50, deadline=None)
@given(sql_text=join_queries())
def test_random_joins_match_sqlite(sql_text):
    mini = Database()
    mini.create_table(
        "emp",
        [("name", ColumnType.TEXT), ("dept", ColumnType.TEXT), ("salary", ColumnType.INTEGER)],
    )
    mini.create_index("emp_dept", "emp", ["dept"])
    mini.insert("emp", ROWS)
    mini.create_table("dept", [("name", ColumnType.TEXT), ("city", ColumnType.TEXT)])
    mini.insert("dept", DEPTS)
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INTEGER)")
    lite.executemany("INSERT INTO emp VALUES (?,?,?)", ROWS)
    lite.execute("CREATE TABLE dept (name TEXT, city TEXT)")
    lite.executemany("INSERT INTO dept VALUES (?,?)", DEPTS)

    (statement,) = parse_sql(sql_text)
    mini_rows = sorted(mini.execute(statement).rows, key=repr)
    lite_rows = sorted(lite.execute(render_statement(statement)).fetchall(), key=repr)
    assert mini_rows == lite_rows, sql_text
