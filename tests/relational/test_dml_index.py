"""Differential DML: minirel's index-probed DELETE / UPDATE vs sqlite3.

A DML WHERE with a ``col = const`` conjunct on an indexed column finds its
rows through the hash index and runs the other conjuncts on that bucket
only; any other WHERE (none, ``col = NULL``, an OR, residuals alone) falls
back to a scan. Hypothesis drives random statement sequences over a tiny
vocabulary, so buckets hold several rows and the residual keeps only part
of them. After every statement the rowcount and the whole table must equal
sqlite's, the rows written must be exactly the rows minirel's own
``SELECT * ... WHERE`` returned just before, and the index's
``probe_count`` must rise exactly when the WHERE allowed a probe.
"""

from __future__ import annotations

import sqlite3

from hypothesis import given, settings, strategies as st

from repro.relational import ColumnType, Database
from repro.relational.dictionary import EncodedString
from repro.relational.parser import parse_sql
from repro.relational.render import render_statement

KEYS = ["a", "b", "c"]
NUMBERS = [0, 1, 2, 3]
VALUES = ["x", "y"]

row_strategy = st.tuples(
    st.sampled_from(KEYS + [None]),
    st.sampled_from(NUMBERS + [None]),
    st.sampled_from(VALUES + [None]),
)


def _quote(text: str) -> str:
    return "'" + text + "'"


@st.composite
def where_clause(draw) -> tuple[str | None, bool]:
    """A WHERE text (None = no WHERE) and whether it allows an index probe."""
    key = _quote(draw(st.sampled_from(KEYS)))
    number = draw(st.sampled_from(NUMBERS))
    residual = draw(st.sampled_from([
        None, f"n > {number}", f"n = {number}", "v IS NULL",
        f"v = {_quote(draw(st.sampled_from(VALUES)))}",
    ]))
    shape = draw(st.sampled_from([
        "indexed", "indexed_flipped", "never_interned", "null", "or",
        "residual_only", "none",
    ]))
    if shape == "none":
        return None, False
    if shape == "null":
        return "k = NULL", False
    if shape == "or":
        return f"k = {key} OR n = {number}", False
    if shape == "residual_only":
        return residual or f"n <> {number}", False
    if shape == "never_interned":
        head = "k = 'never-stored'"
    elif shape == "indexed_flipped":
        head = f"{key} = k"
    else:
        head = f"k = {key}"
    return (head if residual is None else f"{residual} AND {head}"), True


@st.composite
def dml(draw) -> tuple[str, str | None, bool]:
    """(statement text, its WHERE text, probe possible)."""
    where, probes = draw(where_clause())
    if draw(st.booleans()):
        text = "DELETE FROM t"
    else:
        assignments = draw(st.lists(
            st.sampled_from([
                "n = n + 1", "v = 'z'", "k = 'b'", "k = NULL", "v = k",
            ]),
            min_size=1, max_size=2, unique=True,
        ))
        text = "UPDATE t SET " + ", ".join(assignments)
    if where is not None:
        text += f" WHERE {where}"
    return text, where, probes


def _decoded(row: tuple) -> tuple:
    return tuple(
        value.decode() if isinstance(value, EncodedString) else value
        for value in row
    )


def _contents(rows) -> list[tuple]:
    return sorted(rows, key=repr)


def _engines(rows: list[tuple]):
    mini = Database()
    mini.create_table(
        "t",
        [("k", ColumnType.TEXT), ("n", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
    )
    mini.create_index("t_k", "t", ["k"])
    mini.insert("t", rows)
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (k TEXT, n INTEGER, v TEXT)")
    lite.execute("CREATE INDEX t_k ON t (k)")
    lite.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
    return mini, lite


def _recording_writes(table) -> list[tuple]:
    """Record the before-image of every row the next statement writes."""
    written: list[tuple] = []
    delete_row, update_row = table.delete_row, table.update_row

    def recorded_delete(row_id):
        written.append(_decoded(table.rows[row_id]))
        delete_row(row_id)

    def recorded_update(row_id, values):
        written.append(_decoded(table.rows[row_id]))
        update_row(row_id, values)

    table.delete_row, table.update_row = recorded_delete, recorded_update
    return written


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=0, max_size=14),
    statements=st.lists(dml(), min_size=1, max_size=4),
)
def test_index_probed_dml_matches_sqlite(rows, statements):
    mini, lite = _engines(rows)
    table, index = mini.table("t"), mini.indexes["t_k"]
    for text, where, probes in statements:
        select = "SELECT * FROM t" + ("" if where is None else f" WHERE {where}")
        selected = mini.execute(select).rows
        written = _recording_writes(table)
        probes_before = index.probe_count
        (statement,) = parse_sql(text)
        (rowcount,) = mini.execute(statement).rows[0]
        del table.delete_row, table.update_row
        assert index.probe_count - probes_before == (1 if probes else 0), text
        cursor = lite.execute(render_statement(statement))
        assert rowcount == cursor.rowcount, text
        assert _contents(written) == _contents(selected), text
        assert _contents(mini.execute("SELECT * FROM t").rows) == _contents(
            lite.execute("SELECT * FROM t").fetchall()
        ), text

