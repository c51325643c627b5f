"""Heap tables and hash indexes: maintenance invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.relational.errors import CatalogError, ExecutionError
from repro.relational.index import HashIndex, find_index
from repro.relational.table import Table, TableSchema
from repro.relational.types import ColumnType


def make_table():
    schema = TableSchema("t", [("a", ColumnType.TEXT), ("b", ColumnType.INTEGER)])
    return Table(schema)


class TestTable:
    def test_insert_and_scan(self):
        table = make_table()
        table.insert(("x", 1))
        table.insert(("y", 2))
        assert list(table.scan()) == [("x", 1), ("y", 2)]
        assert len(table) == 2

    def test_arity_checked(self):
        table = make_table()
        with pytest.raises(ExecutionError):
            table.insert(("x",))

    def test_coercion_on_insert(self):
        table = make_table()
        table.insert((5, "7"))
        assert list(table.scan()) == [("5", 7)]

    def test_delete_tombstones(self):
        table = make_table()
        rid = table.insert(("x", 1))
        table.insert(("y", 2))
        table.delete_row(rid)
        assert list(table.scan()) == [("y", 2)]
        assert len(table) == 1
        table.delete_row(rid)  # idempotent
        assert len(table) == 1

    def test_update_row(self):
        table = make_table()
        rid = table.insert(("x", 1))
        table.update_row(rid, ("z", 9))
        assert list(table.scan()) == [("z", 9)]

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [("a", ColumnType.TEXT), ("A", ColumnType.TEXT)])


class TestHashIndex:
    def test_lookup(self):
        table = make_table()
        index = HashIndex("i", table, ["a"])
        table.insert(("x", 1))
        table.insert(("x", 2))
        table.insert(("y", 3))
        assert sorted(index.lookup(("x",))) == [("x", 1), ("x", 2)]
        assert list(index.lookup(("z",))) == []

    def test_index_built_over_existing_rows(self):
        table = make_table()
        table.insert(("x", 1))
        index = HashIndex("i", table, ["a"])
        assert list(index.lookup(("x",))) == [("x", 1)]

    def test_delete_maintains_index(self):
        table = make_table()
        index = HashIndex("i", table, ["a"])
        rid = table.insert(("x", 1))
        table.delete_row(rid)
        assert list(index.lookup(("x",))) == []

    def test_update_maintains_index(self):
        table = make_table()
        index = HashIndex("i", table, ["a"])
        rid = table.insert(("x", 1))
        table.update_row(rid, ("y", 1))
        assert list(index.lookup(("x",))) == []
        assert list(index.lookup(("y",))) == [("y", 1)]

    def test_composite_key(self):
        table = make_table()
        index = HashIndex("i", table, ["a", "b"])
        table.insert(("x", 1))
        assert list(index.lookup(("x", 1))) == [("x", 1)]
        assert list(index.lookup(("x", 2))) == []

    def test_find_index(self):
        table = make_table()
        index = HashIndex("i", table, ["a"])
        assert find_index(table, ["a"]) is index
        assert find_index(table, ["A"]) is index  # case-insensitive
        assert find_index(table, ["b"]) is None
        assert find_index(table, ["a", "b"]) is None

    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.integers(0, 5)), max_size=50
        )
    )
    def test_index_agrees_with_scan(self, rows):
        table = make_table()
        index = HashIndex("i", table, ["a"])
        for row in rows:
            table.insert(row)
        for key in "abc":
            via_index = sorted(index.lookup((key,)))
            via_scan = sorted(r for r in table.scan() if r[0] == key)
            assert via_index == via_scan
