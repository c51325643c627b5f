"""SQL text parsing: token shapes, precedence, statement forms."""

import pytest

from repro.relational import ast
from repro.relational.parser import parse_expression, parse_query, parse_sql
from repro.relational.errors import SqlSyntaxError
from repro.relational.types import ColumnType


class TestExpressions:
    def test_precedence_and_over_or(self):
        expr = parse_expression("1 = 1 OR 2 = 2 AND 3 = 3")
        assert isinstance(expr, ast.BinOp) and expr.op == "OR"

    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert isinstance(expr.right, ast.BinOp) and expr.right.op == "*"

    def test_string_escape(self):
        expr = parse_expression("'it''s'")
        assert expr == ast.Const("it's")

    def test_not_in(self):
        expr = parse_expression("x NOT IN (1, 2)")
        assert isinstance(expr, ast.InList) and expr.negated

    def test_is_not_null(self):
        expr = parse_expression("x IS NOT NULL")
        assert isinstance(expr, ast.IsNull) and expr.negated

    def test_qualified_column(self):
        assert parse_expression("t.c") == ast.Column("t", "c")

    def test_case(self):
        expr = parse_expression("CASE WHEN a = 1 THEN 'x' ELSE 'y' END")
        assert isinstance(expr, ast.Case)
        assert expr.default == ast.Const("y")

    def test_aggregate_forms(self):
        assert parse_expression("COUNT(*)") == ast.Aggregate("COUNT", None)
        expr = parse_expression("SUM(DISTINCT x)")
        assert isinstance(expr, ast.Aggregate) and expr.distinct

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_expression("1 + 2 extra junk ,")


class TestQueries:
    def test_select_shape(self):
        query = parse_query(
            "SELECT a AS x, b FROM t WHERE a > 1 GROUP BY b HAVING COUNT(*) > 2 "
            "ORDER BY x DESC LIMIT 5 OFFSET 2"
        )
        assert isinstance(query, ast.Select)
        assert query.items[0].alias == "x"
        assert query.group_by
        assert query.having is not None
        assert not query.order_by[0].ascending
        assert (query.limit, query.offset) == (5, 2)

    def test_join_tree(self):
        query = parse_query(
            "SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y"
        )
        join = query.from_
        assert isinstance(join, ast.Join) and join.kind == "LEFT"
        assert isinstance(join.left, ast.Join) and join.left.kind == "INNER"

    def test_with_clause(self):
        query = parse_query("WITH q AS (SELECT 1), r AS (SELECT 2) SELECT * FROM q, r")
        assert isinstance(query, ast.With)
        assert [name for name, _ in query.ctes] == ["q", "r"]

    def test_union_all(self):
        query = parse_query("SELECT 1 UNION ALL SELECT 2 UNION SELECT 3")
        assert isinstance(query, ast.SetOp) and query.op == "UNION"
        assert isinstance(query.left, ast.SetOp) and query.left.op == "UNION ALL"

    def test_subquery_in_from(self):
        query = parse_query("SELECT * FROM (SELECT 1 AS a) AS s")
        assert isinstance(query.from_, ast.SubqueryRef)

    def test_quoted_identifiers(self):
        query = parse_query('SELECT "weird name" FROM "table""quoted"')
        assert query.items[0].expr == ast.Column(None, "weird name")
        assert query.from_.name == 'table"quoted'


class TestStatements:
    def test_create_table(self):
        (statement,) = parse_sql(
            "CREATE TABLE t (a TEXT, b INTEGER, c REAL)"
        )
        assert isinstance(statement, ast.CreateTable)
        assert [c.type for c in statement.columns] == [
            ColumnType.TEXT, ColumnType.INTEGER, ColumnType.REAL,
        ]

    def test_create_index_if_not_exists(self):
        (statement,) = parse_sql("CREATE INDEX IF NOT EXISTS i ON t (a, b)")
        assert isinstance(statement, ast.CreateIndex)
        assert statement.if_not_exists and statement.columns == ("a", "b")

    def test_insert_multi_row(self):
        (statement,) = parse_sql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(statement, ast.Insert)
        assert len(statement.rows) == 2

    def test_update(self):
        (statement,) = parse_sql("UPDATE t SET a = 1, b = b + 1 WHERE c = 'x'")
        assert isinstance(statement, ast.Update)
        assert len(statement.assignments) == 2

    def test_delete(self):
        (statement,) = parse_sql("DELETE FROM t WHERE a IS NULL")
        assert isinstance(statement, ast.Delete)

    def test_multiple_statements(self):
        statements = parse_sql("SELECT 1; SELECT 2;")
        assert len(statements) == 2

    def test_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("FROB THE TABLE")


class TestDropTable:
    def test_parse_drop(self):
        (statement,) = parse_sql("DROP TABLE t")
        assert isinstance(statement, ast.DropTable) and not statement.if_exists

    def test_parse_drop_if_exists(self):
        (statement,) = parse_sql("DROP TABLE IF EXISTS t")
        assert statement.if_exists

    def test_execute_drop(self):
        from repro.relational import Database

        db = Database()
        db.execute("CREATE TABLE t (a TEXT)")
        db.execute("CREATE INDEX i ON t (a)")
        db.execute("DROP TABLE t")
        assert not db.has_table("t")
        assert "i" not in db.indexes
        db.execute("DROP TABLE IF EXISTS t")  # no error

    def test_drop_missing_errors(self):
        from repro.relational import Database
        from repro.relational.errors import CatalogError

        with pytest.raises(CatalogError):
            Database().execute("DROP TABLE nothere")
