"""A pure-Python relational engine: the substrate DB2RDF shreds RDF into.

Public surface:

* :class:`Database` — tables, indexes, ``execute()`` for SQL text or ASTs
* :mod:`repro.relational.ast` — the SQL AST the translator targets
* :func:`render_statement` — AST -> SQL text (the parser, text -> AST,
  is :mod:`repro.relational.parser`; ``Database.execute`` loads it on
  first use)
"""

from . import ast
from .catalog import Database, QueryResult
from .errors import (
    CatalogError,
    ExecutionError,
    PlanError,
    QueryTimeout,
    RelationalError,
    SqlSyntaxError,
)
from .index import HashIndex
from .render import render_expr, render_query, render_statement
from .table import Table, TableSchema
from .types import ColumnType

__all__ = [
    "CatalogError",
    "ColumnType",
    "Database",
    "ExecutionError",
    "HashIndex",
    "PlanError",
    "QueryResult",
    "QueryTimeout",
    "RelationalError",
    "SqlSyntaxError",
    "Table",
    "TableSchema",
    "ast",
    "render_expr",
    "render_query",
    "render_statement",
]
