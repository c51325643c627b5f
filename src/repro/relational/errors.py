"""Errors raised by the relational engine."""

from __future__ import annotations


class RelationalError(Exception):
    """Base class for all engine errors."""


class CatalogError(RelationalError):
    """Unknown or duplicate table / index / column."""


class SqlSyntaxError(RelationalError):
    """Malformed SQL text."""


class PlanError(RelationalError):
    """A query that parses but cannot be planned (e.g. unknown alias)."""


class ExecutionError(RelationalError):
    """A runtime failure while evaluating a plan."""

