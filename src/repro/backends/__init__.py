"""Relational back-ends: the pure-Python engine and stdlib sqlite3."""

from .base import Backend
from .minirel import MiniRelBackend
from .sqlite import SqliteBackend

__all__ = ["Backend", "MiniRelBackend", "SqliteBackend"]
