"""Cooperative query deadlines on both backends: a budget's timeout is
the one way a statement carries a time limit."""

import time

import pytest

from repro.backends import MiniRelBackend, SqliteBackend
from repro.core.resilience import Budget, QueryTimeoutError
from repro.relational import ColumnType

# A cross product large enough to outlast a tiny deadline on either engine.
CROSS_SQL = (
    "SELECT COUNT(*) FROM t a, t b, t c WHERE a.x <> b.x AND b.x <> c.x"
)


def _loaded(backend):
    backend.create_table("t", [("x", ColumnType.INTEGER)])
    backend.insert_many("t", [(i,) for i in range(400)])
    return backend


@pytest.mark.parametrize("backend_factory", [MiniRelBackend, SqliteBackend])
def test_timeout_raises(backend_factory):
    backend = _loaded(backend_factory())
    start = time.monotonic()
    with pytest.raises(QueryTimeoutError):
        backend.execute(CROSS_SQL, budget=Budget(timeout=0.05))
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("backend_factory", [MiniRelBackend, SqliteBackend])
def test_no_timeout_when_fast(backend_factory):
    backend = _loaded(backend_factory())
    columns, rows = backend.execute(
        "SELECT COUNT(*) FROM t", budget=Budget(timeout=10.0)
    )
    assert rows == [(400,)]
