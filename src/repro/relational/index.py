"""Hash indexes over heap tables.

The paper's DB2RDF configuration indexes only the ``entry`` columns of the
DPH and RPH relations (Section 4: "no indexes on the pred_i and val_i
columns"), so equality hash indexes are exactly the machinery the planner
needs; range predicates fall back to scans.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from .table import Table


class HashIndex:
    """An equality index on one or more columns of a table."""

    def __init__(self, name: str, table: Table, column_names: Sequence[str]) -> None:
        self.name = name
        self.table = table
        self.column_names = list(column_names)
        self.positions = [table.schema.position(c) for c in column_names]
        self._buckets: dict[tuple, list[int]] = defaultdict(list)
        #: number of probes served (observability for plan tests/tuning)
        self.probe_count = 0
        # Almost every index is single-column (the paper's entry indexes),
        # and _key runs once per inserted row: specialize that case.
        if len(self.positions) == 1:
            position = self.positions[0]

            def single_key(row: tuple) -> tuple:
                return (row[position],)

            self._key = single_key
        table.register_index(self)

    def _key(self, row: tuple) -> tuple:
        return tuple([row[position] for position in self.positions])

    def build(self, table: Table) -> None:
        self._buckets.clear()
        # Raw row iteration (not scan_with_ids): logically-deleted rows
        # retained for snapshot readers must stay reachable via the index.
        for row_id, row in enumerate(table.rows):
            if row is not None:
                self._buckets[self._key(row)].append(row_id)

    def insert(self, row_id: int, row: tuple) -> None:
        self._buckets[self._key(row)].append(row_id)

    def delete(self, row_id: int, row: tuple) -> None:
        bucket = self._buckets.get(self._key(row))
        if bucket is not None:
            try:
                bucket.remove(row_id)
            except ValueError:
                pass

    def lookup(self, key: tuple, version: int | None = None) -> Iterable[tuple]:
        """Yield rows whose indexed columns equal ``key``, visible at
        ``version`` (``None`` = the latest state)."""
        self.probe_count += 1
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        table = self.table
        rows = table.rows
        if version is None:
            died = table.died
            if not died:
                for row_id in bucket:
                    row = rows[row_id]
                    if row is not None:
                        yield row
                return
            for row_id in bucket:
                row = rows[row_id]
                if row is not None and row_id not in died:
                    yield row
            return
        born, died = table.born, table.died
        for row_id in bucket:
            row = rows[row_id]
            if row is None:
                continue
            if born.get(row_id, 0) > version:
                continue
            death = died.get(row_id)
            if death is not None and death <= version:
                continue
            yield row

    def covers(self, column_names: Sequence[str]) -> bool:
        """True when this index can serve an equality lookup on ``column_names``.

        The lookup must bind a *prefix* that is the whole index key here
        (hash indexes cannot answer partial-key probes).
        """
        lowered = [c.lower() for c in column_names]
        return [c.lower() for c in self.column_names] == lowered

    def __repr__(self) -> str:
        return f"HashIndex({self.name!r} on {self.table.name}({', '.join(self.column_names)}))"


def find_index(table: Table, column_names: Sequence[str]) -> HashIndex | None:
    """Find an index on ``table`` exactly covering ``column_names``."""
    for index in table.indexes:
        if isinstance(index, HashIndex) and index.covers(column_names):
            return index
    return None
