"""Shredding RDF into the DB2RDF schema: bulk load and incremental insert.

Bulk load (the §2.3 path) groups triples per entity, packs each entity's
predicates into columns via the predicate mapper, creates spill rows when
every candidate column of a predicate is taken, and routes multi-valued
predicates through the secondary hash tables with fresh lids.

Incremental insert (the §2.2 hashing illustration, Table 3) reads the
entity's existing rows, places the new predicate in the first free candidate
column, upgrades a single value to a lid when a second object arrives, and
spills into a new row when no candidate is free. The loader keeps no undo
of its own: the store runs every write inside a backend write bracket, and
aborting that bracket (with the store's side-state copy) is the rollback.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from ..backends.base import Backend
from ..rdf.graph import Graph
from ..rdf.terms import Triple, term_key
from ..relational import ast
from .errors import LoadError
from .mapping import PredicateMapper
from .stats import DatasetStatistics, StatsCollector
from .schema import (
    DB2RDFSchema,
    DIRECT_LID_PREFIX,
    ENTRY,
    REVERSE_LID_PREFIX,
    SPILL,
    pred_col,
    val_col,
)


@dataclass
class SideMetadata:
    """Load-time metadata for one direction (direct or reverse).

    The translator consults this: which predicates are multi-valued (need
    the secondary-table join), and which participate in spills (veto star
    merging, §3.2.1).
    """

    multivalued: set[str] = field(default_factory=set)
    spill_predicates: set[str] = field(default_factory=set)
    spill_rows: int = 0
    entities: int = 0
    rows: int = 0
    #: predicates first seen *after* bulk load, mapped to the column the
    #: online insert algorithm assigned them (paper §2.5): later inserts of
    #: the same predicate prefer this column so it stays clustered.
    online_assignments: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "SideMetadata":
        return replace(
            self, multivalued=set(self.multivalued),
            spill_predicates=set(self.spill_predicates),
            online_assignments=dict(self.online_assignments),
        )

    def merge(self, other: "SideMetadata") -> None:
        self.multivalued |= other.multivalued
        self.spill_predicates |= other.spill_predicates
        self.spill_rows += other.spill_rows
        self.entities += other.entities
        self.rows += other.rows
        for predicate, column in other.online_assignments.items():
            self.online_assignments.setdefault(predicate, column)


@dataclass
class LoadReport:
    """What a bulk load produced (feeds Table 4 / §2.3 numbers)."""

    triples: int
    direct: SideMetadata
    reverse: SideMetadata
    #: statistics collected during shredding (same pass, no rescan)
    stats: DatasetStatistics | None = None


def _check_key(key: str) -> str:
    if key.startswith((DIRECT_LID_PREFIX, REVERSE_LID_PREFIX)):
        raise LoadError(f"data value collides with reserved lid prefix: {key!r}")
    return key


class _LidAllocator:
    def __init__(self, prefix: str, start: int = 0) -> None:
        self.prefix = prefix
        self.next_id = start

    def allocate(self) -> str:
        lid = f"{self.prefix}{self.next_id}"
        self.next_id += 1
        return lid


def pack_entity(
    entry: str,
    pred_values: Mapping[str, str],
    mapper: PredicateMapper,
    width: int,
) -> tuple[list[list], set[str]]:
    """Pack one entity's (predicate -> value) map into one or more rows.

    Returns the rows (as full value lists matching the primary schema) and
    the set of predicates that landed on spill rows.
    """
    row_buffers: list[dict[int, tuple[str, str]]] = []
    spilled: set[str] = set()
    for predicate, value in pred_values.items():
        placed = False
        for row_index, buffer in enumerate(row_buffers):
            for column in mapper.columns_for(predicate):
                if column < width and column not in buffer:
                    buffer[column] = (predicate, value)
                    if row_index > 0:
                        spilled.add(predicate)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            candidates = [c for c in mapper.columns_for(predicate) if c < width]
            if not candidates:
                raise LoadError(
                    f"predicate {predicate!r} maps to no column below width {width}"
                )
            row_buffers.append({candidates[0]: (predicate, value)})
            if len(row_buffers) > 1:
                spilled.add(predicate)

    spill_flag = 1 if len(row_buffers) > 1 else 0
    rows = []
    for buffer in row_buffers:
        row: list = [entry, spill_flag]
        for column in range(width):
            pair = buffer.get(column)
            row.append(pair[0] if pair else None)
            row.append(pair[1] if pair else None)
        rows.append(row)
    return rows, spilled


def _group_direct(graph: Graph) -> Iterable[tuple[str, dict[str, list[str]]]]:
    for subject in graph.subjects():
        grouped: dict[str, list[str]] = {}
        for triple in graph.triples_for_subject(subject):
            grouped.setdefault(triple.predicate.value, []).append(
                _check_key(term_key(triple.object))
            )
        yield _check_key(term_key(subject)), grouped


def _group_reverse(graph: Graph) -> Iterable[tuple[str, dict[str, list[str]]]]:
    for obj in graph.objects():
        grouped: dict[str, list[str]] = {}
        for triple in graph.triples_for_object(obj):
            grouped.setdefault(triple.predicate.value, []).append(
                _check_key(term_key(triple.subject))
            )
        yield _check_key(term_key(obj)), grouped


class Loader:
    """Shreds triples into one store's DPH/DS/RPH/RS tables."""

    def __init__(
        self,
        schema: DB2RDFSchema,
        backend: Backend,
        direct_mapper: PredicateMapper,
        reverse_mapper: PredicateMapper,
    ) -> None:
        self.schema = schema
        self.backend = backend
        self.direct_mapper = direct_mapper
        self.reverse_mapper = reverse_mapper
        self.direct_lids = _LidAllocator(DIRECT_LID_PREFIX)
        self.reverse_lids = _LidAllocator(REVERSE_LID_PREFIX)
        # Predicates the bulk loader has seen, per side. A predicate outside
        # this set arriving through insert_triple is *novel*: its first
        # placement is remembered (online_*) and preferred afterwards.
        self.bulk_direct_preds: set[str] = set()
        self.bulk_reverse_preds: set[str] = set()
        self.online_direct: dict[str, int] = {}
        self.online_reverse: dict[str, int] = {}

    def _side(self, direct: bool) -> tuple:
        """One direction's (primary table, secondary table, mapper, width,
        lid allocator, bulk-seen predicates, online assignments)."""
        schema = self.schema
        if direct:
            return (schema.dph, schema.ds, self.direct_mapper, schema.direct_columns,
                    self.direct_lids, self.bulk_direct_preds, self.online_direct)
        return (schema.rph, schema.rs, self.reverse_mapper, schema.reverse_columns,
                self.reverse_lids, self.bulk_reverse_preds, self.online_reverse)

    # ------------------------------------------------------------ bulk load

    def bulk_load(
        self, graph: Graph, batch_size: int = 5000, top_k_stats: int = 1000
    ) -> LoadReport:
        """Shred a whole graph into both directions (the §2.3 bulk path).

        The loader already visits every entity group while shredding, so
        dataset statistics (counts, distinct entities, top-k constants) are
        collected in the same pass and shipped on the report — no second
        scan of the graph. Only an empty store takes this path: it writes
        one fresh row set per entity and never looks at stored rows.
        """
        collector = StatsCollector(top_k=top_k_stats)
        direct = self._load_side(
            _group_direct(graph), self._side(True), batch_size, collector.direct_entity
        )
        reverse = self._load_side(
            _group_reverse(graph), self._side(False), batch_size,
            collector.reverse_entity,
        )
        return LoadReport(
            triples=len(graph),
            direct=direct,
            reverse=reverse,
            stats=collector.finish(),
        )

    def _load_side(
        self,
        grouped_entities: Iterable[tuple[str, dict[str, list[str]]]],
        side: tuple,
        batch_size: int,
        profile,
    ) -> SideMetadata:
        primary_table, secondary_table, mapper, width, lids, seen, _ = side
        meta = SideMetadata()
        primary_batch: list[list] = []
        secondary_batch: list[tuple[str, str]] = []
        for entry, grouped in grouped_entities:
            meta.entities += 1
            seen.update(grouped)
            profile(entry, {p: len(vs) for p, vs in grouped.items()})
            pred_values: dict[str, str] = {}
            for predicate, values in grouped.items():
                if len(values) > 1:
                    lid = lids.allocate()
                    secondary_batch.extend((lid, value) for value in values)
                    pred_values[predicate] = lid
                    meta.multivalued.add(predicate)
                else:
                    pred_values[predicate] = values[0]
            rows, spilled = pack_entity(entry, pred_values, mapper, width)
            meta.rows += len(rows)
            meta.spill_rows += len(rows) - 1
            meta.spill_predicates |= spilled
            primary_batch.extend(rows)
            if len(primary_batch) >= batch_size:
                self.backend.insert_many(primary_table, primary_batch)
                primary_batch = []
            if len(secondary_batch) >= batch_size:
                self.backend.insert_many(secondary_table, secondary_batch)
                secondary_batch = []
        if primary_batch:
            self.backend.insert_many(primary_table, primary_batch)
        if secondary_batch:
            self.backend.insert_many(secondary_table, secondary_batch)
        return meta

    # ---------------------------------------------------------- incremental

    def insert_triple(self, triple: Triple) -> tuple[bool, SideMetadata, SideMetadata]:
        """Insert one triple incrementally; returns ``(inserted, direct
        metadata delta, reverse metadata delta)``. A delta's ``entities``
        is 1 when the write created that side's first row for its entity.

        ``inserted`` is False for an exact duplicate, in which case neither
        side was touched and both deltas are empty."""
        subject_key = _check_key(term_key(triple.subject))
        predicate = triple.predicate.value
        object_key = _check_key(term_key(triple.object))

        direct_delta = SideMetadata()
        reverse_delta = SideMetadata()
        inserted = self._insert_one_side(
            self._side(True), subject_key, predicate, object_key, direct_delta
        )
        if inserted:
            # The direct side is authoritative for duplicate detection; a
            # duplicate never reaches the reverse tables.
            self._insert_one_side(
                self._side(False), object_key, predicate, subject_key, reverse_delta
            )
        return inserted, direct_delta, reverse_delta

    def _insert_one_side(
        self, side: tuple, entry: str, predicate: str, value: str,
        delta: SideMetadata,
    ) -> bool:
        primary_table, secondary_table, mapper, width, lids, bulk_seen, online = side
        lid_prefix = lids.prefix
        rows = self._fetch_entity_rows(primary_table, entry, width)
        candidates = [c for c in mapper.columns_for(predicate) if c < width]
        if not candidates:
            raise LoadError(
                f"predicate {predicate!r} maps to no column below width {width}"
            )
        # A previously assigned online column leads the candidate list so
        # the predicate keeps landing where it first did.
        assigned = online.get(predicate)
        if assigned is not None and assigned in candidates and assigned != candidates[0]:
            candidates = [assigned] + [c for c in candidates if c != assigned]

        def record_assignment(column: int) -> None:
            """First fresh-cell placement of a post-bulk novel predicate."""
            if predicate not in bulk_seen and predicate not in online:
                online[predicate] = column
                delta.online_assignments[predicate] = column

        # Case 1: predicate already present on some row.
        for row in rows:
            for column in candidates:
                if row["preds"][column] == predicate:
                    existing = row["vals"][column]
                    if existing == value:
                        return False  # duplicate triple: no-op
                    if existing is not None and existing.startswith(lid_prefix):
                        if self._secondary_contains(
                            secondary_table, existing, value
                        ):
                            return False  # already in the multi-valued set
                        self.backend.insert_many(secondary_table, [(existing, value)])
                        return True
                    # Upgrade a single value to a multi-valued lid.
                    lid = lids.allocate()
                    self.backend.insert_many(
                        secondary_table, [(lid, existing), (lid, value)]
                    )
                    self._update_cell(primary_table, row, column, predicate, lid)
                    delta.multivalued.add(predicate)
                    return True

        # Case 2: predicate absent; place it in the first free candidate.
        for row_index, row in enumerate(rows):
            for column in candidates:
                if row["preds"][column] is None:
                    self._update_cell(primary_table, row, column, predicate, value)
                    record_assignment(column)
                    if row_index > 0:
                        delta.spill_predicates.add(predicate)
                    return True

        # Case 3: no free candidate anywhere; create a (spill) row.
        target = candidates[0]
        record_assignment(target)
        if rows:
            # Existing rows must be flagged as spilled too.
            match = ast.BinOp("=", ast.Column(None, ENTRY), ast.Const(entry))
            self.backend.execute(
                ast.Update(primary_table, ((SPILL, ast.Const(1)),), match)
            )
            delta.spill_rows += 1
            delta.spill_predicates.add(predicate)
        else:
            delta.entities += 1
        cells: list = [None] * (2 * width)
        cells[2 * target:2 * target + 2] = predicate, value
        self.backend.insert_many(primary_table, [[entry, 1 if rows else 0, *cells]])
        delta.rows += 1
        return True

    # -------------------------------------------------------------- delete

    def delete_triple(self, triple: Triple) -> tuple[bool, SideMetadata, SideMetadata]:
        """Delete one triple; returns ``(existed, direct metadata delta,
        reverse metadata delta)`` like :meth:`insert_triple`, with
        ``entities`` at -1 when the delete dropped the entity's last row.

        Multi-valued cells shrink through the secondary table and demote
        back to a direct value when one object remains; a cell whose last
        predicate is cleared leaves a NULL pair, and an entity row with no
        predicates left is dropped.
        """
        subject_key = term_key(triple.subject)
        predicate = triple.predicate.value
        object_key = term_key(triple.object)
        direct_delta = SideMetadata()
        reverse_delta = SideMetadata()
        existed = self._delete_one_side(
            self._side(True), subject_key, predicate, object_key, direct_delta
        )
        if existed:
            self._delete_one_side(
                self._side(False), object_key, predicate, subject_key, reverse_delta
            )
        return existed, direct_delta, reverse_delta

    def _delete_one_side(
        self, side: tuple, entry: str, predicate: str, value: str,
        delta: SideMetadata,
    ) -> bool:
        primary_table, secondary_table, mapper, width, lids, _, _ = side
        lid_prefix = lids.prefix
        rows = self._fetch_entity_rows(primary_table, entry, width)
        candidates = [c for c in mapper.columns_for(predicate) if c < width]
        for row in rows:
            for column in candidates:
                if row["preds"][column] != predicate:
                    continue
                stored = row["vals"][column]
                if stored == value:
                    self._clear_cell(primary_table, row, column)
                    self._drop_row_if_empty(primary_table, row, rows, delta)
                    return True
                if stored is not None and stored.startswith(lid_prefix):
                    if not self._secondary_contains(secondary_table, stored, value):
                        return False
                    self._remove_secondary(secondary_table, stored, value)
                    remaining = self._secondary_values(secondary_table, stored)
                    if len(remaining) == 1:
                        # demote back to a direct single value
                        self._update_cell(
                            primary_table, row, column, predicate, remaining[0]
                        )
                        self._remove_secondary(secondary_table, stored, remaining[0])
                    elif not remaining:
                        self._clear_cell(primary_table, row, column)
                        self._drop_row_if_empty(primary_table, row, rows, delta)
                    return True
                return False
        return False

    def _secondary_values(self, secondary_table: str, lid: str) -> list[str]:
        query = ast.Select(
            items=(ast.SelectItem(ast.Column("S", "elm")),),
            from_=ast.TableRef(secondary_table, "S"),
            where=ast.BinOp("=", ast.Column("S", "l_id"), ast.Const(lid)),
        )
        _, rows = self.backend.execute(query)
        return [row[0] for row in rows]

    def _clear_cell(self, primary_table: str, row: dict, column: int) -> None:
        self._update_cell(primary_table, row, column, None, None)

    def _drop_row_if_empty(
        self, primary_table: str, row: dict, rows: list[dict],
        delta: SideMetadata,
    ) -> None:
        """Drop ``row`` (one of the entity's ``rows``) once it holds no
        predicate; dropping the entity's only row removes the entity."""
        if all(pred is None for pred in row["preds"]):
            self.backend.execute(ast.Delete(primary_table, _row_match(row)))
            delta.rows -= 1
            if len(rows) == 1:
                delta.entities -= 1

    def _fetch_entity_rows(
        self, primary_table: str, entry: str, width: int
    ) -> list[dict]:
        items = [ast.SelectItem(ast.Column("T", ENTRY)), ast.SelectItem(ast.Column("T", SPILL))]
        for i in range(width):
            items.append(ast.SelectItem(ast.Column("T", pred_col(i))))
            items.append(ast.SelectItem(ast.Column("T", val_col(i))))
        query = ast.Select(
            items=tuple(items),
            from_=ast.TableRef(primary_table, "T"),
            where=ast.BinOp("=", ast.Column("T", ENTRY), ast.Const(entry)),
        )
        _, raw_rows = self.backend.execute(query)
        rows = []
        for raw in raw_rows:
            rows.append(
                {
                    "entry": raw[0],
                    "spill": raw[1],
                    "preds": list(raw[2::2]),
                    "vals": list(raw[3::2]),
                }
            )
        return rows

    def _secondary_contains(self, secondary_table: str, lid: str, value: str) -> bool:
        query = ast.Select(
            items=(ast.SelectItem(ast.Const(1)),),
            from_=ast.TableRef(secondary_table, "S"),
            where=ast.BinOp(
                "AND",
                ast.BinOp("=", ast.Column("S", "l_id"), ast.Const(lid)),
                ast.BinOp("=", ast.Column("S", "elm"), ast.Const(value)),
            ),
        )
        _, rows = self.backend.execute(query)
        return bool(rows)

    # ---------------------------------------------------- write statements

    def _update_cell(
        self,
        primary_table: str,
        row: dict,
        column: int,
        predicate: str | None,
        value: str | None,
    ) -> None:
        """Update one pred/val cell of a specific entity row."""
        self.backend.execute(
            ast.Update(
                primary_table,
                (
                    (pred_col(column), ast.Const(predicate)),
                    (val_col(column), ast.Const(value)),
                ),
                _row_match(row),
            )
        )
        row["preds"][column] = predicate
        row["vals"][column] = value

    def _remove_secondary(self, table: str, lid: str, value: str) -> None:
        lid_is = ast.BinOp("=", ast.Column(None, "l_id"), ast.Const(lid))
        elm_is = ast.BinOp("=", ast.Column(None, "elm"), ast.Const(value))
        self.backend.execute(ast.Delete(table, ast.BinOp("AND", lid_is, elm_is)))


def _row_match(row: dict) -> ast.Expr:
    """Pin one entity row by entry plus its current cell state: rows of one
    entity are told apart only by their cells (there is no row key)."""
    conditions: list[ast.Expr] = [
        ast.BinOp("=", ast.Column(None, ENTRY), ast.Const(row["entry"]))
    ]
    for i, (pred, val) in enumerate(zip(row["preds"], row["vals"])):
        if pred is None:
            conditions.append(ast.IsNull(ast.Column(None, pred_col(i))))
        else:
            conditions.append(
                ast.BinOp("=", ast.Column(None, pred_col(i)), ast.Const(pred))
            )
            conditions.append(
                ast.BinOp("=", ast.Column(None, val_col(i)), ast.Const(val))
            )
    return ast.conjoin(conditions)
