"""The type-oriented baseline (paper §2, second alternative; Jena
SDB-style property tables).

One wide relation per ``rdf:type``: entities of a type share a table whose
columns are that type's predicates (one row per entity, like the
entity-oriented layout — but the column set is *per type* and fixed, so new
types and new predicates require DDL, and DBpedia-scale type counts
explode: "the number of relations can quickly get out of hand if one
considers that DBpedia includes 150K types").

Entities without a type land in a shared ``__untyped`` table. Multi-valued
cells route through a shared secondary table, like DB2RDF's DS. Queries
that do not fix the entity's type (any subject lookup, any reverse lookup)
must UNION over every type table — the flexibility cost the paper uses to
motivate the entity-oriented design.

The paper omits this layout from the micro-benchmark "because for this
micro-benchmark it is similar to the entity-oriented approach"; having it
runnable lets us check that footnote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backends import Backend
from ..core.errors import LoadError, UnsupportedQueryError
from ..rdf.graph import Graph
from ..rdf.terms import RDF_TYPE, URI, term_key
from ..relational import ast as sql
from ..relational.types import ColumnType
from ..sparql.ast import Var
from ..sparql.engine import EngineConfig
from ..sparql.optimizer.merge import MergedNode
from ..sparql.optimizer.planbuilder import AccessNode
from ..sparql.translator.pipeline import (
    Ctx,
    SqlBuilder,
    TripleEmitter,
    compat_condition,
    compat_projection,
    passthrough_items,
    var_col,
)
from .layout import RelationalLayout

ENTRY = "entry"
UNTYPED = "__untyped"
LID_PREFIX = "@lid:t:"


@dataclass
class TypeTable:
    """One per-type property table."""

    name: str
    predicate_columns: dict[str, str] = field(default_factory=dict)
    multivalued: set[str] = field(default_factory=set)


class TypeOrientedEmitter(TripleEmitter):
    """Accesses against per-type property tables.

    Every access is a UNION ALL over the type tables that contain the
    predicate (all tables, for variable predicates) — the entity's type is
    not known from the pattern alone.
    """

    supports_merge = False

    def __init__(self, tables: dict[str, TypeTable], secondary: str) -> None:
        self.tables = tables
        self.secondary = secondary

    def emit_access(
        self, builder: SqlBuilder, node: AccessNode | MergedNode, ctx: Ctx
    ) -> Ctx:
        if isinstance(node, MergedNode):
            raise UnsupportedQueryError("type-oriented layout cannot merge accesses")
        triple = node.triple
        predicate = triple.predicate

        # (table, predicate value, column) target list
        targets: list[tuple[TypeTable, str, str]] = []
        if isinstance(predicate, Var):
            for table in self.tables.values():
                for predicate_value, column in sorted(table.predicate_columns.items()):
                    targets.append((table, predicate_value, column))
        else:
            for table in sorted(self.tables.values(), key=lambda t: t.name):
                column = table.predicate_columns.get(predicate.value)
                if column is not None:
                    targets.append((table, predicate.value, column))

        new_vars: list[str] = []
        for position in (triple.subject, predicate, triple.object):
            if isinstance(position, Var) and not ctx.has(position.name):
                if position.name not in new_vars:
                    new_vars.append(position.name)

        if not targets:
            empty = sql.Select(
                items=tuple(
                    passthrough_items(ctx)
                    + [
                        sql.SelectItem(sql.Const(None), var_col(v))
                        for v in new_vars
                    ]
                ),
                from_=sql.TableRef(ctx.cte, "I") if ctx.cte else None,
                where=sql.Const(False),
            )
            name = builder.add_cte(empty)
            return ctx.with_vars(name, new_vars)

        selects = [
            self._branch(table, predicate_value, column, triple, ctx, new_vars)
            for table, predicate_value, column in targets
        ]
        union = sql.union_all(selects)
        name = builder.add_cte(union)
        consumed = {
            v.name
            for v in (triple.subject, predicate, triple.object)
            if isinstance(v, Var) and ctx.has(v.name)
        }
        return ctx.with_vars(name, new_vars, set(new_vars) | consumed)

    def _branch(
        self,
        table: TypeTable,
        predicate_value: str,
        column: str,
        triple,
        ctx: Ctx,
        new_vars: list[str],
    ) -> sql.Select:
        overrides: dict[str, sql.Expr] = {}
        where: list[sql.Expr] = [
            sql.IsNull(sql.Column("T", column), negated=True)
        ]
        produced: dict[str, sql.Expr] = {}
        multivalued = predicate_value in table.multivalued or isinstance(
            triple.predicate, Var
        )

        from_: sql.FromItem = sql.TableRef(table.name, "T")
        if ctx.cte is not None:
            from_ = sql.Join(sql.TableRef(ctx.cte, "I"), from_, "INNER", None)
        if multivalued:
            from_ = sql.Join(
                from_,
                sql.TableRef(self.secondary, "S"),
                "LEFT",
                sql.BinOp("=", sql.Column("T", column), sql.Column("S", "l_id")),
            )
            value_source: sql.Expr = sql.FuncCall(
                "COALESCE", (sql.Column("S", "elm"), sql.Column("T", column))
            )
        else:
            value_source = sql.Column("T", column)

        # subject
        subject = triple.subject
        if isinstance(subject, Var):
            if ctx.has(subject.name):
                bound_col = sql.Column("I", ctx.col(subject.name))
                maybe = ctx.is_maybe(subject.name)
                where.append(
                    compat_condition(sql.Column("T", ENTRY), bound_col, maybe)
                )
                replacement = compat_projection(
                    sql.Column("T", ENTRY), bound_col, maybe
                )
                if replacement is not None:
                    overrides[subject.name] = replacement
                produced[subject.name] = sql.Column("T", ENTRY)
            else:
                produced[subject.name] = sql.Column("T", ENTRY)
        else:
            where.append(
                sql.BinOp("=", sql.Column("T", ENTRY), sql.Const(term_key(subject)))
            )

        # predicate (variable predicates bind to the branch's constant)
        predicate = triple.predicate
        if isinstance(predicate, Var):
            if predicate.name in produced:
                where.append(
                    sql.BinOp(
                        "=", sql.Const(predicate_value), produced[predicate.name]
                    )
                )
            elif ctx.has(predicate.name):
                bound_col = sql.Column("I", ctx.col(predicate.name))
                maybe = ctx.is_maybe(predicate.name)
                where.append(
                    compat_condition(sql.Const(predicate_value), bound_col, maybe)
                )
                replacement = compat_projection(
                    sql.Const(predicate_value), bound_col, maybe
                )
                if replacement is not None:
                    overrides[predicate.name] = replacement
            else:
                produced[predicate.name] = sql.Const(predicate_value)

        # object
        obj = triple.object
        if isinstance(obj, Var):
            if obj.name in produced:
                where.append(sql.BinOp("=", value_source, produced[obj.name]))
            elif ctx.has(obj.name):
                bound_col = sql.Column("I", ctx.col(obj.name))
                maybe = ctx.is_maybe(obj.name)
                where.append(compat_condition(value_source, bound_col, maybe))
                replacement = compat_projection(value_source, bound_col, maybe)
                if replacement is not None:
                    overrides[obj.name] = replacement
            else:
                produced[obj.name] = value_source
        else:
            where.append(
                sql.BinOp("=", value_source, sql.Const(term_key(obj)))
            )

        items = passthrough_items(ctx, overrides=overrides)
        for variable in new_vars:
            items.append(
                sql.SelectItem(
                    produced.get(variable, sql.Const(None)), var_col(variable)
                )
            )
        return sql.Select(items=tuple(items), from_=from_, where=sql.conjoin(where))


class TypeOrientedStore(RelationalLayout):
    """The runnable type-oriented baseline (bulk load only: the layout's
    schema is derived from the data, which is precisely its weakness)."""

    name = "type-oriented"

    def __init__(
        self,
        backend: Backend | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        super().__init__(backend, config)
        self.tables: dict[str, TypeTable] = {}
        self.secondary = "TS"
        self.backend.create_table(
            self.secondary, [("l_id", ColumnType.TEXT), ("elm", ColumnType.TEXT)]
        )
        self.backend.create_index("TS_lid", self.secondary, ["l_id"])
        self._counter = 0
        self._lid_counter = 0

    # ---------------------------------------------------------------- load

    def _store_graph(self, graph: Graph) -> None:
        type_uri = URI(RDF_TYPE)
        # 1. assign each subject to a type partition (first type, sorted)
        partition: dict[str, list] = {}
        for subject in graph.subjects():
            types = sorted(
                term_key(t.object)
                for t in graph.triples_for_subject(subject)
                if t.predicate == type_uri and isinstance(t.object, URI)
            )
            key = types[0] if types else UNTYPED
            partition.setdefault(key, []).append(subject)

        # 2. per partition: derive schema, pack rows
        for type_key, subjects in sorted(partition.items()):
            grouped_rows = []
            predicates: dict[str, None] = {}
            for subject in subjects:
                grouped: dict[str, list[str]] = {}
                for triple in graph.triples_for_subject(subject):
                    value = term_key(triple.object)
                    if value.startswith(LID_PREFIX):
                        raise LoadError(
                            f"data value collides with reserved lid prefix: {value!r}"
                        )
                    grouped.setdefault(triple.predicate.value, []).append(value)
                for predicate in grouped:
                    predicates.setdefault(predicate)
                grouped_rows.append((term_key(subject), grouped))

            table = self._table_for(type_key, list(predicates))
            secondary_batch = []
            primary_batch = []
            for entry, grouped in grouped_rows:
                row = [entry] + [None] * len(table.predicate_columns)
                positions = {
                    column: index + 1
                    for index, column in enumerate(table.predicate_columns.values())
                }
                for predicate, values in grouped.items():
                    column = table.predicate_columns[predicate]
                    if len(values) > 1:
                        self._lid_counter += 1
                        lid = f"{LID_PREFIX}{self._lid_counter}"
                        secondary_batch.extend((lid, value) for value in values)
                        table.multivalued.add(predicate)
                        row[positions[column]] = lid
                    else:
                        row[positions[column]] = values[0]
                primary_batch.append(row)
            self.backend.insert_many(table.name, primary_batch)
            if secondary_batch:
                self.backend.insert_many(self.secondary, secondary_batch)

    def _table_for(self, type_key: str, predicates: list[str]) -> TypeTable:
        if type_key in self.tables:
            raise LoadError(
                "type-oriented layout does not support incremental reload of "
                f"type {type_key!r} (schema change) — this is the layout's "
                "documented weakness"
            )
        self._counter += 1
        name = f"TT{self._counter}"
        columns: list[tuple[str, ColumnType]] = [(ENTRY, ColumnType.TEXT)]
        predicate_columns: dict[str, str] = {}
        for index, predicate in enumerate(predicates):
            column = f"p{index}"
            predicate_columns[predicate] = column
            columns.append((column, ColumnType.TEXT))
        self.backend.create_table(name, columns)
        self.backend.create_index(f"{name}_entry", name, [ENTRY])
        table = TypeTable(name, predicate_columns)
        self.tables[type_key] = table
        return table

    # --------------------------------------------------------------- query

    def _emitter(self) -> TypeOrientedEmitter:
        return TypeOrientedEmitter(self.tables, self.secondary)
