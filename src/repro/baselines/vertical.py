"""The predicate-oriented (vertical partitioning) baseline (paper §2,
third alternative; Abadi et al.'s column-store layout).

One binary relation per predicate. Stars join across predicate tables
(Figure 2d); dynamic schemas require new tables per new predicate — the
flexibility cost the paper calls out — and variable-predicate patterns
degenerate to a UNION ALL over every predicate table.
"""

from __future__ import annotations

from ..backends import Backend
from ..core.errors import UnsupportedQueryError
from ..rdf.graph import Graph
from ..rdf.terms import Triple, term_key
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

ENTRY, VAL = "entry", "val"


class VerticalEmitter(TripleEmitter):
    """Accesses against per-predicate binary tables."""

    supports_merge = False

    def __init__(self, tables: dict[str, str]) -> None:
        # predicate URI -> table name
        self.tables = tables

    def emit_access(
        self, builder: SqlBuilder, node: AccessNode | MergedNode, ctx: Ctx
    ) -> Ctx:
        if isinstance(node, MergedNode):
            raise UnsupportedQueryError("vertical layout cannot merge accesses")
        triple = node.triple
        predicate = triple.predicate
        if isinstance(predicate, Var):
            return self._emit_any_predicate(builder, node, ctx)
        table = self.tables.get(predicate.value)
        if table is None:
            # unknown predicate: provably empty
            empty = sql.Select(
                items=tuple(
                    passthrough_items(ctx)
                    + [
                        sql.SelectItem(sql.Const(None), var_col(v.name))
                        for v in (triple.subject, triple.object)
                        if isinstance(v, Var) and not ctx.has(v.name)
                    ]
                ),
                from_=sql.TableRef(ctx.cte, "I") if ctx.cte else None,
                where=sql.Const(False),
            )
            name = builder.add_cte(empty)
            new_vars = [
                v.name
                for v in (triple.subject, triple.object)
                if isinstance(v, Var) and not ctx.has(v.name)
            ]
            return ctx.with_vars(name, new_vars)
        select, new_vars = self._single_table_select(table, None, triple, ctx)
        name = builder.add_cte(select)
        consumed = {
            v.name
            for v in (triple.subject, triple.predicate, triple.object)
            if isinstance(v, Var) and ctx.has(v.name)
        }
        return ctx.with_vars(name, new_vars, set(new_vars) | consumed)

    def _single_table_select(
        self, table: str, predicate_value: str | None, triple, ctx: Ctx
    ) -> tuple[sql.Select, list[str]]:
        overrides: dict[str, sql.Expr] = {}
        extra_items: list[sql.SelectItem] = []
        where: list[sql.Expr] = []
        out_vars: list[str] = []
        produced: dict[str, sql.Expr] = {}
        for position, column in ((triple.subject, ENTRY), (triple.object, VAL)):
            source = sql.Column("T", column)
            if isinstance(position, Var):
                if position.name in produced:
                    # Repeated variable within one pattern: hard equality
                    # between the source columns — the ctx compat check is
                    # vacuous when the incoming binding is NULL.
                    where.append(sql.BinOp("=", source, produced[position.name]))
                elif ctx.has(position.name):
                    bound_col = sql.Column("I", ctx.col(position.name))
                    maybe = ctx.is_maybe(position.name)
                    where.append(compat_condition(source, bound_col, maybe))
                    replacement = compat_projection(source, bound_col, maybe)
                    if replacement is not None:
                        overrides[position.name] = replacement
                    produced[position.name] = source
                else:
                    produced[position.name] = source
                    extra_items.append(
                        sql.SelectItem(source, var_col(position.name))
                    )
                    out_vars.append(position.name)
            else:
                where.append(sql.BinOp("=", source, sql.Const(term_key(position))))
        if predicate_value is not None:
            pred_var = triple.predicate
            assert isinstance(pred_var, Var)
            if pred_var.name in produced:
                # ?p shared with subject/object: the constant must agree
                where.append(
                    sql.BinOp(
                        "=", sql.Const(predicate_value), produced[pred_var.name]
                    )
                )
            elif ctx.has(pred_var.name):
                bound_col = sql.Column("I", ctx.col(pred_var.name))
                maybe = ctx.is_maybe(pred_var.name)
                where.append(
                    compat_condition(sql.Const(predicate_value), bound_col, maybe)
                )
                replacement = compat_projection(
                    sql.Const(predicate_value), bound_col, maybe
                )
                if replacement is not None:
                    overrides[pred_var.name] = replacement
            else:
                extra_items.append(
                    sql.SelectItem(sql.Const(predicate_value), var_col(pred_var.name))
                )
                out_vars.append(pred_var.name)
        items = passthrough_items(ctx, overrides=overrides) + extra_items
        from_: sql.FromItem = sql.TableRef(table, "T")
        if ctx.cte is not None:
            from_ = sql.Join(sql.TableRef(ctx.cte, "I"), from_, "INNER", None)
        return (
            sql.Select(items=tuple(items), from_=from_, where=sql.conjoin(where)),
            out_vars,
        )

    def _emit_any_predicate(
        self, builder: SqlBuilder, node: AccessNode, ctx: Ctx
    ) -> Ctx:
        """Variable predicate: UNION ALL over every predicate table."""
        triple = node.triple
        selects: list[sql.Query] = []
        out_vars_union: list[str] = []
        for predicate_value, table in sorted(self.tables.items()):
            select, out_vars = self._single_table_select(
                table, predicate_value, triple, ctx
            )
            selects.append(select)
            for variable in out_vars:
                if variable not in out_vars_union:
                    out_vars_union.append(variable)
        if not selects:
            selects = [
                sql.Select(
                    items=tuple(passthrough_items(ctx)),
                    from_=sql.TableRef(ctx.cte, "I") if ctx.cte else None,
                    where=sql.Const(False),
                )
            ]
        union = sql.union_all(selects)
        name = builder.add_cte(union)
        consumed = {
            v.name
            for v in (triple.subject, triple.predicate, triple.object)
            if isinstance(v, Var) and ctx.has(v.name)
        }
        return ctx.with_vars(name, out_vars_union, set(out_vars_union) | consumed)


class VerticalStore(RelationalLayout):
    """The runnable predicate-oriented baseline."""

    name = "predicate-oriented"

    def __init__(
        self,
        backend: Backend | None = None,
        index_subjects: bool = True,
        index_objects: bool = True,
        config: EngineConfig | None = None,
    ) -> None:
        super().__init__(backend, config)
        self.index_subjects = index_subjects
        self.index_objects = index_objects
        self.tables: dict[str, str] = {}
        self._counter = 0

    def _table_for(self, predicate: str, create: bool = True) -> str | None:
        table = self.tables.get(predicate)
        if table is None and create:
            self._counter += 1
            table = f"VP{self._counter}"
            self.backend.create_table(
                table, [(ENTRY, ColumnType.TEXT), (VAL, ColumnType.TEXT)]
            )
            if self.index_subjects:
                self.backend.create_index(f"{table}_entry", table, [ENTRY])
            if self.index_objects:
                self.backend.create_index(f"{table}_val", table, [VAL])
            self.tables[predicate] = table
        return table

    def _store_graph(self, graph: Graph) -> None:
        by_predicate: dict[str, list[tuple[str, str]]] = {}
        for triple in graph:
            by_predicate.setdefault(triple.predicate.value, []).append(
                (term_key(triple.subject), term_key(triple.object))
            )
        for predicate, rows in by_predicate.items():
            self.backend.insert_many(self._table_for(predicate), rows)

    def add(self, triple: Triple) -> None:
        self.backend.insert_many(
            self._table_for(triple.predicate.value),
            [(term_key(triple.subject), term_key(triple.object))],
        )
        self._count_added([triple])

    def _emitter(self) -> VerticalEmitter:
        return VerticalEmitter(self.tables)
