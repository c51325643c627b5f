"""The triple-store baseline (paper §2, first alternative).

One skinny relation ``TRIPLES(subj, pred, obj)``; every triple pattern
becomes a self-join, which is exactly the cost the entity-oriented layout
eliminates for star queries (Figure 2c shows the generated shape).

The baseline reuses the paper's hybrid optimizer — the optimizer is storage
independent (§3) — but its emitter produces one access per triple with no
merging.
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

TABLE = "TRIPLES"
SUBJ, PRED, OBJ = "subj", "pred", "obj"


class TripleTableEmitter(TripleEmitter):
    """One CTE per triple pattern against the 3-column relation."""

    supports_merge = False

    def __init__(self, table: str = TABLE) -> None:
        self.table = table

    def emit_access(
        self, builder: SqlBuilder, node: AccessNode | MergedNode, ctx: Ctx
    ) -> Ctx:
        if isinstance(node, MergedNode):
            raise UnsupportedQueryError("triple-store layout cannot merge accesses")
        triple = node.triple
        overrides: dict[str, sql.Expr] = {}
        extra_items: list[sql.SelectItem] = []
        where: list[sql.Expr] = []
        out_vars: list[str] = []
        now_definite: set[str] = set()
        produced: dict[str, sql.Expr] = {}

        for position, column in (
            (triple.subject, SUBJ),
            (triple.predicate, PRED),
            (triple.object, OBJ),
        ):
            source = sql.Column("T", column)
            if isinstance(position, Var):
                if position.name in produced:
                    # Repeated variable within one pattern: the two source
                    # columns must agree directly. A ctx compat check alone
                    # is vacuous when the incoming binding is NULL (e.g.
                    # after a UNION), which would drop the constraint.
                    where.append(sql.BinOp("=", source, produced[position.name]))
                    now_definite.add(position.name)
                elif ctx.has(position.name):
                    bound_col = sql.Column("I", ctx.col(position.name))
                    maybe = ctx.is_maybe(position.name)
                    where.append(compat_condition(source, bound_col, maybe))
                    replacement = compat_projection(source, bound_col, maybe)
                    if replacement is not None:
                        overrides[position.name] = replacement
                    produced[position.name] = source
                    now_definite.add(position.name)
                else:
                    produced[position.name] = source
                    extra_items.append(
                        sql.SelectItem(source, var_col(position.name))
                    )
                    out_vars.append(position.name)
                    now_definite.add(position.name)
            else:
                where.append(sql.BinOp("=", source, sql.Const(term_key(position))))

        items = passthrough_items(ctx, overrides=overrides) + extra_items
        from_: sql.FromItem = sql.TableRef(self.table, "T")
        if ctx.cte is not None:
            from_ = sql.Join(sql.TableRef(ctx.cte, "I"), from_, "INNER", None)
        select = sql.Select(items=tuple(items), from_=from_, where=sql.conjoin(where))
        name = builder.add_cte(select)
        return ctx.with_vars(name, out_vars, now_definite)


class TripleStore(RelationalLayout):
    """The runnable baseline store."""

    name = "triple-store"

    def __init__(
        self,
        backend: Backend | None = None,
        index_subjects: bool = True,
        index_objects: bool = True,
        table: str = TABLE,
        config: EngineConfig | None = None,
    ) -> None:
        super().__init__(backend, config)
        self.table = table
        self.backend.create_table(
            table,
            [
                (SUBJ, ColumnType.TEXT),
                (PRED, ColumnType.TEXT),
                (OBJ, ColumnType.TEXT),
            ],
        )
        if index_subjects:
            self.backend.create_index(f"{table}_subj", table, [SUBJ])
        if index_objects:
            self.backend.create_index(f"{table}_obj", table, [OBJ])

    def _store_graph(self, graph: Graph) -> None:
        self.backend.insert_many(self.table, map(_row, graph))

    def add(self, triple: Triple) -> None:
        self.backend.insert_many(self.table, [_row(triple)])
        self._count_added([triple])

    def _emitter(self) -> TripleTableEmitter:
        return TripleTableEmitter(self.table)


def _row(triple: Triple) -> tuple[str, str, str]:
    return (
        term_key(triple.subject),
        triple.predicate.value,
        term_key(triple.object),
    )
