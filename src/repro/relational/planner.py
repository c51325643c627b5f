"""Rule-based planner: SQL ASTs to operator pipelines.

Planning follows the classic recipe the paper relies on its relational
back-end to perform: conjunct classification (local / equi-join / residual),
index selection for equality predicates, index-nested-loop joins for
CTE-to-entry probes (the dominant pattern in the generated DB2RDF SQL), hash
joins for the rest, and a final filter/aggregate/sort/limit pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from . import ast
from .batch import (
    Chunk,
    Chunks,
    chunk_list,
    compile_filter_kernel,
    compile_projection_kernel,
    filter_batches,
    flatten,
    hash_join_batches,
    index_join_batches,
    index_scan_batches,
    nested_loop_join_batches,
    seq_scan_batches,
)
from .catalog import Database, QueryResult
from .errors import PlanError
from .executor import AggregateState, Ticker, count_star_sentinel, traced
from .expressions import Scope, compile_expr, contains_aggregate, expr_columns
from .index import HashIndex, find_index
from .table import Table
from .types import ColumnType, sort_key

Row = tuple
ChunksFactory = Callable[[], Chunks]


@dataclass
class PlannedUnit:
    """One planned FROM unit: its scope, a re-iterable chunk source, and the
    base table when the unit is a direct table reference (enables index use)."""

    scope: Scope
    factory: ChunksFactory
    base: Table | None
    #: per-slot column affinities aligned with ``scope`` (None entries =
    #: unknown provenance); lets filter kernels pick exact equality forms
    types: list[ColumnType | None] | None = None


def run_statement(
    db: Database,
    statement: ast.Statement,
    deadline: float | None = None,
    trace: Any = None,
    budget: Any = None,
    version: int | None = None,
) -> QueryResult:
    """Execute any statement against ``db``.

    ``trace`` is an optional parent span (duck-typed against
    ``repro.core.observe.Span``: ``child`` / ``set`` / ``inc`` /
    ``meter_batches`` / ``count_batches``). Every operator the planner
    builds reports rows-in/rows-out and inclusive time under it; ``None``
    (the default) stands for :data:`~.executor.NO_TRACE`, whose metering
    wrappers hand each operator's iterator back unwrapped.
    ``budget`` (duck-typed, ``repro.core.resilience.Budget``) threads
    per-query guardrails into every operator's :class:`Ticker`.
    """
    if isinstance(statement, (ast.Select, ast.SetOp, ast.With)):
        return Planner(
            db, deadline, trace=trace, budget=budget, version=version
        ).execute_query(statement)
    if isinstance(statement, ast.CreateTable):
        db.create_table(
            statement.name,
            [(c.name, c.type) for c in statement.columns],
            if_not_exists=statement.if_not_exists,
        )
        return QueryResult([], [])
    if isinstance(statement, ast.CreateIndex):
        db.create_index(
            statement.name,
            statement.table,
            statement.columns,
            if_not_exists=statement.if_not_exists,
        )
        return QueryResult([], [])
    if isinstance(statement, ast.Insert):
        return _run_insert(db, statement)
    if isinstance(statement, ast.Delete):
        return _run_delete(db, statement)
    if isinstance(statement, ast.Update):
        return _run_update(db, statement)
    if isinstance(statement, ast.DropTable):
        if statement.if_exists and not db.has_table(statement.name):
            return QueryResult([], [])
        db.drop_table(statement.name)
        return QueryResult([], [])
    raise PlanError(f"cannot execute statement {statement!r}")


def _run_insert(db: Database, statement: ast.Insert) -> QueryResult:
    table = db.table(statement.table)
    empty_scope = Scope([])
    count = 0
    for row_exprs in statement.rows:
        values = [compile_expr(expr, empty_scope)(()) for expr in row_exprs]
        if statement.columns is not None:
            full = [None] * len(table.schema)
            for column_name, value in zip(statement.columns, values):
                full[table.schema.position(column_name)] = value
            values = full
        table.insert(values)
        count += 1
    return QueryResult(["rowcount"], [(count,)])


def _run_delete(db: Database, statement: ast.Delete) -> QueryResult:
    table = db.table(statement.table)
    scope = Scope([(table.name, c) for c in table.schema.column_names])
    condition = (
        compile_expr(statement.where, scope) if statement.where is not None else None
    )
    doomed = [
        row_id
        for row_id, row in table.scan_with_ids()
        if condition is None or condition(row) is True
    ]
    for row_id in doomed:
        table.delete_row(row_id)
    return QueryResult(["rowcount"], [(len(doomed),)])


def _run_update(db: Database, statement: ast.Update) -> QueryResult:
    table = db.table(statement.table)
    scope = Scope([(table.name, c) for c in table.schema.column_names])
    condition = (
        compile_expr(statement.where, scope) if statement.where is not None else None
    )
    setters = [
        (table.schema.position(column), compile_expr(value, scope))
        for column, value in statement.assignments
    ]
    touched = 0
    updates: list[tuple[int, list]] = []
    for row_id, row in table.scan_with_ids():
        if condition is None or condition(row) is True:
            new_row = list(row)
            for position, setter in setters:
                new_row[position] = setter(row)
            updates.append((row_id, new_row))
    for row_id, new_row in updates:
        table.update_row(row_id, new_row)
        touched += 1
    return QueryResult(["rowcount"], [(touched,)])


class Planner:
    """Plans and executes one query (shared CTE environment per query)."""

    def __init__(
        self,
        db: Database,
        deadline: float | None = None,
        cte_env: dict[str, QueryResult] | None = None,
        trace: Any = None,
        budget: Any = None,
        version: int | None = None,
    ) -> None:
        self.db = db
        self.ticker = Ticker(deadline, budget)
        self.deadline = deadline
        self.budget = budget
        self.cte_env: dict[str, QueryResult] = dict(cte_env or {})
        #: parent span for operators planned next (NO_TRACE = tracing off)
        self.trace = traced(trace)
        #: MVCC snapshot version every table scan pins (None = latest)
        self.version = version

    # ------------------------------------------------------------- queries

    def execute_query(self, query: ast.Query) -> QueryResult:
        if isinstance(query, ast.With):
            inner = Planner(
                self.db,
                self.deadline,
                self.cte_env,
                trace=self.trace,
                budget=self.budget,
                version=self.version,
            )
            for name, cte_query in query.ctes:
                inner.cte_env[name.lower()] = inner._run_under(
                    f"cte {name}", inner.execute_query, cte_query
                )
            return inner.execute_query(query.body)
        if isinstance(query, ast.SetOp):
            name = f"setop {query.op.upper().replace(' ', '-')}"
            return self._run_under(name, self._run_setop, query)
        if isinstance(query, ast.Select):
            return self._run_under("select", self._execute_select, query)
        raise PlanError(f"not a query: {query!r}")

    def _run_under(
        self, name: str, run: Callable[[Any], QueryResult], query: ast.Query
    ) -> QueryResult:
        """``run(query)`` under a ``name`` span recording its rows_out."""
        saved = self.trace
        span = saved.child(name)
        self.trace = span
        try:
            with span:
                result = run(query)
                span.set("rows_out", len(result.rows))
            return result
        finally:
            self.trace = saved

    def _run_setop(self, query: ast.SetOp) -> QueryResult:
        left = self.execute_query(query.left)
        right = self.execute_query(query.right)
        self.trace.inc("rows_in_left", len(left.rows))
        self.trace.inc("rows_in_right", len(right.rows))
        if len(left.columns) != len(right.columns):
            raise PlanError("set operation arity mismatch")
        op = query.op.upper()
        if op == "UNION ALL":
            rows = left.rows + right.rows
        elif op == "UNION":
            rows = list(dict.fromkeys(left.rows + right.rows))
        elif op == "INTERSECT":
            right_set = set(right.rows)
            rows = list(dict.fromkeys(r for r in left.rows if r in right_set))
        elif op == "EXCEPT":
            right_set = set(right.rows)
            rows = list(dict.fromkeys(r for r in left.rows if r not in right_set))
        else:
            raise PlanError(f"unsupported set operation {query.op!r}")
        rows = self._order_output(rows, left.columns, query.order_by)
        rows = _apply_limit(rows, query.limit, query.offset)
        result = QueryResult(left.columns, rows)
        # Affinity meet: a slot keeps its claim only when both branches
        # agree (every output row came from one of them).
        left_types = getattr(left, "column_types", None)
        right_types = getattr(right, "column_types", None)
        if (
            left_types is not None
            and right_types is not None
            and len(left_types) == len(right_types)
        ):
            meet = [
                a if a is b else None
                for a, b in zip(left_types, right_types)
            ]
            if any(m is not None for m in meet):
                result.column_types = meet
        return result

    # -------------------------------------------------------------- select

    def _execute_select(self, select: ast.Select) -> QueryResult:
        scope, scope_types, chunks = self._plan_from_where(select)
        is_aggregate = (
            bool(select.group_by)
            or select.having is not None
            or any(
                item.expr is not None and contains_aggregate(item.expr)
                for item in select.items
            )
        )
        # The pipeline streams chunks; downstream consumers (aggregate loop,
        # materialization) take rows. chain.from_iterable is a C-level
        # flatten, so this keeps the batched wins.
        rows: Iterable[Row]
        if not is_aggregate:
            rows = flatten(chunks)
        else:
            base_scope = scope
            span = self.trace.child("aggregate")
            with span:
                scope, rows = self._aggregate(
                    select, scope, flatten(span.count_batches(chunks, "rows_in"))
                )
                span.set("rows_out", len(rows))
            scope_types = self._extend_agg_types(scope_types, base_scope)
            if select.having is not None:
                condition = compile_expr(
                    _rewrite_with_index(select.having, self._agg_index), scope
                )
                rows = [row for row in rows if condition(row) is True]
        items = self._expand_items(select.items, scope)
        column_names = [name for name, _ in items]
        item_exprs = [expr for _, expr in items]
        if is_aggregate:
            item_exprs = [
                _rewrite_with_index(expr, self._agg_index) for expr in item_exprs
            ]
        evaluators = [compile_expr(expr, scope) for expr in item_exprs]
        # Project whole row lists through a compiled kernel (itemgetter /
        # generated comprehension) when the items allow it.
        kernel = compile_projection_kernel(item_exprs, scope)

        def project(rows_list: list[Row]) -> list[Row]:
            if kernel is not None:
                return kernel(rows_list)
            return [
                tuple(evaluator(row) for evaluator in evaluators)
                for row in rows_list
            ]

        needs_scope_sort = False
        order_plan: list[tuple[str, Any, bool]] = []  # (kind, key, ascending)
        for order_item in select.order_by:
            resolved = self._resolve_order_item(order_item, column_names, scope)
            order_plan.append(resolved)
            if resolved[0] == "scope":
                needs_scope_sort = True

        materialized = list(rows)
        if needs_scope_sort:
            materialized = self._sort_scope_rows(
                materialized, order_plan, evaluators, scope
            )
            projected = project(materialized)
            if select.distinct:
                projected = self._distinct(projected)
        else:
            projected = project(materialized)
            if select.distinct:
                projected = self._distinct(projected)
            if order_plan:
                projected = _sort_projected(projected, order_plan)
        projected = _apply_limit(projected, select.limit, select.offset)
        if is_aggregate or any(
            not isinstance(expr, ast.Column) for expr in item_exprs
        ):
            # Pure-column projections are canonical by induction (base TEXT
            # columns are interned; CTE/subquery results were canonicalized
            # when produced); only computed items — or aggregates over
            # computed arguments — can mint plain strings.
            _canonicalize_rows(projected, self.db.dictionary.lookup)
        result = QueryResult(column_names, projected)
        # Affinity inference for downstream kernels: a CTE scanning this
        # result knows which slots hold only interned TEXT ids.
        result.column_types = _output_affinities(item_exprs, scope, scope_types)
        return result

    def _extend_agg_types(
        self,
        scope_types: list[ColumnType | None] | None,
        base_scope: Scope,
    ) -> list[ColumnType | None] | None:
        """Affinities for the aggregate-extended scope: the representative
        row keeps the input slots' affinities; MIN/MAX of a column carry
        its affinity through (they return a stored value or NULL)."""
        extra: list[ColumnType | None] = []
        for aggregate, _ in sorted(self._agg_index.items(), key=lambda kv: kv[1]):
            affinity = None
            if aggregate.func.upper() in ("MIN", "MAX") and isinstance(
                aggregate.arg, ast.Column
            ):
                affinity = _infer_affinity(aggregate.arg, base_scope, scope_types)
            extra.append(affinity)
        if scope_types is None and not any(a is not None for a in extra):
            return None
        base = (
            scope_types
            if scope_types is not None
            else [None] * len(base_scope)
        )
        return list(base) + extra

    def _distinct(self, projected: list[Row]) -> list[Row]:
        deduped = list(dict.fromkeys(projected))
        self.trace.child("distinct", rows_in=len(projected), rows_out=len(deduped))
        return deduped

    def _resolve_order_item(
        self, order_item: ast.OrderItem, column_names: list[str], scope: Scope
    ) -> tuple[str, Any, bool]:
        expr = order_item.expr
        if isinstance(expr, ast.Const) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(column_names):
                raise PlanError(f"ORDER BY position {expr.value} out of range")
            return ("output", position, order_item.ascending)
        if isinstance(expr, ast.Column) and expr.table is None:
            lowered = [name.lower() for name in column_names]
            if lowered.count(expr.name.lower()) == 1:
                return ("output", lowered.index(expr.name.lower()), order_item.ascending)
        evaluator = compile_expr(expr, scope)
        return ("scope", evaluator, order_item.ascending)

    def _sort_scope_rows(
        self,
        rows: list[Row],
        order_plan: list[tuple[str, Any, bool]],
        evaluators: list,
        scope: Scope,
    ) -> list[Row]:
        # Descending keys are handled by repeated stable sorts from the last
        # key to the first.
        result = list(rows)
        for kind, key, ascending in reversed(order_plan):
            if kind == "scope":
                extractor = key
            else:
                evaluator = evaluators[key]
                extractor = evaluator
            result.sort(key=lambda row: sort_key(extractor(row)), reverse=not ascending)
        return result

    def _expand_items(
        self, items: tuple[ast.SelectItem, ...], scope: Scope
    ) -> list[tuple[str, ast.Expr]]:
        expanded: list[tuple[str, ast.Expr]] = []
        for position, item in enumerate(items):
            if item.expr is None:
                for binding, name in scope.slots:
                    if binding == "#agg":
                        continue
                    expanded.append((name, ast.Column(binding, name)))
                continue
            if item.alias:
                name = item.alias
            elif isinstance(item.expr, ast.Column):
                name = item.expr.name
            else:
                name = f"col{position + 1}"
            expanded.append((name, item.expr))
        return expanded

    # ---------------------------------------------------------- FROM/WHERE

    def _plan_from_where(
        self, select: ast.Select
    ) -> tuple[Scope, list[ColumnType | None] | None, Chunks]:
        """Plan FROM/WHERE; returns (scope, per-slot affinities, chunks)."""
        if select.from_ is None:
            scope = Scope([])
            chunk: Chunk = [()]
            if select.where is not None:
                condition = compile_expr(select.where, scope)
                chunk = [row for row in chunk if condition(row) is True]
            return scope, [], iter([chunk] if chunk else [])

        units = _flatten_from(select.from_)
        remaining = ast.split_conjuncts(select.where)

        first_item, _, _ = units[0]
        planned = self._plan_unit(first_item)
        scope = planned.scope
        types = planned.types
        rows, remaining = self._apply_local(planned, remaining)

        for item, kind, on in units[1:]:
            right = self._plan_unit(item)
            outer = kind == "LEFT"
            merged = scope.merged_with(right.scope)
            candidates = ast.split_conjuncts(on)
            if not outer:
                # WHERE conjuncts that become resolvable with this unit
                # join the ON candidates (inner joins only).
                pulled = []
                for conjunct in remaining:
                    if _resolves_in(conjunct, merged) and not _resolves_in(
                        conjunct, scope
                    ):
                        pulled.append(conjunct)
                for conjunct in pulled:
                    remaining.remove(conjunct)
                candidates.extend(pulled)
            rows = self._join(scope, types, rows, right, candidates, outer)
            types = _merge_types(types, len(scope), right.types, len(right.scope))
            scope = merged

        # Apply any still-unapplied conjuncts (e.g. IS NULL over LEFT joins).
        leftovers = []
        for conjunct in remaining:
            if not _resolves_in(conjunct, scope):
                raise PlanError(f"cannot resolve WHERE condition {conjunct!r}")
            leftovers.append(conjunct)
        if leftovers:
            rows = self._filtered(rows, ast.conjoin(leftovers), scope, types)
        return scope, types, rows

    def _metered(
        self, factory: ChunksFactory, name: str, **attrs
    ) -> ChunksFactory:
        """Wrap a chunk-source factory in an operator span.

        The span is created on first use — a factory the planner ends up
        bypassing (e.g. a seq scan displaced by an index probe) leaves no
        phantom operator — and accumulates rows_out / inclusive time across
        every invocation (a nested-loop right side re-runs per left batch)."""
        parent = self.trace
        state: dict[str, Any] = {}

        def wrapped() -> Chunks:
            span = state.get("span")
            if span is None:
                span = parent.child(name, **attrs)
                state["span"] = span
            return span.meter_batches(factory())

        return wrapped

    def _plan_unit(self, item: ast.FromItem) -> PlannedUnit:
        if isinstance(item, ast.TableRef):
            key = item.name.lower()
            if key in self.cte_env:
                result = self.cte_env[key]
                binding = item.binding
                scope = Scope([(binding, name) for name in result.columns])
                rows_list = result.rows
                factory = self._metered(
                    lambda: chunk_list(rows_list), f"cte-scan {item.name}"
                )
                return PlannedUnit(
                    scope, factory, None, getattr(result, "column_types", None)
                )
            table = self.db.table(item.name)
            binding = item.binding
            scope = Scope([(binding, name) for name in table.schema.column_names])
            ticker = self.ticker
            version = self.version
            factory = self._metered(
                lambda: seq_scan_batches(table, ticker, version),
                f"seq-scan {table.name}",
                table_rows=len(table),
            )
            return PlannedUnit(
                scope, factory, table, list(table.schema.column_types)
            )
        if isinstance(item, ast.SubqueryRef):
            result = self.execute_query(item.query)
            scope = Scope([(item.alias, name) for name in result.columns])
            rows_list = result.rows
            return PlannedUnit(
                scope,
                lambda: chunk_list(rows_list),
                None,
                getattr(result, "column_types", None),
            )
        if isinstance(item, ast.Join):
            # A parenthesized join subtree: plan it as a nested pipeline.
            sub_select = ast.Select(items=(ast.SelectItem.star(),), from_=item)
            sub_scope, sub_types, sub_chunks = self._plan_from_where(sub_select)
            rows_list = list(flatten(sub_chunks))
            return PlannedUnit(
                sub_scope, lambda: chunk_list(rows_list), None, sub_types
            )
        raise PlanError(f"cannot plan FROM item {item!r}")

    def _apply_local(
        self, planned: PlannedUnit, remaining: list[ast.Expr]
    ) -> tuple[Chunks, list[ast.Expr]]:
        """Apply WHERE conjuncts local to a just-planned first unit, using an
        index for constant equality when available."""
        local = [c for c in remaining if _resolves_in(c, planned.scope)]
        rest = [c for c in remaining if c not in local]
        index_match = None
        if planned.base is not None and local:
            index_match = _find_const_index_lookup(
                planned.base, planned.scope, local
            )
        if index_match is not None:
            index, key, local = index_match
            span = self.trace.child(
                f"index-scan {planned.base.name}", index=index.name
            )
            rows = span.meter_batches(
                index_scan_batches(index, key, self.ticker, self.version)
            )
        else:
            rows = planned.factory()
        if local:
            rows = self._filtered(
                rows, ast.conjoin(local), planned.scope, planned.types
            )
        return rows, rest

    def _filtered(
        self,
        rows: Chunks,
        expr: ast.Expr,
        scope: Scope,
        column_types: list[ColumnType | None] | None,
    ) -> Chunks:
        """A filter operator, metered (rows-in/rows-out/time).

        A whole-chunk kernel is compiled from the predicate AST for the
        supported subset; otherwise the row-wise evaluator runs per row
        inside each chunk."""
        kernel = compile_filter_kernel(
            expr, scope, self.db.dictionary, column_types
        )
        condition = compile_expr(expr, scope) if kernel is None else None
        span = self.trace.child("filter")
        return span.meter_batches(
            filter_batches(
                span.count_batches(rows, "rows_in"),
                kernel,
                condition,
                self.ticker,
            )
        )

    def _join(
        self,
        left_scope: Scope,
        left_types: list[ColumnType | None] | None,
        left_rows: Chunks,
        right: PlannedUnit,
        candidates: list[ast.Expr],
        outer: bool,
    ) -> Chunks:
        merged = left_scope.merged_with(right.scope)
        merged_types = _merge_types(
            left_types, len(left_scope), right.types, len(right.scope)
        )
        right_only: list[ast.Expr] = []
        equi_pairs: list[tuple[ast.Column, ast.Column]] = []
        residual: list[ast.Expr] = []
        for conjunct in candidates:
            pair = _as_equi_pair(conjunct, left_scope, right.scope)
            if pair is not None:
                equi_pairs.append(pair)
            elif _resolves_in(conjunct, right.scope):
                right_only.append(conjunct)
            elif _resolves_in(conjunct, merged):
                residual.append(conjunct)
            else:
                raise PlanError(f"cannot resolve join condition {conjunct!r}")

        # Inner-join residuals are equivalent to a post-join WHERE; running
        # them as a dedicated filter makes them kernel-eligible (the hot
        # COALESCE compat conditions in generated SQL land here) instead of
        # a per-row closure inside the join. Outer joins must keep the
        # residual inside: its failure produces the NULL-padded row.
        post_residual: list[ast.Expr] = []
        if residual and not outer:
            post_residual = residual
            residual = []

        def _finish(joined: Chunks) -> Chunks:
            if not post_residual:
                return joined
            return self._filtered(
                joined, ast.conjoin(post_residual), merged, merged_types
            )

        residual_eval = (
            compile_expr(ast.conjoin(residual), merged) if residual else None
        )

        # Try an index-nested-loop join: right base table indexed on one of
        # the equi-join columns (the DPH/RPH "entry" probe pattern), or on a
        # constant-equality column from right_only.
        if right.base is not None:
            probe = self._try_index_probe(
                left_scope,
                right,
                equi_pairs,
                right_only,
                residual_eval,
                outer,
                defer=None if outer else post_residual,
            )
            if probe is not None:
                span = self.trace.child(
                    f"index-join {right.base.name}", outer=outer
                )
                return _finish(
                    span.meter_batches(
                        probe(span.count_batches(left_rows, "rows_in_left"))
                    )
                )

        if equi_pairs:
            left_slots = [left_scope.resolve(left_col) for left_col, _ in equi_pairs]
            right_slots = [right.scope.resolve(right_col) for _, right_col in equi_pairs]
            right_rows = right.factory()
            if right_only:
                right_rows = self._filtered(
                    right_rows, ast.conjoin(right_only), right.scope, right.types
                )
            span = self.trace.child("hash-join", outer=outer)
            joined = hash_join_batches(
                span.count_batches(left_rows, "rows_in_left"),
                span.count_batches(right_rows, "rows_in_right"),
                left_slots,
                right_slots,
                len(right.scope),
                residual_eval,
                outer,
                self.ticker,
            )
            return _finish(span.meter_batches(joined))

        # No equi keys: nested loop with the full condition (the rare
        # non-equi path; the operator flattens both sides and re-chunks).
        right_condition = (
            compile_expr(ast.conjoin(right_only), right.scope) if right_only else None
        )
        ticker = self.ticker
        span = self.trace.child("nested-loop-join", outer=outer)

        def _right_rows() -> Chunks:
            chunks = right.factory()
            if right_condition is not None:
                chunks = filter_batches(chunks, None, right_condition, ticker)
            return span.count_batches(chunks, "rows_in_right")

        joined = nested_loop_join_batches(
            span.count_batches(left_rows, "rows_in_left"),
            _right_rows,
            len(right.scope),
            residual_eval,
            outer,
            self.ticker,
        )
        return _finish(span.meter_batches(joined))

    def _try_index_probe(
        self,
        left_scope: Scope,
        right: PlannedUnit,
        equi_pairs: list[tuple[ast.Column, ast.Column]],
        right_only: list[ast.Expr],
        residual_eval,
        outer: bool,
        defer: list[ast.Expr] | None = None,
    ):
        """``defer`` (inner joins only): extra equality conjuncts beyond the
        probed index key are appended there for the caller's post-join
        kernel filter instead of running as a per-row closure inside the
        probe."""
        assert right.base is not None
        for pair_position, (left_col, right_col) in enumerate(equi_pairs):
            index = find_index(right.base, [right_col.name])
            if index is None:
                continue
            left_slot = left_scope.resolve(left_col)
            other_pairs = [
                p for i, p in enumerate(equi_pairs) if i != pair_position
            ]
            merged = left_scope.merged_with(right.scope)
            extra_residuals = [
                ast.BinOp("=", lhs, rhs) for lhs, rhs in other_pairs
            ]
            if defer is not None:
                # Inner join: the probed key is the only work the index can
                # save; every other conjunct — extra equi pairs and
                # right-side constant filters — emits through to the
                # post-join kernel filter, which runs whole-chunk instead
                # of one closure call per candidate row.
                defer.extend(extra_residuals)
                defer.extend(right_only)
                extra_residuals = []
                right_only = []
            combined_residual = residual_eval
            if extra_residuals:
                extra_eval = compile_expr(ast.conjoin(extra_residuals), merged)
                if residual_eval is None:
                    combined_residual = extra_eval
                else:
                    prior = residual_eval

                    def combined(row, prior=prior, extra=extra_eval):
                        return (
                            True
                            if prior(row) is True and extra(row) is True
                            else False
                        )

                    combined_residual = combined
            right_filter = (
                compile_expr(ast.conjoin(right_only), right.scope)
                if right_only
                else None
            )
            ticker = self.ticker
            width = len(right.scope)
            version = self.version

            def probe(left_chunks, index=index, left_slot=left_slot):
                return index_join_batches(
                    left_chunks,
                    index,
                    left_slot,
                    width,
                    right_filter,
                    combined_residual,
                    outer,
                    ticker,
                    version,
                )

            return probe
        return None

    # ----------------------------------------------------------- aggregate

    _agg_index: dict[ast.Aggregate, int]

    def _aggregate(
        self, select: ast.Select, scope: Scope, rows: Iterable[Row]
    ) -> tuple[Scope, list[Row]]:
        aggregates: dict[ast.Aggregate, int] = {}
        for item in select.items:
            if item.expr is not None:
                _rewrite_aggregates(item.expr, aggregates)
        if select.having is not None:
            _rewrite_aggregates(select.having, aggregates)
        self._agg_index = aggregates

        group_exprs = [
            self._resolve_group_expr(expr, select, scope) for expr in select.group_by
        ]
        group_evals = [compile_expr(expr, scope) for expr in group_exprs]
        agg_list = sorted(aggregates.items(), key=lambda kv: kv[1])
        arg_evals = []
        for aggregate, _ in agg_list:
            if aggregate.arg is None:
                arg_evals.append(None)
            else:
                arg_evals.append(compile_expr(aggregate.arg, scope))

        groups: dict[tuple, tuple[Row, list[AggregateState]]] = {}
        star = count_star_sentinel()
        for row in rows:
            self.ticker.tick()
            key = tuple(evaluator(row) for evaluator in group_evals)
            entry = groups.get(key)
            if entry is None:
                states = [
                    AggregateState(aggregate.func.upper(), aggregate.distinct)
                    for aggregate, _ in agg_list
                ]
                entry = (row, states)
                groups[key] = entry
            for (aggregate, _), state, arg_eval in zip(
                agg_list, entry[1], arg_evals
            ):
                state.add(star if arg_eval is None else arg_eval(row))

        if not groups and not select.group_by:
            empty_row = (None,) * len(scope)
            states = [
                AggregateState(aggregate.func.upper(), aggregate.distinct)
                for aggregate, _ in agg_list
            ]
            groups[()] = (empty_row, states)

        extended_scope = Scope(
            scope.slots + [("#agg", f"agg{i}") for i in range(len(agg_list))]
        )
        extended_rows = [
            rep + tuple(state.result() for state in states)
            for rep, states in groups.values()
        ]
        return extended_scope, extended_rows

    def _resolve_group_expr(
        self, expr: ast.Expr, select: ast.Select, scope: Scope
    ) -> ast.Expr:
        """GROUP BY may name a select alias or a 1-based output position."""
        if isinstance(expr, ast.Const) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(select.items):
                raise PlanError(f"GROUP BY position {expr.value} out of range")
            item = select.items[position]
            if item.expr is None:
                raise PlanError("GROUP BY position cannot reference *")
            return item.expr
        if isinstance(expr, ast.Column) and expr.table is None and not scope.contains(expr):
            for item in select.items:
                if item.alias and item.alias.lower() == expr.name.lower():
                    if item.expr is None:
                        break
                    return item.expr
        return expr

    # ------------------------------------------------------------- sorting

    def _order_output(
        self,
        rows: list[Row],
        columns: list[str],
        order_by: tuple[ast.OrderItem, ...],
    ) -> list[Row]:
        if not order_by:
            return rows
        plan = []
        for order_item in order_by:
            expr = order_item.expr
            if isinstance(expr, ast.Const) and isinstance(expr.value, int):
                plan.append((expr.value - 1, order_item.ascending))
            elif isinstance(expr, ast.Column) and expr.table is None:
                lowered = [name.lower() for name in columns]
                if expr.name.lower() not in lowered:
                    raise PlanError(f"unknown ORDER BY column {expr.name!r}")
                plan.append((lowered.index(expr.name.lower()), order_item.ascending))
            else:
                raise PlanError("set-operation ORDER BY must use output columns")
        result = list(rows)
        for position, ascending in reversed(plan):
            result.sort(key=lambda row: sort_key(row[position]), reverse=not ascending)
        return result


def _merge_types(
    left_types: list[ColumnType | None] | None,
    left_width: int,
    right_types: list[ColumnType | None] | None,
    right_width: int,
) -> list[ColumnType | None] | None:
    """Concatenate per-slot affinities across a join (None = unknown)."""
    if left_types is None and right_types is None:
        return None
    left = left_types if left_types is not None else [None] * left_width
    right = right_types if right_types is not None else [None] * right_width
    return list(left) + list(right)


def _infer_affinity(
    expr: ast.Expr,
    scope: Scope,
    types: list[ColumnType | None] | None,
) -> ColumnType | None:
    """The affinity of a projected expression, or None when unknown.

    Only claims an affinity when the expression provably passes stored
    values through unchanged: a column reference, or a COALESCE whose
    branches all share one affinity. Anything computed (functions, string
    literals, arithmetic) stays unknown — its values may be plain strings
    that equal an interned value lexically without sharing its id."""
    if types is None:
        return None
    if isinstance(expr, ast.Column):
        try:
            slot = scope.resolve(expr)
        except PlanError:
            return None
        return types[slot] if slot < len(types) else None
    if (
        isinstance(expr, ast.FuncCall)
        and expr.name.upper() == "COALESCE"
        and expr.args
    ):
        affinities = [_infer_affinity(arg, scope, types) for arg in expr.args]
        first = affinities[0]
        if first is not None and all(a is first for a in affinities):
            return first
        return None
    return None


def _output_affinities(
    item_exprs: list[ast.Expr],
    scope: Scope,
    types: list[ColumnType | None] | None,
) -> list[ColumnType | None] | None:
    if types is None:
        return None
    out = [_infer_affinity(expr, scope, types) for expr in item_exprs]
    return out if any(a is not None for a in out) else None


def _canonicalize_rows(rows: list[Row], lookup: Any) -> None:
    """Give every interned string one representation in result rows.

    Projections can emit plain strings (literals, function results) next to
    dictionary-encoded column values. Downstream consumers that compare raw
    values — set operations, DISTINCT over a CTE scan, hash joins on
    derived columns — need equal strings to be *identical* values, so any
    plain string the dictionary knows is replaced by its id (in place;
    lookup never allocates, and a string without an id has no encoded twin
    anywhere, so leaving it plain is exact)."""
    for position, row in enumerate(rows):
        for value in row:
            if type(value) is str and lookup(value) is not None:
                rows[position] = tuple(
                    encoded
                    if type(v) is str and (encoded := lookup(v)) is not None
                    else v
                    for v in row
                )
                break


def _sort_projected(
    rows: list[Row], order_plan: list[tuple[str, Any, bool]]
) -> list[Row]:
    result = list(rows)
    for kind, key, ascending in reversed(order_plan):
        assert kind == "output"
        result.sort(key=lambda row: sort_key(row[key]), reverse=not ascending)
    return result


def _apply_limit(rows: list[Row], limit: int | None, offset: int | None) -> list[Row]:
    start = offset or 0
    if limit is None:
        return rows[start:] if start else rows
    return rows[start:start + limit]


def _flatten_from(item: ast.FromItem) -> list[tuple[ast.FromItem, str, ast.Expr | None]]:
    """Flatten a left-deep join tree into [(unit, join_kind, on), ...]."""
    if isinstance(item, ast.Join):
        units = _flatten_from(item.left)
        units.append((item.right, item.kind, item.on))
        return units
    return [(item, "FIRST", None)]


def _resolves_in(expr: ast.Expr, scope: Scope) -> bool:
    columns = expr_columns(expr)
    return all(scope.contains(column) for column in columns)


def _as_equi_pair(
    expr: ast.Expr, left_scope: Scope, right_scope: Scope
) -> tuple[ast.Column, ast.Column] | None:
    """Recognize ``left.col = right.col`` (either orientation)."""
    if not (isinstance(expr, ast.BinOp) and expr.op == "="):
        return None
    lhs, rhs = expr.left, expr.right
    if not (isinstance(lhs, ast.Column) and isinstance(rhs, ast.Column)):
        return None
    if left_scope.contains(lhs) and right_scope.contains(rhs) and not (
        right_scope.contains(lhs) or left_scope.contains(rhs)
    ):
        return (lhs, rhs)
    if left_scope.contains(rhs) and right_scope.contains(lhs) and not (
        right_scope.contains(rhs) or left_scope.contains(lhs)
    ):
        return (rhs, lhs)
    return None


def _find_const_index_lookup(
    table: Table, scope: Scope, conjuncts: list[ast.Expr]
) -> tuple[HashIndex, tuple, list[ast.Expr]] | None:
    """Find ``col = const`` conjuncts matching a hash index on ``table``."""
    const_eq: dict[str, Any] = {}
    sources: dict[str, ast.Expr] = {}
    for conjunct in conjuncts:
        if not (isinstance(conjunct, ast.BinOp) and conjunct.op == "="):
            continue
        column, const = None, None
        if isinstance(conjunct.left, ast.Column) and isinstance(
            conjunct.right, ast.Const
        ):
            column, const = conjunct.left, conjunct.right
        elif isinstance(conjunct.right, ast.Column) and isinstance(
            conjunct.left, ast.Const
        ):
            column, const = conjunct.right, conjunct.left
        if column is None or not scope.contains(column):
            continue
        if const.value is None:
            continue  # col = NULL is unknown, never a valid index probe
        name = column.name.lower()
        if name not in const_eq:
            const_eq[name] = const.value
            sources[name] = conjunct
    if not const_eq:
        return None
    for index in table.indexes:
        if not isinstance(index, HashIndex):
            continue
        names = [c.lower() for c in index.column_names]
        if all(name in const_eq for name in names):
            key = tuple(
                _encode_probe_value(table, name, const_eq[name])
                for name in names
            )
            used = {sources[name] for name in names}
            leftovers = [c for c in conjuncts if c not in used]
            return index, key, leftovers
    return None


def _encode_probe_value(table: Table, column_name: str, value: Any) -> Any:
    """Translate an index-probe constant into the stored representation.

    TEXT columns hold dictionary ids, so the probe key must be the
    constant's id. A constant the dictionary has never seen — or a non-text
    constant probing a TEXT column — cannot match any stored value; an
    unmatchable sentinel keeps the probe (and its empty result) instead of
    falling back to a scan."""
    position = table.schema.position(column_name)
    if table.schema.column_types[position] is not ColumnType.TEXT:
        return value
    if isinstance(value, str):
        encoded = table.dictionary.lookup(value)
        if encoded is not None:
            return encoded
    return _NEVER_MATCHES


#: hashable sentinel that equals nothing stored in any index bucket
_NEVER_MATCHES = object()


def _rewrite_aggregates(
    expr: ast.Expr, registry: dict[ast.Aggregate, int]
) -> tuple[ast.Expr, bool]:
    """Register aggregates found in ``expr``; returns (expr, found_any)."""
    found = False
    for aggregate in _collect_aggregates(expr):
        found = True
        if aggregate not in registry:
            registry[aggregate] = len(registry)
    return expr, found


def _collect_aggregates(expr: ast.Expr | None) -> list[ast.Aggregate]:
    if expr is None:
        return []
    if isinstance(expr, ast.Aggregate):
        return [expr]
    if isinstance(expr, ast.BinOp):
        return _collect_aggregates(expr.left) + _collect_aggregates(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _collect_aggregates(expr.operand)
    if isinstance(expr, ast.IsNull):
        return _collect_aggregates(expr.operand)
    if isinstance(expr, ast.InList):
        found = _collect_aggregates(expr.operand)
        for item in expr.items:
            found.extend(_collect_aggregates(item))
        return found
    if isinstance(expr, ast.Like):
        return _collect_aggregates(expr.operand) + _collect_aggregates(expr.pattern)
    if isinstance(expr, ast.FuncCall):
        found = []
        for arg in expr.args:
            found.extend(_collect_aggregates(arg))
        return found
    if isinstance(expr, ast.Case):
        found = []
        for cond, result in expr.whens:
            found.extend(_collect_aggregates(cond))
            found.extend(_collect_aggregates(result))
        found.extend(_collect_aggregates(expr.default))
        return found
    return []


def _rewrite_with_index(
    expr: ast.Expr, registry: dict[ast.Aggregate, int]
) -> ast.Expr:
    """Replace Aggregate nodes with references to the synthetic #agg columns."""
    if isinstance(expr, ast.Aggregate):
        return ast.Column("#agg", f"agg{registry[expr]}")
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(
            expr.op,
            _rewrite_with_index(expr.left, registry),
            _rewrite_with_index(expr.right, registry),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _rewrite_with_index(expr.operand, registry))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_rewrite_with_index(expr.operand, registry), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(
            _rewrite_with_index(expr.operand, registry),
            tuple(_rewrite_with_index(item, registry) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.Like):
        return ast.Like(
            _rewrite_with_index(expr.operand, registry),
            _rewrite_with_index(expr.pattern, registry),
            expr.negated,
        )
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name,
            tuple(_rewrite_with_index(arg, registry) for arg in expr.args),
        )
    if isinstance(expr, ast.Case):
        return ast.Case(
            tuple(
                (
                    _rewrite_with_index(cond, registry),
                    _rewrite_with_index(result, registry),
                )
                for cond, result in expr.whens
            ),
            _rewrite_with_index(expr.default, registry)
            if expr.default is not None
            else None,
        )
    return expr
