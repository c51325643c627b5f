"""End-to-end SPARQL evaluation: the paper's Figure 5 architecture.

``SparqlEngine`` wires the stages together: parse tree → data flow graph →
optimal flow tree (DFB) → execution tree (QPB) → merged query plan →
SQL → backend execution → term decoding. The ``optimizer="naive"`` mode
replaces the flow-guided plan with the bottom-up textual-order plan, which
is the sub-optimal comparator of §3.3 / Figure 14.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from ..backends.base import Backend
from ..core.observe import Tracer, traced
from ..core.querycache import (
    DEFAULT_CACHE_SIZE,
    CacheInfo,
    CachedPlan,
    QueryCache,
    canonicalize_sparql,
)
from ..core.stats import DatasetStatistics
from ..rdf.terms import Term, term_from_key
from ..relational import ast as sql
from .algebra import PatternTree, normalize
from .ast import AskQuery, SelectQuery, TriplePattern, Var
from .optimizer import cost as cost_model
from .optimizer.cost import ACO, ACS, ALL_METHODS, SC
from .optimizer.dataflow import build_data_flow_graph, optimal_flow_tree
from .optimizer.merge import MergeContext, merge_execution_tree
from .optimizer.planbuilder import (
    ExecNode,
    JoinOrderPlan,
    build_execution_tree,
    enumerate_join_orders,
    flow_from_order,
    textual_execution_tree,
)
from .parser import parse_sparql
from .results import SelectResult
from .translator.pipeline import PipelineTranslator, TripleEmitter


OPTIMIZERS = ("hybrid", "cost", "naive")


@dataclass(frozen=True)
class EngineConfig:
    """Evaluation knobs (ablations flip these).

    Frozen: compiled plans are cached under a fingerprint of these fields,
    so a config must not drift after its plans are cached. Build a new
    ``EngineConfig`` (e.g. via ``dataclasses.replace``) instead of mutating.
    """

    #: "hybrid" (flow-guided heuristic), "cost" (statistics-driven join-order
    #: enumeration with heuristic fallback), or "naive" (textual order)
    optimizer: str = "hybrid"
    merge: bool = True  # star-query node merging on/off
    methods: tuple[str, ...] = ALL_METHODS
    use_statistics: bool = True  # False: cost-blind flow (heuristics only)
    cache_size: int = DEFAULT_CACHE_SIZE  # plan-cache entries; <= 0 disables

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; "
                f"expected one of {', '.join(OPTIMIZERS)}"
            )
        # Accept any iterable of methods but store a tuple: the fingerprint
        # must be hashable and the menu immutable once plans are cached.
        if not isinstance(self.methods, tuple):
            object.__setattr__(self, "methods", tuple(self.methods))

    def fingerprint(self) -> tuple:
        """The plan-cache key component: every knob that changes compiled
        SQL. Plans compiled under different knobs never cross-contaminate."""
        return (self.optimizer, self.merge, self.methods, self.use_statistics)


def _decode_rows(raw_rows: list[tuple], width: int) -> list[tuple[Term | None, ...]]:
    """Backend rows (term keys) to terms; ``width`` drops any trailing
    marker column (ASK)."""
    return [
        tuple(None if key is None else term_from_key(key) for key in row[:width])
        for row in raw_rows
    ]


class SparqlEngine:
    """Compiles and runs SPARQL queries for one store."""

    def __init__(
        self,
        backend: Backend,
        emitter: TripleEmitter,
        stats: DatasetStatistics,
        spill_direct: frozenset[str] = frozenset(),
        spill_reverse: frozenset[str] = frozenset(),
        config: EngineConfig | None = None,
        cache: QueryCache | None = None,
    ) -> None:
        self.backend = backend
        self.emitter = emitter
        self.stats = stats
        self.spill_direct = spill_direct
        self.spill_reverse = spill_reverse
        self.config = config or EngineConfig()
        # Stores pass a long-lived cache that survives engine rebuilds (the
        # engine is reconstructed whenever storage metadata changes); a
        # standalone engine owns a private one sized per the config.
        self.cache = cache if cache is not None else QueryCache(self.config.cache_size)

    # ------------------------------------------------------------- compile

    def compile(
        self, sparql: "str | SelectQuery | AskQuery"
    ) -> tuple[sql.Query, SelectQuery]:
        """Translate SPARQL (text or an already parsed/rewritten query
        object) to a SQL query; returns (sql, normalized query). Always
        compiles from scratch — :meth:`query` adds the cached fast path."""
        compiled, select, _, _ = self._compile_stages(sparql)
        return compiled, select

    def _compile_stages(
        self,
        sparql: "str | SelectQuery | AskQuery",
        tracer: Tracer | None = None,
    ) -> tuple[sql.Query, SelectQuery, dict[str, float], dict[str, Any]]:
        """The full pipeline with per-stage wall timings (parse / plan /
        translate) for the cache's compile-cost accounting, plus the
        planner's decision record (which planner produced the join order,
        its confidence and estimates). Every stage (and the planner's
        sub-stages) opens a span of ``tracer``."""
        tracer = traced(tracer)
        started = time.perf_counter()
        with tracer.span("parse"):
            parsed = parse_sparql(sparql) if isinstance(sparql, str) else sparql
            if isinstance(parsed, AskQuery):
                select = SelectQuery(variables=None, where=parsed.where, limit=1)
            else:
                select = parsed
            select = normalize(select)
        parsed_at = time.perf_counter()
        with tracer.span("plan", optimizer=self.config.optimizer):
            plan, info = self._plan(select, tracer)
        planned_at = time.perf_counter()
        with tracer.span("translate"):
            translator = PipelineTranslator(self.emitter)
            compiled = translator.translate(plan, select)
        done = time.perf_counter()
        timings = {
            "parse": parsed_at - started,
            "plan": planned_at - parsed_at,
            "translate": done - planned_at,
            "total": done - started,
        }
        return compiled, select, timings, info

    def compile_cached(
        self, sparql: str, tracer: Tracer | None = None, epoch: int | None = None
    ) -> CachedPlan:
        """Return the compiled plan for query text, reusing the plan cache.

        The key is the lexically canonicalized text plus the config
        fingerprint; a hit skips parse → dataflow → planbuild → merge →
        translate entirely. Entries compiled under an older stats epoch are
        invalidated here. ``epoch`` pins the lookup to a snapshot's epoch
        instead of the live one, so snapshot readers neither reuse plans
        from a future epoch nor clobber them.
        """
        key = canonicalize_sparql(sparql)
        fingerprint = self.config.fingerprint()
        if epoch is None:
            epoch = self.stats.epoch
        tracer = traced(tracer)
        with tracer.span("cache") as span:
            entry, outcome = self.cache.probe(key, fingerprint, epoch)
            span.set("outcome", outcome)
        if entry is not None:
            return entry
        compiled, select, timings, info = self._compile_stages(sparql, tracer)
        plan = CachedPlan(
            sql=compiled,
            variables=tuple(select.projected_variables()),
            epoch=epoch,
            compile_seconds=timings["total"],
            planner=str(info.get("planner", self.config.optimizer)),
        )
        self.cache.store(key, fingerprint, plan)
        self.cache.record_timings(**timings)
        return plan

    def cache_info(self) -> CacheInfo:
        """Plan-cache counters and cumulative per-stage compile timings."""
        return self.cache.info()

    def _plan(
        self, select: SelectQuery, tracer: Tracer
    ) -> tuple[ExecNode, dict[str, Any]]:
        pattern_tree = PatternTree.build(select.where)
        triples = select.triples()
        info: dict[str, Any] = {"planner": self.config.optimizer}
        if self.config.optimizer == "naive":
            with tracer.span("planbuild", mode="textual"):
                execution_tree = textual_execution_tree(
                    select.where, self._textual_method_chooser
                )
        else:
            stats = (
                self.stats
                if self.config.use_statistics
                else DatasetStatistics(
                    total_triples=1, distinct_subjects=1, distinct_objects=1
                )
            )
            flow = None
            if self.config.optimizer == "cost":
                with tracer.span("enumerate", triples=len(triples)):
                    plans = enumerate_join_orders(
                        triples, pattern_tree, stats, self.config.methods
                    )
                chosen = plans[0] if plans else None
                threshold = cost_model.MIN_PLAN_CONFIDENCE
                if chosen is not None and chosen.confidence >= threshold:
                    flow = flow_from_order(chosen)
                    info.update(
                        planner="cost",
                        confidence=chosen.confidence,
                        est_rows=chosen.rows,
                        est_cost=chosen.cost,
                        alternatives=len(plans),
                    )
                else:
                    # Low-confidence estimates (empty stats, variable
                    # predicates, decayed sketches): keep the paper's
                    # heuristic order rather than trusting guesswork.
                    info.update(
                        planner="cost-fallback",
                        confidence=(
                            chosen.confidence if chosen is not None else 0.0
                        ),
                        alternatives=len(plans),
                    )
            if flow is None:
                with tracer.span("dataflow", triples=len(triples)):
                    graph = build_data_flow_graph(
                        triples, pattern_tree, stats, self.config.methods
                    )
                    flow = optimal_flow_tree(graph)
            with tracer.span("planbuild", mode="flow"):
                execution_tree = build_execution_tree(select.where, flow)
        if self.config.merge and self.emitter.supports_merge:
            with tracer.span("merge"):
                ctx = MergeContext.build(
                    pattern_tree, triples, self.spill_direct, self.spill_reverse
                )
                return merge_execution_tree(execution_tree, ctx), info
        return execution_tree, info

    def _textual_method_chooser(
        self, triple: TriplePattern, bound: frozenset[str]
    ) -> str:
        """Local, single-triple method choice: constants first, then any
        bound position, then scan — no global flow reasoning."""
        if not isinstance(triple.subject, Var):
            return ACS
        if not isinstance(triple.object, Var):
            return ACO
        if triple.subject.name in bound:
            return ACS
        if triple.object.name in bound:
            return ACO
        return SC

    # --------------------------------------------------------------- query

    def query(
        self,
        sparql: "str | SelectQuery | AskQuery",
        timeout: float | None = None,
        tracer: Tracer | None = None,
        budget: Any = None,
        snapshot: Any = None,
        epoch: int | None = None,
    ) -> SelectResult:
        """Compile (through the plan cache), execute, decode, under
        ``compile`` / ``execute`` / ``decode`` spans; the backend meters
        its own work. Untraced, every span is the no-op ``NO_TRACE`` and
        the backend receives ``tracer=None``."""
        trace = traced(tracer)
        with trace.span("compile"):
            if isinstance(sparql, str) and self.cache.enabled:
                plan = self.compile_cached(sparql, trace, epoch=epoch)
                compiled, variables = plan.sql, list(plan.variables)
            else:
                compiled, select, _, _ = self._compile_stages(sparql, trace)
                variables = select.projected_variables()
        with trace.span("execute", backend=self.backend.name) as span:
            try:
                columns, raw_rows = self.backend.execute(
                    compiled,
                    timeout=timeout,
                    budget=budget,
                    snapshot=snapshot,
                    tracer=tracer,
                )
            finally:
                # Guardrail trips surface as span counters even when the
                # trip aborts the query mid-span.
                if budget is not None:
                    span.set("budget_ticks", budget.ticks)
                    if budget.tripped is not None:
                        span.set("guardrail", budget.tripped)
            if budget is not None:
                budget.enforce_output(len(raw_rows))
            span.set("rows_out", len(raw_rows))
        with trace.span("decode") as span:
            rows = _decode_rows(raw_rows, len(variables))
            span.set("rows_out", len(rows))
        return SelectResult(variables, rows)

    def ask(self, sparql: str, timeout: float | None = None) -> bool:
        return len(self.query(sparql, timeout=timeout)) > 0

    def explain(self, sparql: str) -> str:
        """The generated SQL text (the paper's Figure 13 view)."""
        if isinstance(sparql, str) and self.cache.enabled:
            return self.backend.sql_text(self.compile_cached(sparql).sql)
        compiled, _ = self.compile(sparql)
        return self.backend.sql_text(compiled)

    def explain_plan(self, sparql: str) -> str:
        """EXPLAIN: compile configuration, generated SQL, planner cost
        annotations (for the ``cost`` optimizer: chosen plan's estimated
        rows, cost, confidence, and whether it fell back to the
        heuristic), and — when the backend can describe its own access plan
        (sqlite's ``EXPLAIN QUERY PLAN``) — the backend plan. Compiles but
        never executes."""
        compiled, select, _, info = self._compile_stages(sparql)
        config = self.config
        lines = [
            f"-- backend: {self.backend.name}",
            f"-- optimizer: {config.optimizer}"
            f" (merge={'on' if config.merge else 'off'},"
            f" statistics={'on' if config.use_statistics else 'off'})",
            f"-- methods: {', '.join(config.methods)}",
            f"-- projection: {', '.join(select.projected_variables())}",
        ]
        if info.get("planner") == "cost":
            lines.append(
                "-- plan: cost-based"
                f" (est_rows={info['est_rows']:.1f},"
                f" est_cost={info['est_cost']:.1f},"
                f" confidence={info['confidence']:.2f},"
                f" alternatives={info['alternatives']})"
            )
        elif info.get("planner") == "cost-fallback":
            lines.append(
                "-- plan: heuristic fallback"
                f" (confidence={info['confidence']:.2f}"
                f" < min_plan_confidence={cost_model.MIN_PLAN_CONFIDENCE})"
            )
        lines.append(self.backend.sql_text(compiled))
        explain_backend = getattr(self.backend, "explain_query_plan", None)
        if callable(explain_backend):
            lines.append("-- backend plan:")
            lines.extend("--   " + line for line in explain_backend(compiled))
        return "\n".join(lines)

    # --------------------------------------------- plan-quality instruments

    def plan_alternatives(
        self, sparql: "str | SelectQuery", limit: int = 8
    ) -> tuple[SelectQuery, list[JoinOrderPlan]]:
        """Parse once and enumerate up to ``limit`` ranked join orders.

        The instrument behind the plan-quality battery: each returned
        order can be compiled with :meth:`compile_with_order` (sharing
        this one parsed/normalized select) and executed to measure the
        chosen plan's regret against the best alternative.
        """
        parsed = parse_sparql(sparql) if isinstance(sparql, str) else sparql
        if isinstance(parsed, AskQuery):
            parsed = SelectQuery(variables=None, where=parsed.where, limit=1)
        select = normalize(parsed)
        pattern_tree = PatternTree.build(select.where)
        plans = enumerate_join_orders(
            select.triples(),
            pattern_tree,
            self.stats,
            self.config.methods,
            limit=limit,
        )
        return select, plans

    def compile_with_order(
        self, select: SelectQuery, plan: JoinOrderPlan
    ) -> sql.Query:
        """Compile an already-normalized select under a specific enumerated
        join order (the rest of the pipeline — plan build, merge,
        translation — is the production one)."""
        flow = flow_from_order(plan)
        execution_tree = build_execution_tree(select.where, flow)
        if self.config.merge and self.emitter.supports_merge:
            pattern_tree = PatternTree.build(select.where)
            ctx = MergeContext.build(
                pattern_tree,
                select.triples(),
                self.spill_direct,
                self.spill_reverse,
            )
            execution_tree = merge_execution_tree(execution_tree, ctx)
        translator = PipelineTranslator(self.emitter)
        return translator.translate(execution_tree, select)
