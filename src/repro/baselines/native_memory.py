"""A native in-memory RDF store: the stand-in for the paper's native
competitors (RDF-3X / Jena TDB / Sesame class systems).

Design follows the published recipes those systems share:

* **hexastore-style permutation indexes** (Weiss et al.) — SPO, POS, OSP
  two-level dictionaries give constant-time lookups for every bound-position
  combination;
* **bottom-up BGP optimization** (Stocker et al., RDF-3X) — before
  evaluating a conjunctive group, triple patterns are greedily reordered by
  estimated cardinality given the variables bound so far, using exact index
  counts. This is precisely the per-triple, selectivity-driven optimization
  style the paper contrasts its flow-based optimizer against.

UNION / OPTIONAL / FILTER semantics reuse the reference algebra; evaluation
ticks the query's :class:`~repro.core.resilience.Budget` so an expired
timeout raises the same ``QueryTimeoutError`` as the relational stores.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from ..core.resilience import Budget
from ..rdf.graph import Graph
from ..rdf.terms import Term, Triple, URI
from ..relational.executor import guarded
from ..sparql.algebra import normalize
from ..sparql.ast import (
    AskQuery,
    GroupPattern,
    OptionalPattern,
    SelectQuery,
    TriplePattern,
    UnionPattern,
    Var,
)
from ..sparql.parser import parse_sparql
from ..sparql.reference import Bindings, _filter_passes, _substitute
from ..sparql.results import SelectResult, project_rows
from ..update.apply import UpdateResult, apply_update
from ..update.parser import parse_update


class HexastoreIndexes:
    """Three two-level permutation indexes over a triple set."""

    def __init__(self) -> None:
        self.sp: dict[Term, dict[URI, set[Term]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self.po: dict[URI, dict[Term, set[Term]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self.os: dict[Term, dict[Term, set[URI]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self.p_count: dict[URI, int] = defaultdict(int)
        self.total = 0

    def add(self, triple: Triple) -> bool:
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        if obj in self.sp[subject].get(predicate, ()):  # duplicate
            return False
        self.sp[subject][predicate].add(obj)
        self.po[predicate][subject].add(obj)
        self.os[obj][subject].add(predicate)
        self.p_count[predicate] += 1
        self.total += 1
        return True

    def remove(self, triple: Triple) -> bool:
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        by_pred = self.sp.get(subject)
        if not by_pred or obj not in by_pred.get(predicate, ()):
            return False
        by_pred[predicate].discard(obj)
        if not by_pred[predicate]:
            del by_pred[predicate]
            if not by_pred:
                del self.sp[subject]
        self.po[predicate][subject].discard(obj)
        if not self.po[predicate][subject]:
            del self.po[predicate][subject]
            if not self.po[predicate]:
                del self.po[predicate]
        self.os[obj][subject].discard(predicate)
        if not self.os[obj][subject]:
            del self.os[obj][subject]
            if not self.os[obj]:
                del self.os[obj]
        self.p_count[predicate] -= 1
        if not self.p_count[predicate]:
            del self.p_count[predicate]
        self.total -= 1
        return True

    # ------------------------------------------------------------- matching

    def match(
        self, subject: Term | None, predicate: URI | None, obj: Term | None
    ) -> Iterable[tuple[Term, URI, Term]]:
        if subject is not None:
            by_pred = self.sp.get(subject)
            if not by_pred:
                return
            predicates = [predicate] if predicate is not None else list(by_pred)
            for p in predicates:
                for o in by_pred.get(p, ()):
                    if obj is None or obj == o:
                        yield (subject, p, o)
            return
        if obj is not None:
            by_subj = self.os.get(obj)
            if not by_subj:
                return
            for s, predicates in by_subj.items():
                for p in predicates:
                    if predicate is None or predicate == p:
                        yield (s, p, obj)
            return
        if predicate is not None:
            for s, objects in self.po.get(predicate, {}).items():
                for o in objects:
                    yield (s, predicate, o)
            return
        for s, by_pred in self.sp.items():
            for p, objects in by_pred.items():
                for o in objects:
                    yield (s, p, o)

    # ----------------------------------------------------------- estimates

    def cardinality(
        self, subject: Term | None, predicate: URI | None, obj: Term | None
    ) -> float:
        """Exact-ish cardinality estimate from the index shapes."""
        if subject is not None and predicate is not None and obj is not None:
            return 1.0
        if subject is not None:
            by_pred = self.sp.get(subject)
            if not by_pred:
                return 0.0
            if predicate is not None:
                return float(len(by_pred.get(predicate, ())))
            return float(sum(len(objects) for objects in by_pred.values()))
        if obj is not None:
            by_subj = self.os.get(obj)
            if not by_subj:
                return 0.0
            return float(sum(len(preds) for preds in by_subj.values()))
        if predicate is not None:
            return float(self.p_count.get(predicate, 0))
        return float(self.total)


class NativeMemoryStore:
    """The runnable native baseline."""

    name = "native-memory"

    def __init__(self, optimize_bgp: bool = True) -> None:
        self.indexes = HexastoreIndexes()
        self.optimize_bgp = optimize_bgp

    @classmethod
    def from_graph(cls, graph: Graph, **kwargs) -> "NativeMemoryStore":
        store = cls(**kwargs)
        store.load_graph(graph)
        return store

    def load_graph(self, graph: Graph) -> None:
        for triple in graph:
            self.indexes.add(triple)

    def add(self, triple: Triple) -> bool:
        return self.indexes.add(triple)

    def remove(self, triple: Triple) -> bool:
        return self.indexes.remove(triple)

    def update(self, sparql) -> UpdateResult:
        """Execute a SPARQL Update request (text or parsed) against the
        permutation indexes — the same executor the DB2RDF store runs, so
        write semantics are differentially testable across engines."""
        request = sparql if not isinstance(sparql, str) else parse_update(sparql)
        return apply_update(request, self)

    # ------------------------------------------------------------ querying

    def query(self, sparql: str, timeout: float | None = None) -> SelectResult:
        parsed = parse_sparql(sparql)
        if isinstance(parsed, AskQuery):
            select = SelectQuery(variables=None, where=parsed.where, limit=1)
        else:
            select = parsed
        return self._select(select, Budget.from_limits(timeout, None, None))

    def select(self, query: SelectQuery) -> SelectResult:
        """Evaluate a parsed SELECT query (the update executor's read hook)."""
        return self._select(query, None)

    def _select(self, select: SelectQuery, budget: Budget | None) -> SelectResult:
        select = normalize(select)
        evaluator = _Evaluator(self.indexes, self.optimize_bgp, guarded(budget))
        solutions = evaluator.group(select.where, [{}])
        solutions = _sort(solutions, select)
        variables = select.projected_variables()
        rows = project_rows(variables, solutions)
        if select.distinct or select.reduced:
            rows = list(dict.fromkeys(rows))
        start = select.offset or 0
        if select.limit is not None:
            rows = rows[start:start + select.limit]
        elif start:
            rows = rows[start:]
        return SelectResult(variables, rows)


def _sort(solutions: list[Bindings], query: SelectQuery) -> list[Bindings]:
    from ..sparql.reference import _sort_solutions

    return _sort_solutions(solutions, query)


class _Evaluator:
    def __init__(
        self, indexes: HexastoreIndexes, optimize: bool, budget: Any
    ) -> None:
        self.indexes = indexes
        self.optimize = optimize
        self.budget = budget

    # --------------------------------------------------------------- group

    def group(self, group: GroupPattern, inputs: list[Bindings]) -> list[Bindings]:
        elements = list(group.elements)
        if self.optimize:
            elements = self._reorder(elements)
        solutions = inputs
        for element in elements:
            if isinstance(element, TriplePattern):
                solutions = self._triple(element, solutions)
            elif isinstance(element, GroupPattern):
                solutions = self.group(element, solutions)
            elif isinstance(element, UnionPattern):
                solutions = [
                    extended
                    for bindings in solutions
                    for branch in element.branches
                    for extended in self.group(branch, [bindings])
                ]
            elif isinstance(element, OptionalPattern):
                next_solutions: list[Bindings] = []
                for bindings in solutions:
                    extensions = self.group(element.pattern, [bindings])
                    if extensions:
                        next_solutions.extend(extensions)
                    else:
                        next_solutions.append(bindings)
                solutions = next_solutions
            else:
                raise TypeError(f"unknown element {element!r}")
        for condition in group.filters:
            solutions = [
                bindings for bindings in solutions if _filter_passes(condition, bindings)
            ]
        return solutions

    def _reorder(self, elements: list) -> list:
        """Greedy bottom-up BGP ordering: repeatedly pick the cheapest
        triple given the variables bound so far. Non-triple elements keep
        their relative (textual) order and run after the triples, except
        OPTIONALs which always stay last."""
        triples = [e for e in elements if isinstance(e, TriplePattern)]
        composites = [
            e
            for e in elements
            if not isinstance(e, (TriplePattern, OptionalPattern))
        ]
        optionals = [e for e in elements if isinstance(e, OptionalPattern)]

        ordered: list = []
        bound: set[str] = set()
        remaining = list(triples)
        while remaining:
            best = min(remaining, key=lambda t: self._estimate(t, bound))
            remaining.remove(best)
            ordered.append(best)
            bound |= best.variables()
        return ordered + composites + optionals

    def _estimate(self, triple: TriplePattern, bound: set[str]) -> float:
        subject = None if isinstance(triple.subject, Var) else triple.subject
        predicate = (
            None if isinstance(triple.predicate, Var) else triple.predicate
        )
        obj = None if isinstance(triple.object, Var) else triple.object
        base = self.indexes.cardinality(subject, predicate, obj)
        # Bound variables shrink the result by rough independence factors.
        shrink = 1.0
        if isinstance(triple.subject, Var) and triple.subject.name in bound:
            shrink *= 0.1
        if isinstance(triple.object, Var) and triple.object.name in bound:
            shrink *= 0.1
        if isinstance(triple.predicate, Var) and triple.predicate.name in bound:
            shrink *= 0.5
        return max(base * shrink, 0.001)

    # -------------------------------------------------------------- triple

    def _triple(
        self, pattern: TriplePattern, solutions: list[Bindings]
    ) -> list[Bindings]:
        out: list[Bindings] = []
        for bindings in solutions:
            subject = _substitute(pattern.subject, bindings)
            predicate = _substitute(pattern.predicate, bindings)
            obj = _substitute(pattern.object, bindings)
            if predicate is not None and not isinstance(predicate, URI):
                continue
            for s, p, o in self.indexes.match(subject, predicate, obj):
                self.budget.tick()
                extended = dict(bindings)
                consistent = True
                for position, value in (
                    (pattern.subject, s),
                    (pattern.predicate, p),
                    (pattern.object, o),
                ):
                    if isinstance(position, Var):
                        existing = extended.get(position.name)
                        if existing is None:
                            extended[position.name] = value
                        elif existing != value:
                            consistent = False
                            break
                if consistent:
                    out.append(extended)
        return out
