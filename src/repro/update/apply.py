"""The update executor: maps parsed operations onto a write target.

A *target* is anything with ``add(triple) -> bool``, ``remove(triple) ->
bool``, and ``select(SelectQuery) -> SelectResult``. The DB2RDF store's
:class:`~repro.update.transaction.Transaction` is one target; the
native-memory baseline is another — both run the exact same executor, so
the differential harness exercises one write semantics across engines.

Pattern operations evaluate their WHERE clause through the target's own
read pipeline (for the DB2RDF store: dataflow → planbuilder → merge →
translate → SQL), then instantiate the templates per solution. Following
the SPARQL Update spec, all solutions are computed before any change is
applied, deletes apply before inserts, and template triples with unbound
variables (or a literal in subject position) are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Protocol

from ..core.observe import traced
from ..rdf.terms import Literal, Term, Triple, URI
from ..sparql.ast import GroupPattern, SelectQuery, TriplePattern, Var
from ..sparql.results import SelectResult
from .ast import DeleteData, DeleteWhere, InsertData, Modify, UpdateRequest


class WriteTarget(Protocol):
    """What :func:`apply_update` needs from a store."""

    def add(self, triple: Triple) -> bool: ...

    def remove(self, triple: Triple) -> bool: ...

    def select(self, query: SelectQuery) -> SelectResult: ...


@dataclass
class UpdateResult:
    """What one update request changed."""

    inserted: int = 0
    deleted: int = 0
    operations: int = 0
    #: the finished trace root when the update ran in PROFILE mode
    profile: Any = None

    def summary(self) -> str:
        return (
            f"+{self.inserted} / -{self.deleted} triples "
            f"({self.operations} operation{'s' if self.operations != 1 else ''})"
        )


def apply_update(
    request: UpdateRequest, target: WriteTarget, tracer=None
) -> UpdateResult:
    """Apply every operation of ``request`` to ``target`` in order.

    Later operations see the effects of earlier ones (the spec's
    sequential semantics). Atomicity is the *caller's* concern: wrap the
    call in a transaction to make the whole request atomic.
    """
    tracer = traced(tracer)
    result = UpdateResult()
    for operation in request.operations:
        result.operations += 1
        name = type(operation).__name__
        with tracer.span(f"apply.{name}") as span:
            if isinstance(operation, InsertData):
                inserted = _add_all(target, operation.triples)
                deleted = 0
            elif isinstance(operation, DeleteData):
                inserted = 0
                deleted = _remove_all(target, operation.triples)
            elif isinstance(operation, DeleteWhere):
                solutions = _solutions(target, operation.pattern)
                templates = tuple(
                    element
                    for element in operation.pattern.elements
                    if isinstance(element, TriplePattern)
                )
                inserted = 0
                deleted = _remove_all(
                    target, _instantiate(templates, solutions)
                )
            elif isinstance(operation, Modify):
                solutions = _solutions(target, operation.where)
                deleted = _remove_all(
                    target, _instantiate(operation.delete_templates, solutions)
                )
                inserted = _add_all(
                    target, _instantiate(operation.insert_templates, solutions)
                )
            else:  # pragma: no cover - parser only builds the four forms
                raise TypeError(f"unknown update operation {operation!r}")
            result.inserted += inserted
            result.deleted += deleted
            span.set("inserted", inserted)
            span.set("deleted", deleted)
    return result


# ----------------------------------------------------------------- helpers


def _add_all(target: WriteTarget, triples: Iterable[Triple]) -> int:
    return sum(1 for triple in triples if target.add(triple))


def _remove_all(target: WriteTarget, triples: Iterable[Triple]) -> int:
    return sum(1 for triple in triples if target.remove(triple))


def _solutions(
    target: WriteTarget, where: GroupPattern
) -> list[dict[str, Term]]:
    """Evaluate a WHERE clause as ``SELECT *`` through the target's read
    pipeline, returning one variable→term binding per solution."""
    result = target.select(SelectQuery(variables=None, where=where))
    return [
        {
            variable: term
            for variable, term in zip(result.variables, row)
            if term is not None
        }
        for row in result.rows
    ]


def _instantiate(
    templates: tuple[TriplePattern, ...],
    solutions: list[Mapping[str, Term]],
) -> list[Triple]:
    """Ground every template against every solution, deduplicated in first
    appearance order."""
    out: list[Triple] = []
    seen: set[Triple] = set()
    for binding in solutions:
        for template in templates:
            triple = _bind(template, binding)
            if triple is not None and triple not in seen:
                seen.add(triple)
                out.append(triple)
    return out


def _bind(
    template: TriplePattern, binding: Mapping[str, Term]
) -> Triple | None:
    def resolve(position):
        if isinstance(position, Var):
            return binding.get(position.name)
        return position

    subject = resolve(template.subject)
    predicate = resolve(template.predicate)
    obj = resolve(template.object)
    if subject is None or predicate is None or obj is None:
        return None  # unbound variable: the spec drops the triple
    if isinstance(subject, Literal) or not isinstance(predicate, URI):
        return None  # ill-formed instantiation: dropped likewise
    return Triple(subject, predicate, obj)
