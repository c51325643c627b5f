"""The Query Plan Builder (paper §3.1.2, Figure 10).

Turns the pattern tree plus the optimal flow tree into a storage-independent
*execution tree*. Late fusing is realized by ordering the fusable units of
each conjunctive group by their flow rank (the position of their cheapest
triple in the greedy flow): a unit is fused exactly when the flow first
needs its bindings, which reproduces the paper's worked example — t4 first,
then the OR of {t2,t3}, then the selective t1, then t5, t6, and the
OPTIONAL last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..ast import (
    FilterExpr,
    GroupPattern,
    OptionalPattern,
    TriplePattern,
    UnionPattern,
)
from .dataflow import FlowTree


@dataclass(eq=False)
class AccessNode:
    """Evaluate one triple pattern with a chosen access method."""

    triple: TriplePattern
    method: str

    def __repr__(self) -> str:
        return f"({self.triple}, {self.method})"


@dataclass(eq=False)
class AndNode:
    """Join: evaluate left, feed bindings into right."""

    left: "ExecNode"
    right: "ExecNode"


@dataclass(eq=False)
class OrNode:
    """UNION of fully built branch subtrees."""

    branches: list["ExecNode"]


@dataclass(eq=False)
class OptNode:
    """Left outer join: ``right`` is optional with respect to ``left``."""

    left: "ExecNode"
    right: "ExecNode"


@dataclass(eq=False)
class FilterNode:
    """Group-level FILTERs applied over the child's bindings."""

    child: "ExecNode"
    filters: list[FilterExpr]


@dataclass(eq=False)
class EmptyNode:
    """The unit solution (a group with no required elements)."""


ExecNode = Union[AccessNode, AndNode, OrNode, OptNode, FilterNode, EmptyNode]


@dataclass
class _Unit:
    """A fusable unit of a conjunctive group, with its flow rank and the
    variable sets that constrain reordering."""

    node: ExecNode
    rank: int
    textual_index: int
    optional: bool = False
    all_vars: frozenset[str] = frozenset()
    optional_vars: frozenset[str] = frozenset()


def _min_rank(element, flow: FlowTree) -> int:
    ranks = [flow.rank_of(triple) for triple in _element_triples(element)]
    return min(ranks) if ranks else 1 << 30


def _element_triples(element) -> list[TriplePattern]:
    if isinstance(element, TriplePattern):
        return [element]
    return list(element.triples())


def _vars_inside_optionals(element) -> frozenset[str]:
    """Variables that occur inside OPTIONAL sub-patterns of an element.

    Reordering a left join across a join that shares such a variable
    changes answers for non-well-designed patterns, so units linked through
    these variables must keep their textual order (matching the reference
    evaluator's left-to-right semantics).
    """
    found: set[str] = set()

    def walk(node, inside_optional: bool) -> None:
        if isinstance(node, TriplePattern):
            if inside_optional:
                found.update(node.variables())
        elif isinstance(node, OptionalPattern):
            walk(node.pattern, True)
        elif isinstance(node, UnionPattern):
            for branch in node.branches:
                walk(branch, inside_optional)
        elif isinstance(node, GroupPattern):
            for child in node.elements:
                walk(child, inside_optional)

    if isinstance(element, OptionalPattern):
        # the whole unit is optional: every variable it binds is fragile
        return frozenset(element.variables())
    walk(element, False)
    return frozenset(found)


def _order_units(units: list[_Unit]) -> list[_Unit]:
    """Order units by flow rank, constrained so that any two units linked
    through an optional-bound variable keep their textual order."""
    n = len(units)
    must_precede: list[set[int]] = [set() for _ in range(n)]  # successors
    blocked_by: list[int] = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            a, b = units[i], units[j]
            linked = (a.optional_vars & b.all_vars) or (
                b.optional_vars & a.all_vars
            )
            if linked and j not in must_precede[i]:
                must_precede[i].add(j)
                blocked_by[j] += 1

    ordered: list[_Unit] = []
    available = [i for i in range(n) if blocked_by[i] == 0]
    while available:
        available.sort(
            key=lambda i: (units[i].rank, units[i].textual_index)
        )
        index = available.pop(0)
        ordered.append(units[index])
        for successor in must_precede[index]:
            blocked_by[successor] -= 1
            if blocked_by[successor] == 0:
                available.append(successor)
    return ordered


def build_execution_tree(group: GroupPattern, flow: FlowTree) -> ExecNode:
    """ExecTree (Figure 10) over a normalized pattern group."""
    units: list[_Unit] = []
    for index, element in enumerate(group.elements):
        if isinstance(element, TriplePattern):
            node: ExecNode = AccessNode(element, flow.method_of(element))
            units.append(
                _Unit(
                    node,
                    flow.rank_of(element),
                    index,
                    all_vars=frozenset(element.variables()),
                )
            )
        elif isinstance(element, GroupPattern):
            units.append(
                _Unit(
                    build_execution_tree(element, flow),
                    _min_rank(element, flow),
                    index,
                    all_vars=frozenset(element.variables()),
                    optional_vars=_vars_inside_optionals(element),
                )
            )
        elif isinstance(element, UnionPattern):
            branches = [
                build_execution_tree(branch, flow) for branch in element.branches
            ]
            units.append(
                _Unit(
                    OrNode(branches),
                    _min_rank(element, flow),
                    index,
                    all_vars=frozenset(element.variables()),
                    optional_vars=_vars_inside_optionals(element),
                )
            )
        elif isinstance(element, OptionalPattern):
            subtree = build_execution_tree(element.pattern, flow)
            units.append(
                _Unit(
                    subtree,
                    # optional units default after required ones of equal
                    # rank (SPARQL's textual leftjoin); the constraint
                    # ordering below enforces the var-sharing cases
                    1 << 30,
                    index,
                    optional=True,
                    all_vars=frozenset(element.variables()),
                    optional_vars=_vars_inside_optionals(element),
                )
            )
        else:
            raise TypeError(f"unknown pattern element {element!r}")

    tree: ExecNode | None = None
    for unit in _order_units(units):
        if unit.optional:
            tree = OptNode(tree if tree is not None else EmptyNode(), unit.node)
        else:
            tree = unit.node if tree is None else AndNode(tree, unit.node)
    if tree is None:
        tree = EmptyNode()
    if group.filters:
        tree = FilterNode(tree, list(group.filters))
    return tree


def textual_execution_tree(group: GroupPattern, method_chooser) -> ExecNode:
    """The *sub-optimal* comparator used in §3.3 / Figure 14: bottom-up,
    textual-order translation with locally chosen access methods and no
    flow-based reordering.

    ``method_chooser(triple, bound_vars) -> method`` picks an access method
    given the variables bound so far.
    """
    bound: set[str] = set()

    def walk(pattern: GroupPattern) -> ExecNode:
        tree: ExecNode | None = None
        for element in pattern.elements:
            if isinstance(element, TriplePattern):
                method = method_chooser(element, frozenset(bound))
                bound.update(element.variables())
                node: ExecNode = AccessNode(element, method)
            elif isinstance(element, GroupPattern):
                node = walk(element)
            elif isinstance(element, UnionPattern):
                snapshot = set(bound)
                branch_nodes = []
                union_bound: set[str] = set()
                for branch in element.branches:
                    bound.clear()
                    bound.update(snapshot)
                    branch_nodes.append(walk(branch))
                    union_bound |= bound
                bound.clear()
                bound.update(snapshot | union_bound)
                node = OrNode(branch_nodes)
            elif isinstance(element, OptionalPattern):
                inner = walk(element.pattern)
                tree = OptNode(tree if tree is not None else EmptyNode(), inner)
                continue
            else:
                raise TypeError(f"unknown pattern element {element!r}")
            tree = node if tree is None else AndNode(tree, node)
        if tree is None:
            tree = EmptyNode()
        if pattern.filters:
            tree = FilterNode(tree, list(pattern.filters))
        return tree

    return walk(group)
