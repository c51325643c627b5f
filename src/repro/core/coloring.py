"""Interference-graph coloring for predicate-to-column assignment (§2.2–2.3).

Two predicates *interfere* when some entity instantiates both; interfering
predicates must live in different columns or they force spill rows. Greedy
coloring of the interference graph packs non-co-occurring predicates into
shared columns, which is how the paper fits DBpedia's 53,976 predicates into
75 DPH columns (Table 4).

When the graph needs more colors than available columns, we color the most
valuable subset of predicates (by triple frequency, standing in for the
paper's "query workload and most frequently occurring predicates") and leave
the rest to the hash fallback — the ``c_{D⊗P} ⊕ h`` composition.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..rdf.graph import Graph
from .mapping import ColoringMapper, PredicateMapper


@dataclass
class InterferenceGraph:
    """Adjacency sets over predicate URIs plus per-predicate frequency."""

    adjacency: dict[str, set[str]] = field(default_factory=dict)
    frequency: Counter = field(default_factory=Counter)

    def add_predicate_set(self, predicates: Iterable, weight: int = 1) -> None:
        """Record one entity's predicate set: a clique in the graph.

        Predicates may be URI terms or plain strings; they are keyed by
        their URI string.
        """
        unique = list(
            dict.fromkeys(
                p.value if hasattr(p, "value") else str(p) for p in predicates
            )
        )
        for predicate in unique:
            self.adjacency.setdefault(predicate, set())
            self.frequency[predicate] += weight
        for position, left in enumerate(unique):
            for right in unique[position + 1:]:
                self.adjacency[left].add(right)
                self.adjacency[right].add(left)

    @property
    def predicates(self) -> list[str]:
        return list(self.adjacency)

    def degree(self, predicate: str) -> int:
        return len(self.adjacency.get(predicate, ()))

    def __len__(self) -> int:
        return len(self.adjacency)


def build_interference_graph(
    predicate_sets: Iterable[Iterable[str]],
) -> InterferenceGraph:
    """Build the interference graph from per-entity predicate sets."""
    graph = InterferenceGraph()
    for predicates in predicate_sets:
        graph.add_predicate_set(predicates)
    return graph


def direct_interference_graph(graph: Graph) -> InterferenceGraph:
    """Interference among outgoing predicates (drives DPH layout)."""
    return build_interference_graph(graph.predicate_sets_by_subject().values())


def reverse_interference_graph(graph: Graph) -> InterferenceGraph:
    """Interference among incoming predicates (drives RPH layout)."""
    return build_interference_graph(graph.predicate_sets_by_object().values())


@dataclass
class ColoringResult:
    """Outcome of coloring a dataset's interference graph."""

    assignment: dict[str, int]
    uncovered: list[str]
    total_predicates: int
    colors_used: int
    covered_triple_fraction: float

    def to_mapper(
        self, num_columns: int, fallback: PredicateMapper | None = None
    ) -> ColoringMapper:
        return ColoringMapper(self.assignment, num_columns, fallback)


def greedy_color(
    graph: InterferenceGraph, max_colors: int | None = None
) -> ColoringResult:
    """Greedy (Welsh–Powell style) coloring, largest frequency/degree first.

    Predicates that would need a color ``>= max_colors`` are left uncovered;
    ordering by frequency first means uncovered predicates are the rare ones,
    maximizing the fraction of triples stored in fixed columns.
    """
    order = sorted(
        graph.predicates,
        key=lambda p: (-graph.frequency[p], -graph.degree(p), p),
    )
    assignment: dict[str, int] = {}
    uncovered: list[str] = []
    for predicate in order:
        neighbor_colors = {
            assignment[neighbor]
            for neighbor in graph.adjacency[predicate]
            if neighbor in assignment
        }
        color = 0
        while color in neighbor_colors:
            color += 1
        if max_colors is not None and color >= max_colors:
            uncovered.append(predicate)
            continue
        assignment[predicate] = color

    total_frequency = sum(graph.frequency.values()) or 1
    covered_frequency = sum(graph.frequency[p] for p in assignment)
    return ColoringResult(
        assignment=assignment,
        uncovered=uncovered,
        total_predicates=len(graph),
        colors_used=len(set(assignment.values())) if assignment else 0,
        covered_triple_fraction=covered_frequency / total_frequency,
    )


def color_graph_for_store(
    graph: Graph,
    max_columns: int,
    sample_fraction: float | None = None,
    seed: int = 0,
) -> tuple[ColoringResult, ColoringResult]:
    """Color both directions of an RDF graph (returns direct, reverse).

    ``sample_fraction`` reproduces the §2.3 experiment of coloring from a
    random 10% sample of entities and loading the full dataset against that
    coloring (spills are then counted by the loader).
    """
    direct_sets = list(graph.predicate_sets_by_subject().values())
    reverse_sets = list(graph.predicate_sets_by_object().values())
    if sample_fraction is not None:
        rng = random.Random(seed)
        direct_sets = [s for s in direct_sets if rng.random() < sample_fraction]
        reverse_sets = [s for s in reverse_sets if rng.random() < sample_fraction]
    direct = greedy_color(build_interference_graph(direct_sets), max_columns)
    reverse = greedy_color(build_interference_graph(reverse_sets), max_columns)
    return direct, reverse


def coloring_report(
    name: str, result: ColoringResult
) -> dict[str, object]:
    """One row of the Table 4 report."""
    return {
        "dataset": name,
        "predicates": result.total_predicates,
        "columns": result.colors_used,
        "covered_predicates": len(result.assignment),
        "percent_covered": round(100.0 * result.covered_triple_fraction, 2),
    }
