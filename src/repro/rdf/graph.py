"""An in-memory RDF graph.

This is the substrate's "ground truth" container: workload generators build
graphs, stores load from graphs, and the reference SPARQL evaluator runs
directly against a graph so that every store can be checked against it.

The graph keeps three permutation indexes (by subject, by object, and by
predicate) which is enough for the reference evaluator and for statistics
collection without the full hexastore machinery of the native baseline.

Every index is insertion-ordered (a dict with ``None`` values, not a set),
so iteration never depends on the string hash seed: the bulk loader packs
an entity's predicates in the order the graph yields them, and the same
graph then gives the same rows, spills and plans in every process.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, KeysView

from .terms import Subject, Term, Triple, URI

_EMPTY: dict[Triple, None] = {}


class Graph:
    """A set of RDF triples with subject/predicate/object lookup."""

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: dict[Triple, None] = {}
        self._by_subject: dict[Subject, dict[Triple, None]] = defaultdict(dict)
        self._by_object: dict[Term, dict[Triple, None]] = defaultdict(dict)
        self._by_predicate: dict[URI, dict[Triple, None]] = defaultdict(dict)
        for triple in triples:
            self.add(triple)

    def add(self, triple: Triple) -> bool:
        """Add a triple; returns ``False`` if it was already present."""
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._by_subject[triple.subject][triple] = None
        self._by_object[triple.object][triple] = None
        self._by_predicate[triple.predicate][triple] = None
        return True

    def discard(self, triple: Triple) -> bool:
        """Remove a triple; returns ``False`` if it was not present. A key
        left with no triple leaves its index."""
        if triple not in self._triples:
            return False
        del self._triples[triple]
        for index, key in (
            (self._by_subject, triple.subject),
            (self._by_object, triple.object),
            (self._by_predicate, triple.predicate),
        ):
            bucket = index[key]
            del bucket[triple]
            if not bucket:
                del index[key]
        return True

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def subjects(self) -> Iterable[Subject]:
        return self._by_subject.keys()

    def objects(self) -> Iterable[Term]:
        return self._by_object.keys()

    def predicates(self) -> Iterable[URI]:
        return self._by_predicate.keys()

    def triples_for_subject(self, subject: Subject) -> KeysView[Triple]:
        return self._by_subject.get(subject, _EMPTY).keys()

    def triples_for_object(self, obj: Term) -> KeysView[Triple]:
        return self._by_object.get(obj, _EMPTY).keys()

    def triples_for_predicate(self, predicate: URI) -> KeysView[Triple]:
        return self._by_predicate.get(predicate, _EMPTY).keys()

    def match(
        self,
        subject: Subject | None = None,
        predicate: URI | None = None,
        obj: Term | None = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the given constants (``None`` = wildcard).

        Picks the most selective available index, the same access-method menu
        (subject lookup, object lookup, scan) the paper's optimizer assumes.
        """
        if subject is not None:
            candidates: Iterable[Triple] = self._by_subject.get(subject, ())
        elif obj is not None:
            candidates = self._by_object.get(obj, ())
        elif predicate is not None:
            candidates = self._by_predicate.get(predicate, ())
        else:
            candidates = self._triples
        for triple in candidates:
            if predicate is not None and triple.predicate != predicate:
                continue
            if obj is not None and triple.object != obj:
                continue
            if subject is not None and triple.subject != subject:
                continue
            yield triple

    # ----------------------------------------------------------- file I/O

    @classmethod
    def from_file(cls, path) -> "Graph":
        """Load a graph from an N-Triples (``.nt``) or Turtle (``.ttl``,
        ``.turtle``) file, chosen by extension."""
        import pathlib

        file_path = pathlib.Path(path)
        text = file_path.read_text()
        if file_path.suffix in (".ttl", ".turtle"):
            from .turtle import parse_turtle

            return cls(parse_turtle(text))
        from .ntriples import parse

        return cls(parse(text))

    def to_file(self, path, prefixes: dict[str, str] | None = None) -> None:
        """Write the graph as N-Triples or Turtle, chosen by extension."""
        import pathlib

        file_path = pathlib.Path(path)
        if file_path.suffix in (".ttl", ".turtle"):
            from .turtle import serialize_turtle

            file_path.write_text(serialize_turtle(self, prefixes))
        else:
            from .ntriples import serialize

            file_path.write_text(serialize(sorted(self, key=lambda t: t.n3())))

    def predicate_sets_by_subject(self) -> dict[Subject, frozenset[URI]]:
        """Map each subject to the set of predicates it instantiates.

        This is the raw input to interference-graph construction (Section 2.2
        of the paper): two predicates interfere exactly when some subject has
        them both.
        """
        return {
            subject: frozenset(t.predicate for t in triples)
            for subject, triples in self._by_subject.items()
            if triples
        }

    def predicate_sets_by_object(self) -> dict[Term, frozenset[URI]]:
        """Map each object to the set of predicates pointing at it (for RPH)."""
        return {
            obj: frozenset(t.predicate for t in triples)
            for obj, triples in self._by_object.items()
            if triples
        }
