"""Dataset statistics for the SPARQL optimizer (paper §3.1, input 2).

The paper's examples use exactly these: total triple count, average triples
per subject / per object, and top-k constants with exact counts (Figure 6b).
Constants outside the top-k fall back to the averages — tightened, when the
triple's predicate is constant, by the exact per-predicate total.

Every count is exact. The bulk loader collects them in its shredding pass
(see :class:`StatsCollector`, fed by ``Loader.bulk_load``), and
``record_triple`` / ``unrecord_triple`` maintain them at each incremental
write. The distinct subject / object counts move only by the loader's
entity delta: +1 when a write creates an entity's first row, −1 when a
delete drops its last one. Any mutation bumps ``epoch`` and cached plans
compiled under older epochs are invalidated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from ..rdf.graph import Graph
from ..rdf.terms import Term, term_key


@dataclass
class DatasetStatistics:
    """Cardinality statistics over one loaded dataset."""

    total_triples: int = 0
    distinct_subjects: int = 0
    distinct_objects: int = 0
    top_subjects: dict[str, int] = field(default_factory=dict)
    top_objects: dict[str, int] = field(default_factory=dict)
    predicate_counts: dict[str, int] = field(default_factory=dict)
    #: Capacity of ``top_subjects`` / ``top_objects``: the ``top_k`` they
    #: were collected with (0 = no top-k collected, nothing admitted).
    top_k: int = 0
    #: Monotonically increasing data-change version. Store mutations bump it;
    #: the plan cache records the epoch each plan was compiled under and
    #: invalidates entries whose epoch no longer matches.
    epoch: int = 0

    def copy(self) -> "DatasetStatistics":
        """A copy sharing nothing that :meth:`record_triple` or
        :meth:`unrecord_triple` mutate (the store's rollback image)."""
        return replace(
            self, top_subjects=dict(self.top_subjects),
            top_objects=dict(self.top_objects),
            predicate_counts=dict(self.predicate_counts),
        )

    def bump_epoch(self) -> int:
        """Mark a data change that may shift cardinalities; returns the new
        epoch. Cached query plans compiled under earlier epochs go stale."""
        self.epoch += 1
        return self.epoch

    @property
    def avg_triples_per_subject(self) -> float:
        if not self.distinct_subjects:
            return 1.0
        return self.total_triples / self.distinct_subjects

    @property
    def avg_triples_per_object(self) -> float:
        if not self.distinct_objects:
            return 1.0
        return self.total_triples / self.distinct_objects

    # ------------------------------------------------------ cost estimates

    def subject_cardinality(
        self, subject: Term | str | None, predicate: str | None = None
    ) -> float:
        """Estimated triples retrieved by a subject lookup.

        Top-k constants give exact counts. Outside the top-k the fallback is
        the per-subject average — capped by the exact per-predicate total
        when the triple's predicate is a known constant, which is the
        tighter bound (a subject cannot contribute more ``p``-triples than
        ``p`` has in total).
        """
        if subject is None:
            return self._capped_average(self.avg_triples_per_subject, predicate)
        key = subject if isinstance(subject, str) else term_key(subject)
        exact = self.top_subjects.get(key)
        if exact is not None:
            return float(exact)
        return self._capped_average(self.avg_triples_per_subject, predicate)

    def object_cardinality(
        self, obj: Term | str | None, predicate: str | None = None
    ) -> float:
        """Estimated triples retrieved by an object lookup (see
        :meth:`subject_cardinality` for the fallback rule)."""
        if obj is None:
            return self._capped_average(self.avg_triples_per_object, predicate)
        key = obj if isinstance(obj, str) else term_key(obj)
        exact = self.top_objects.get(key)
        if exact is not None:
            return float(exact)
        return self._capped_average(self.avg_triples_per_object, predicate)

    def _capped_average(self, average: float, predicate: str | None) -> float:
        if predicate is not None:
            exact_total = self.predicate_counts.get(predicate)
            if exact_total is not None:
                return float(min(average, exact_total))
        return average

    def predicate_cardinality(self, predicate: str | None) -> float:
        if predicate is None:
            return float(self.total_triples)
        return float(
            self.predicate_counts.get(predicate, max(1.0, self.total_triples / 100))
        )

    def scan_cardinality(self) -> float:
        return float(self.total_triples)

    # --------------------------------------------------------- construction

    @classmethod
    def from_graph(cls, graph: Graph, top_k: int = 1000) -> "DatasetStatistics":
        collector = StatsCollector(top_k=top_k)
        for subject in graph.subjects():
            grouped: dict[str, int] = {}
            for triple in graph.triples_for_subject(subject):
                predicate = triple.predicate.value
                grouped[predicate] = grouped.get(predicate, 0) + 1
            collector.direct_entity(term_key(subject), grouped)
        for obj in graph.objects():
            grouped = {}
            for triple in graph.triples_for_object(obj):
                predicate = triple.predicate.value
                grouped[predicate] = grouped.get(predicate, 0) + 1
            collector.reverse_entity(term_key(obj), grouped)
        return collector.finish()

    # ------------------------------------------------ incremental updates

    def record_triple(
        self, subject_key: str, predicate: str, object_key: str,
        new_subject: bool = False, new_object: bool = False,
    ) -> None:
        """Count one inserted triple (``RdfStore.add``).

        A top-k map that holds fewer than ``top_k`` keys holds every key
        with a non-zero count, so a key absent from it had count 0 and is
        admitted at 1: the map stays exact. A full map only counts up keys
        it already holds; a constant outside it keeps the average.

        ``new_subject`` / ``new_object`` are the loader's entity delta: the
        write created the subject's (object's) first row. A caller that
        cannot tell, such as the §2 layouts' blind ``add``, passes neither,
        and the distinct counts then stay where they were.
        """
        self.total_triples += 1
        self.predicate_counts[predicate] = self.predicate_counts.get(predicate, 0) + 1
        self._count_up(self.top_subjects, subject_key)
        self._count_up(self.top_objects, object_key)
        self.distinct_subjects += new_subject
        self.distinct_objects += new_object

    def _count_up(self, top: dict[str, int], key: str) -> None:
        if key in top:
            top[key] += 1
        elif len(top) < self.top_k:
            top[key] = 1

    def unrecord_triple(
        self, subject_key: str, predicate: str, object_key: str,
        gone_subject: bool = False, gone_object: bool = False,
    ) -> None:
        """Inverse of :meth:`record_triple`, used by ``RdfStore.remove``;
        ``gone_subject`` / ``gone_object`` say the delete dropped the
        entity's last row."""
        self.total_triples = max(0, self.total_triples - 1)
        if predicate in self.predicate_counts:
            self.predicate_counts[predicate] -= 1
        if subject_key in self.top_subjects:
            self.top_subjects[subject_key] -= 1
        if object_key in self.top_objects:
            self.top_objects[object_key] -= 1
        self.distinct_subjects -= gone_subject
        self.distinct_objects -= gone_object


class StatsCollector:
    """Builds a :class:`DatasetStatistics` in one pass over entity groups.

    ``Loader.bulk_load`` already groups the graph by subject (direct side)
    and by object (reverse side) while shredding; feeding those groups here
    collects the statistics — counts, distinct entities and top-k — without
    a second pass over the data.
    """

    def __init__(self, top_k: int = 1000) -> None:
        self.top_k = top_k
        self._subject_counts: Counter = Counter()
        self._object_counts: Counter = Counter()
        self._predicate_counts: Counter = Counter()

    def direct_entity(self, entry_key: str, grouped: "dict[str, int]") -> None:
        """One subject and its ``predicate -> value count`` map."""
        self._predicate_counts.update(grouped)
        self._subject_counts[entry_key] += sum(grouped.values())

    def reverse_entity(self, entry_key: str, grouped: "dict[str, int]") -> None:
        """One object and its ``predicate -> value count`` map. Predicate
        counts are taken on the direct side only."""
        self._object_counts[entry_key] += sum(grouped.values())

    def finish(self) -> DatasetStatistics:
        return DatasetStatistics(
            total_triples=sum(self._predicate_counts.values()),
            distinct_subjects=len(self._subject_counts),
            distinct_objects=len(self._object_counts),
            top_subjects=dict(self._subject_counts.most_common(self.top_k)),
            top_objects=dict(self._object_counts.most_common(self.top_k)),
            predicate_counts=dict(self._predicate_counts),
            top_k=self.top_k,
        )
