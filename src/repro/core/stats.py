"""Dataset statistics for the SPARQL optimizer (paper §3.1, input 2).

The paper's examples use exactly these: total triple count, average triples
per subject / per object, and top-k constants with exact counts (Figure 6b).
Constants outside the top-k fall back to the averages — tightened, when the
triple's predicate is constant, by the exact per-predicate total.

On top of the paper's global statistics this module keeps a *per-predicate*
layer for the cost-based join-order enumerator:

* exact per-predicate triple counts (``predicate_counts``, as before);
* per-predicate **distinct subject / object counts** — the denominators of
  classic join selectivity (``|R ⋈ S| ≈ |R|·|S| / max(d_R, d_S)``);
* per-predicate **min-hash sketches** of the subject and object sets — the
  star-selectivity sketches: the estimated overlap between two predicates'
  subject sets says how selective a star join on a shared subject really
  is, and subject/object overlap does the same for chains.

Everything is collected in the single bulk-load pass (see
:class:`StatsCollector`, fed by ``Loader.bulk_load``) and maintained
incrementally by ``record_triple`` / ``unrecord_triple`` at commit time,
under the existing stats-epoch protocol: any mutation bumps ``epoch`` and
cached plans compiled under older epochs are invalidated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from hashlib import blake2b

from ..rdf.graph import Graph
from ..rdf.terms import Term, term_key

#: Number of min-hash slots per sketch. Jaccard error ~ 1/sqrt(k); 16 slots
#: (±25%) is plenty to rank join orders, and keeps the per-triple load cost
#: at one hash plus sixteen modular multiplies.
SKETCH_SLOTS = 16

_MERSENNE = (1 << 61) - 1

# Deterministic per-slot permutation coefficients: derived from blake2b of
# the slot index, never from Python's randomized hash(), so sketches (and
# with them plans and estimates) are stable across processes and runs.


def _slot_coefficient(label: bytes, slot: int) -> int:
    digest = blake2b(label + slot.to_bytes(2, "big"), digest_size=8).digest()
    return (int.from_bytes(digest, "big") % (_MERSENNE - 1)) + 1


_A = tuple(_slot_coefficient(b"minhash-a", i) for i in range(SKETCH_SLOTS))
_B = tuple(_slot_coefficient(b"minhash-b", i) for i in range(SKETCH_SLOTS))


def _key_hash(key: str) -> int:
    return int.from_bytes(
        blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class MinHashSketch:
    """A fixed-width min-hash signature of a string set.

    Supports insertion, union (slot-wise minimum), and Jaccard estimation.
    Deletions are not representable — callers treat post-delete sketches as
    slightly stale, which the estimator absorbs in its confidence score.
    """

    __slots__ = ("mins",)

    def __init__(self, mins: list[int] | None = None) -> None:
        self.mins = list(mins) if mins is not None else [_MERSENNE] * SKETCH_SLOTS

    def add(self, key: str) -> bool:
        """Insert ``key``; returns True when the signature changed (which
        proves the key was not in the set — the converse does not hold)."""
        h = _key_hash(key)
        mins = self.mins
        changed = False
        for i in range(SKETCH_SLOTS):
            v = (_A[i] * h + _B[i]) % _MERSENNE
            if v < mins[i]:
                mins[i] = v
                changed = True
        return changed

    @property
    def empty(self) -> bool:
        return all(m == _MERSENNE for m in self.mins)

    def jaccard(self, other: "MinHashSketch") -> float:
        """Estimated ``|A∩B| / |A∪B|``; 0.0 when either side is empty."""
        if self.empty or other.empty:
            return 0.0
        equal = sum(1 for a, b in zip(self.mins, other.mins) if a == b)
        return equal / SKETCH_SLOTS

    def union(self, other: "MinHashSketch") -> "MinHashSketch":
        return MinHashSketch(
            [min(a, b) for a, b in zip(self.mins, other.mins)]
        )

    def copy(self) -> "MinHashSketch":
        return MinHashSketch(self.mins)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MinHashSketch) and self.mins == other.mins


def intersection_estimate(
    a: MinHashSketch, count_a: float, b: MinHashSketch, count_b: float
) -> float:
    """Estimated ``|A∩B|`` from the two sketches and the known set sizes.

    ``J = |∩|/|∪|`` and ``|∪| = |A|+|B|-|∩|`` give
    ``|∩| = J·(|A|+|B|)/(1+J)``; the result is clamped to the feasible
    range ``[0, min(|A|, |B|)]``.
    """
    j = a.jaccard(b)
    estimate = j * (count_a + count_b) / (1.0 + j)
    return max(0.0, min(estimate, count_a, count_b))


@dataclass
class PredicateStat:
    """Per-predicate column statistics (counts live in the parent's
    ``predicate_counts``; this carries the distinct counts and sketches)."""

    distinct_subjects: int = 0
    distinct_objects: int = 0
    subjects: MinHashSketch = field(default_factory=MinHashSketch)
    objects: MinHashSketch = field(default_factory=MinHashSketch)

    def merged_with(self, other: "PredicateStat") -> "PredicateStat":
        subjects = self.subjects.union(other.subjects)
        objects = self.objects.union(other.objects)
        overlap_s = intersection_estimate(
            self.subjects,
            self.distinct_subjects,
            other.subjects,
            other.distinct_subjects,
        )
        overlap_o = intersection_estimate(
            self.objects,
            self.distinct_objects,
            other.objects,
            other.distinct_objects,
        )
        return PredicateStat(
            distinct_subjects=_merged_distinct(
                self.distinct_subjects, other.distinct_subjects, overlap_s
            ),
            distinct_objects=_merged_distinct(
                self.distinct_objects, other.distinct_objects, overlap_o
            ),
            subjects=subjects,
            objects=objects,
        )


def _merged_distinct(a: int, b: int, overlap: float) -> int:
    """Inclusion–exclusion with a sketch-estimated overlap, clamped to the
    feasible range ``[max(a, b), a + b]``."""
    return int(round(min(a + b, max(a, b, a + b - overlap))))


@dataclass
class DatasetStatistics:
    """Cardinality statistics over one loaded dataset."""

    total_triples: int = 0
    distinct_subjects: int = 0
    distinct_objects: int = 0
    top_subjects: dict[str, int] = field(default_factory=dict)
    top_objects: dict[str, int] = field(default_factory=dict)
    predicate_counts: dict[str, int] = field(default_factory=dict)
    #: per-predicate distinct counts and star-selectivity sketches; may be
    #: empty for hand-built statistics (estimators fall back to the global
    #: layer with reduced confidence)
    predicates: dict[str, PredicateStat] = field(default_factory=dict)
    #: global entity sketches — used to merge distinct counts across
    #: successive bulk loads without a rescan
    subject_sketch: MinHashSketch = field(default_factory=MinHashSketch)
    object_sketch: MinHashSketch = field(default_factory=MinHashSketch)
    #: how many top-k slots the frequent-constant maps were built with
    top_k: int = 1000
    #: count of incremental deletes since the last full collection: sketches
    #: cannot forget members, so estimates degrade (the estimator lowers its
    #: confidence as this grows relative to the dataset)
    decayed_deletes: int = 0
    #: Monotonically increasing data-change version. Store mutations bump it;
    #: the plan cache records the epoch each plan was compiled under and
    #: invalidates entries whose epoch no longer matches.
    epoch: int = 0

    def copy(self) -> "DatasetStatistics":
        """A copy sharing nothing that :meth:`record_triple` or
        :meth:`unrecord_triple` mutate (the store's rollback image)."""
        predicates = {
            name: replace(stat, subjects=stat.subjects.copy(),
                          objects=stat.objects.copy())
            for name, stat in self.predicates.items()
        }
        return replace(
            self, top_subjects=dict(self.top_subjects),
            top_objects=dict(self.top_objects),
            predicate_counts=dict(self.predicate_counts), predicates=predicates,
            subject_sketch=self.subject_sketch.copy(),
            object_sketch=self.object_sketch.copy(),
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

    # ------------------------------------------------ per-predicate layer

    def distinct_subjects_for(self, predicate: str | None) -> float:
        """Distinct subjects of a predicate, clamped to feasible bounds;
        falls back to the global distinct-subject count."""
        return self._distinct_for(
            predicate, "distinct_subjects", self.distinct_subjects
        )

    def distinct_objects_for(self, predicate: str | None) -> float:
        return self._distinct_for(
            predicate, "distinct_objects", self.distinct_objects
        )

    def _distinct_for(
        self, predicate: str | None, attr: str, global_default: int
    ) -> float:
        fallback = float(max(1, global_default))
        if predicate is None:
            return fallback
        count = self.predicate_counts.get(predicate)
        stat = self.predicates.get(predicate)
        if stat is None:
            if count is not None:
                return float(max(1, min(count, global_default or count)))
            return fallback
        distinct = getattr(stat, attr)
        if count is not None:
            distinct = min(distinct, count)
        return float(max(1, distinct))

    def sketch_for(self, predicate: str, position: str) -> MinHashSketch | None:
        """The subject (``position="subject"``) or object sketch of a
        predicate, or None when unavailable or degraded by deletes."""
        stat = self.predicates.get(predicate)
        if stat is None:
            return None
        sketch = stat.subjects if position == "subject" else stat.objects
        return None if sketch.empty else sketch

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

    def merged_with(self, other: "DatasetStatistics") -> "DatasetStatistics":
        """Statistics for the union of two loaded batches (pure: neither
        input is mutated; the caller manages the epoch).

        Counts add exactly; distinct counts combine by inclusion–exclusion
        with sketch-estimated overlaps, so appending a second bulk load
        keeps the statistics describing *all* loaded data.
        """
        top_k = max(self.top_k, other.top_k)
        top_subjects = Counter(self.top_subjects)
        top_subjects.update(other.top_subjects)
        top_objects = Counter(self.top_objects)
        top_objects.update(other.top_objects)
        predicate_counts = Counter(self.predicate_counts)
        predicate_counts.update(other.predicate_counts)
        predicates: dict[str, PredicateStat] = {}
        for name in set(self.predicates) | set(other.predicates):
            mine, theirs = self.predicates.get(name), other.predicates.get(name)
            if mine is None:
                predicates[name] = theirs.merged_with(PredicateStat())
            elif theirs is None:
                predicates[name] = mine.merged_with(PredicateStat())
            else:
                predicates[name] = mine.merged_with(theirs)
        overlap_s = intersection_estimate(
            self.subject_sketch,
            self.distinct_subjects,
            other.subject_sketch,
            other.distinct_subjects,
        )
        overlap_o = intersection_estimate(
            self.object_sketch,
            self.distinct_objects,
            other.object_sketch,
            other.distinct_objects,
        )
        return DatasetStatistics(
            total_triples=self.total_triples + other.total_triples,
            distinct_subjects=_merged_distinct(
                self.distinct_subjects, other.distinct_subjects, overlap_s
            ),
            distinct_objects=_merged_distinct(
                self.distinct_objects, other.distinct_objects, overlap_o
            ),
            top_subjects=dict(top_subjects.most_common(top_k)),
            top_objects=dict(top_objects.most_common(top_k)),
            predicate_counts=dict(predicate_counts),
            predicates=predicates,
            subject_sketch=self.subject_sketch.union(other.subject_sketch),
            object_sketch=self.object_sketch.union(other.object_sketch),
            top_k=top_k,
            decayed_deletes=self.decayed_deletes + other.decayed_deletes,
            epoch=self.epoch,
        )

    # ------------------------------------------------ incremental updates

    def record_triple(self, subject_key: str, predicate: str, object_key: str) -> None:
        """Cheap incremental maintenance used by ``RdfStore.add``.

        Counts stay exact; distinct counts grow only when the sketch proves
        the key is new (a changed min-hash slot implies a first sighting),
        so they undercount slightly but never overshoot the truth.
        """
        self.total_triples += 1
        self.predicate_counts[predicate] = self.predicate_counts.get(predicate, 0) + 1
        if subject_key in self.top_subjects:
            self.top_subjects[subject_key] += 1
        if object_key in self.top_objects:
            self.top_objects[object_key] += 1
        stat = self.predicates.get(predicate)
        if stat is None:
            stat = self.predicates[predicate] = PredicateStat()
        if stat.subjects.add(subject_key) or not stat.distinct_subjects:
            stat.distinct_subjects += 1
        if stat.objects.add(object_key) or not stat.distinct_objects:
            stat.distinct_objects += 1
        if self.subject_sketch.add(subject_key) or not self.distinct_subjects:
            self.distinct_subjects += 1
        if self.object_sketch.add(object_key) or not self.distinct_objects:
            self.distinct_objects += 1

    def unrecord_triple(
        self, subject_key: str, predicate: str, object_key: str
    ) -> None:
        """Inverse of :meth:`record_triple`, used by ``RdfStore.remove``.

        Sketches cannot forget members; the delete is counted in
        ``decayed_deletes`` so estimators can discount sketch-based numbers.
        """
        self.total_triples = max(0, self.total_triples - 1)
        if predicate in self.predicate_counts:
            self.predicate_counts[predicate] -= 1
        if subject_key in self.top_subjects:
            self.top_subjects[subject_key] -= 1
        if object_key in self.top_objects:
            self.top_objects[object_key] -= 1
        self.decayed_deletes += 1


class StatsCollector:
    """Builds a :class:`DatasetStatistics` in one pass over entity groups.

    ``Loader.bulk_load`` already groups the graph by subject (direct side)
    and by object (reverse side) while shredding; feeding those groups here
    collects the full statistics — counts, top-k, per-predicate distincts,
    and sketches — without a second pass over the data.
    """

    def __init__(self, top_k: int = 1000) -> None:
        self.top_k = top_k
        self._subject_counts: Counter = Counter()
        self._object_counts: Counter = Counter()
        self._predicate_counts: Counter = Counter()
        self._predicates: dict[str, PredicateStat] = {}
        self._subject_sketch = MinHashSketch()
        self._object_sketch = MinHashSketch()
        self._subjects = 0
        self._objects = 0

    def _stat(self, predicate: str) -> PredicateStat:
        stat = self._predicates.get(predicate)
        if stat is None:
            stat = self._predicates[predicate] = PredicateStat()
        return stat

    def direct_entity(self, entry_key: str, grouped: "dict[str, int]") -> None:
        """One subject and its ``predicate -> value count`` map."""
        self._subjects += 1
        self._subject_sketch.add(entry_key)
        total = 0
        for predicate, count in grouped.items():
            total += count
            self._predicate_counts[predicate] += count
            stat = self._stat(predicate)
            stat.distinct_subjects += 1
            stat.subjects.add(entry_key)
        self._subject_counts[entry_key] += total

    def reverse_entity(self, entry_key: str, grouped: "dict[str, int]") -> None:
        """One object and its ``predicate -> value count`` map. Counts are
        taken on the direct side only; this side fills the object layer."""
        self._objects += 1
        self._object_sketch.add(entry_key)
        total = 0
        for predicate, count in grouped.items():
            total += count
            stat = self._stat(predicate)
            stat.distinct_objects += 1
            stat.objects.add(entry_key)
        self._object_counts[entry_key] += total

    def finish(self) -> DatasetStatistics:
        return DatasetStatistics(
            total_triples=sum(self._predicate_counts.values()),
            distinct_subjects=self._subjects,
            distinct_objects=self._objects,
            top_subjects=dict(self._subject_counts.most_common(self.top_k)),
            top_objects=dict(self._object_counts.most_common(self.top_k)),
            predicate_counts=dict(self._predicate_counts),
            predicates=self._predicates,
            subject_sketch=self._subject_sketch,
            object_sketch=self._object_sketch,
            top_k=self.top_k,
        )
