"""Access methods, the triple-method cost function (paper Def. 3.1), and
the cardinality estimator behind the cost-based join-order enumerator.

The method menu matches the DB2RDF configuration of Section 4: subject
lookup (``acs``, the DPH entry index), object lookup (``aco``, the RPH entry
index), and full scan (``sc``) — there are no predicate indexes.

On top of the paper's per-access TMC heuristic, :class:`CardinalityEstimator`
estimates *result* cardinalities from the per-predicate statistics layer:
per-pattern output sizes from exact counts and top-k constants, and join
selectivities from distinct counts (``1/max(d_l, d_r)``) refined by min-hash
sketch overlaps. Every estimate carries a confidence in ``[0, 1]``; the
planner falls back to the paper's heuristic order when the whole plan's
confidence drops below :data:`MIN_PLAN_CONFIDENCE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...core.stats import (
    DatasetStatistics,
    MinHashSketch,
    intersection_estimate,
)
from ...rdf.terms import Term, term_key
from ..ast import TriplePattern, Var

ACS = "acs"
ACO = "aco"
SC = "sc"
ALL_METHODS = (ACS, ACO, SC)

#: ``optimizer="cost"`` only: below this plan confidence the enumerator's
#: pick is discarded for the heuristic hybrid plan (estimates built on empty
#: or heavily decayed statistics should not steer join order). Read at call
#: time, so tests can monkeypatch it.
MIN_PLAN_CONFIDENCE = 0.4


def required_vars(triple: TriplePattern, method: str) -> frozenset[str]:
    """Definition 3.3: variables that must be bound before this lookup."""
    if method == ACS and isinstance(triple.subject, Var):
        return frozenset({triple.subject.name})
    if method == ACO and isinstance(triple.object, Var):
        return frozenset({triple.object.name})
    return frozenset()


def produced_vars(triple: TriplePattern, method: str) -> frozenset[str]:
    """Definition 3.2: variables bound after the lookup (all of the
    triple's variables — the access touches the whole triple)."""
    return frozenset(triple.variables())


def triple_method_cost(
    triple: TriplePattern, method: str, stats: DatasetStatistics
) -> float:
    """Definition 3.1 TMC(t, m, S): estimated rows retrieved.

    Constants give exact top-k counts when known; variables assumed bound by
    a prior access cost the per-entity average (the paper's Figure 6
    walkthrough: TMC(t4, aco)=2 exact, TMC(t4, acs)=5 average,
    TMC(t4, sc)=26 total).
    """
    if method == SC:
        return stats.scan_cardinality()
    predicate = _constant_predicate(triple)
    if method == ACS:
        subject = triple.subject
        if isinstance(subject, Var):
            return stats.avg_triples_per_subject
        return stats.subject_cardinality(_as_term(subject), predicate)
    if method == ACO:
        obj = triple.object
        if isinstance(obj, Var):
            return stats.avg_triples_per_object
        return stats.object_cardinality(_as_term(obj), predicate)
    raise ValueError(f"unknown access method {method!r}")


def _constant_predicate(triple: TriplePattern) -> str | None:
    predicate = triple.predicate
    return None if isinstance(predicate, Var) else predicate.value


def _as_term(value) -> Term:
    return value


# --------------------------------------------------------------------------
# Cardinality estimation (cost-based planning)
# --------------------------------------------------------------------------

#: confidence tiers — combined with ``min`` along a plan, so one weak link
#: lowers the whole plan's confidence without long chains decaying to zero
CONF_EXACT = 1.0
CONF_SKETCH = 0.85
CONF_AVERAGE = 0.7
CONF_VARIABLE_PREDICATE = 0.25


@dataclass(frozen=True)
class TripleEstimate:
    """Standalone output cardinality of one triple pattern."""

    rows: float
    confidence: float
    predicate: str | None
    #: distinct subject / object values among the matching triples (1.0 for
    #: constant positions) — the join-selectivity denominators
    subject_distinct: float
    object_distinct: float


@dataclass
class VarStat:
    """What the estimator knows about one bound variable: how many distinct
    values it takes in the intermediate result, and (when it came from a
    constant-predicate column) that column's min-hash sketch."""

    distinct: float
    sketch: MinHashSketch | None = None


@dataclass
class JoinState:
    """Running estimate for a join prefix: cardinality, confidence, and
    per-variable distinct counts; threaded through :meth:`extend`."""

    rows: float = 1.0
    confidence: float = 1.0
    bound: dict[str, VarStat] = field(default_factory=dict)
    started: bool = False


class CardinalityEstimator:
    """Estimates pattern and join cardinalities from dataset statistics.

    All estimates are deterministic functions of the statistics (sketches
    hash with fixed keys), so the same data always yields the same plan.
    """

    def __init__(self, stats: DatasetStatistics) -> None:
        self.stats = stats

    def fresh_state(self) -> JoinState:
        return JoinState(rows=1.0, confidence=self._base_confidence())

    def _base_confidence(self) -> float:
        """Empty statistics are no evidence at all; heavy incremental
        deletion since the last full collection discounts sketch-era
        numbers (sketches cannot forget members)."""
        stats = self.stats
        if stats.total_triples <= 0:
            return 0.0
        ratio = stats.decayed_deletes / stats.total_triples
        if ratio <= 0.05:
            return 1.0
        return max(0.5, 1.0 - ratio)

    # -------------------------------------------------------- single triple

    def triple_estimate(self, triple: TriplePattern) -> TripleEstimate:
        """Estimated number of triples matching the pattern alone.

        Exact for a constant predicate with a known count and for top-k
        constants (the Figure 6b contract); constants combine with the
        predicate base by independence (``n_p · c/N``), clamped to every
        known upper bound.
        """
        stats = self.stats
        total = float(max(stats.total_triples, 0))
        predicate = _constant_predicate(triple)
        if predicate is None:
            rows, confidence = total, CONF_VARIABLE_PREDICATE
        elif predicate in stats.predicate_counts:
            rows = float(max(0, stats.predicate_counts[predicate]))
            confidence = CONF_EXACT
        else:
            rows, confidence = stats.predicate_cardinality(predicate), CONF_AVERAGE

        caps: list[tuple[float, float]] = []
        for position in ("subject", "object"):
            term = getattr(triple, position)
            if isinstance(term, Var):
                continue
            caps.append(self._constant_cap(term, position, predicate))
        if len(caps) == 1 and predicate is None:
            # Single constant, variable predicate: the constant's triple
            # count *is* the answer — exact for top-k constants (Fig. 6b).
            rows = caps[0][0]
            confidence = min(confidence, caps[0][1])
        elif caps:
            # Constants filter the predicate base by independence
            # (``n_p · Π c/N``), clamped to each known upper bound; the
            # independence assumption caps confidence below "exact".
            for cap, cap_conf in caps:
                confidence = min(confidence, cap_conf, CONF_SKETCH)
                if total > 0:
                    rows *= min(1.0, cap / total)
            rows = min(rows, *(cap for cap, _ in caps))
        rows = max(rows, 0.0)

        subject_distinct = (
            1.0
            if not isinstance(triple.subject, Var)
            else _clamp_distinct(stats.distinct_subjects_for(predicate), rows)
        )
        object_distinct = (
            1.0
            if not isinstance(triple.object, Var)
            else _clamp_distinct(stats.distinct_objects_for(predicate), rows)
        )
        return TripleEstimate(
            rows=rows,
            confidence=confidence,
            predicate=predicate,
            subject_distinct=subject_distinct,
            object_distinct=object_distinct,
        )

    def _constant_cap(
        self, term: Term, position: str, predicate: str | None
    ) -> tuple[float, float]:
        """Upper bound on triples carrying a constant in ``position`` and
        the confidence of that bound (exact for top-k constants)."""
        key = term_key(term)
        stats = self.stats
        if position == "subject":
            exact = stats.top_subjects.get(key)
            if exact is not None:
                return float(max(0, exact)), CONF_EXACT
            return stats.subject_cardinality(key, predicate), CONF_AVERAGE
        exact = stats.top_objects.get(key)
        if exact is not None:
            return float(max(0, exact)), CONF_EXACT
        return stats.object_cardinality(key, predicate), CONF_AVERAGE

    # ---------------------------------------------------------------- joins

    def extend(self, state: JoinState, triple: TriplePattern) -> JoinState:
        """State after joining one more triple pattern into the prefix.

        Shared variables contribute ``overlap / (d_l · d_r)`` selectivity
        where the overlap comes from sketch intersection when both sides
        expose a sketch, else ``min(d_l, d_r)`` (the classic
        ``1/max(d_l, d_r)`` rule). No shared variable means a cross
        product.
        """
        t = self.triple_estimate(triple)
        base = state.rows if state.started else 1.0
        rows = base * t.rows
        confidence = min(state.confidence, t.confidence)

        roles = self._roles(triple, t)
        bound: dict[str, VarStat] = {
            name: VarStat(stat.distinct, stat.sketch)
            for name, stat in state.bound.items()
        }
        for name, (distinct_t, sketch_t) in roles.items():
            existing = bound.get(name)
            if existing is None:
                bound[name] = VarStat(distinct_t, sketch_t)
                continue
            d_l, d_r = existing.distinct, distinct_t
            if existing.sketch is not None and sketch_t is not None:
                overlap = intersection_estimate(
                    existing.sketch, d_l, sketch_t, d_r
                )
                confidence = min(confidence, CONF_SKETCH)
            else:
                overlap = min(d_l, d_r)
                confidence = min(confidence, CONF_AVERAGE)
            # A zero sketch overlap usually means "tiny", not "empty": keep
            # a floor of one value so join costs never vanish entirely.
            overlap = max(1.0, min(overlap, d_l, d_r))
            if d_l > 0 and d_r > 0:
                rows *= overlap / (d_l * d_r)
            keep = existing.sketch if d_l <= d_r else sketch_t
            bound[name] = VarStat(overlap, keep)
        rows = max(rows, 0.0)
        # No variable can take more distinct values than there are rows.
        ceiling = max(rows, 1.0)
        for stat in bound.values():
            stat.distinct = min(stat.distinct, ceiling)
        return JoinState(
            rows=rows, confidence=confidence, bound=bound, started=True
        )

    def _roles(
        self, triple: TriplePattern, t: TripleEstimate
    ) -> dict[str, tuple[float, MinHashSketch | None]]:
        """Each variable of the triple with its distinct count and (for
        constant predicates) the matching column sketch. A variable used in
        two positions keeps the smaller distinct count."""
        stats = self.stats
        roles: dict[str, tuple[float, MinHashSketch | None]] = {}

        def put(name: str, distinct: float, sketch: MinHashSketch | None) -> None:
            old = roles.get(name)
            if old is None or distinct < old[0]:
                roles[name] = (distinct, sketch)

        if isinstance(triple.subject, Var):
            sketch = (
                stats.sketch_for(t.predicate, "subject") if t.predicate else None
            )
            put(triple.subject.name, t.subject_distinct, sketch)
        if isinstance(triple.object, Var):
            sketch = (
                stats.sketch_for(t.predicate, "object") if t.predicate else None
            )
            put(triple.object.name, t.object_distinct, sketch)
        if isinstance(triple.predicate, Var):
            put(
                triple.predicate.name,
                float(max(1, len(stats.predicate_counts))),
                None,
            )
        return roles

    # ---------------------------------------------------------- access cost

    def access_cost(
        self, triple: TriplePattern, method: str, state: JoinState
    ) -> float:
        """Estimated rows *read* when executing the access at this point in
        the plan: per-binding lookups scale with the prefix cardinality,
        scans read the whole table once (the translator hash-joins them)."""
        stats = self.stats
        if method == SC:
            return stats.scan_cardinality()
        predicate = _constant_predicate(triple)
        prefix = max(state.rows, 1.0) if state.started else 1.0
        if method == ACS:
            subject = triple.subject
            if isinstance(subject, Var):
                return prefix * stats.subject_cardinality(None, predicate)
            return stats.subject_cardinality(_as_term(subject), predicate)
        if method == ACO:
            obj = triple.object
            if isinstance(obj, Var):
                return prefix * stats.object_cardinality(None, predicate)
            return stats.object_cardinality(_as_term(obj), predicate)
        raise ValueError(f"unknown access method {method!r}")


def _clamp_distinct(distinct: float, rows: float) -> float:
    return max(1.0, min(distinct, max(rows, 1.0)))
