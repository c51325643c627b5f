"""Access methods and the triple-method cost function (paper Def. 3.1).

The method menu matches the DB2RDF configuration of Section 4: subject
lookup (``acs``, the DPH entry index), object lookup (``aco``, the RPH entry
index), and full scan (``sc``) — there are no predicate indexes.
"""

from __future__ import annotations

from ...core.stats import DatasetStatistics
from ..ast import TriplePattern, Var

ACS = "acs"
ACO = "aco"
SC = "sc"
ALL_METHODS = (ACS, ACO, SC)


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
        return stats.subject_cardinality(subject, predicate)
    if method == ACO:
        obj = triple.object
        if isinstance(obj, Var):
            return stats.avg_triples_per_object
        return stats.object_cardinality(obj, predicate)
    raise ValueError(f"unknown access method {method!r}")


def _constant_predicate(triple: TriplePattern) -> str | None:
    predicate = triple.predicate
    return None if isinstance(predicate, Var) else predicate.value
