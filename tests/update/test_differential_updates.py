"""Differential write testing: random update sequences, three engines.

Hypothesis generates interleaved insert/delete/pattern-update sequences
over a small closed vocabulary, applies each sequence to the DB2RDF store
on both backends and to the hexastore baseline, and asserts the engines
agree on a battery of probe queries after every step. Duplicate inserts,
deletes of absent triples, multi-valued upgrade/demote cycles, and spills
all fall out of the vocabulary being tiny relative to the sequence length.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import MiniRelBackend, RdfStore, SqliteBackend
from repro.baselines.native_memory import NativeMemoryStore
from repro.core.resilience import (
    ChaosBackend,
    Fault,
    FaultPlan,
    TransientFaultError,
)

from ..conftest import figure1_graph

SUBJECTS = ["Google", "IBM", "Android", "Larry_Page", "Newco"]
PREDICATES = ["industry", "founder", "employees", "fresh_pred"]
OBJECTS = ["Software", "Hardware", "Google", "42", "Newval"]

PROBES = [
    "SELECT ?x ?y WHERE { ?x <industry> ?y }",
    "SELECT ?x ?y WHERE { ?x <fresh_pred> ?y }",
    "SELECT ?x WHERE { ?x <founder> ?y . ?y <industry> ?z }",
    "SELECT ?p ?o WHERE { <Google> ?p ?o }",
    "SELECT ?s WHERE { ?s ?p <Software> }",
]

_term = st.sampled_from(SUBJECTS + OBJECTS)
_pred = st.sampled_from(PREDICATES)


@st.composite
def ground_triple(draw) -> str:
    return f"<{draw(_term)}> <{draw(_pred)}> <{draw(_term)}>"


@st.composite
def statement(draw) -> str:
    kind = draw(st.integers(0, 3))
    if kind == 0:
        triples = draw(st.lists(ground_triple(), min_size=1, max_size=3))
        return "INSERT DATA { " + " . ".join(triples) + " }"
    if kind == 1:
        triples = draw(st.lists(ground_triple(), min_size=1, max_size=3))
        return "DELETE DATA { " + " . ".join(triples) + " }"
    if kind == 2:
        return (
            f"DELETE WHERE {{ ?s <{draw(_pred)}> <{draw(_term)}> }}"
        )
    source, target = draw(_pred), draw(_pred)
    return (
        f"DELETE {{ ?s <{source}> ?o }} INSERT {{ ?s <{target}> ?o }} "
        f"WHERE {{ ?s <{source}> ?o }}"
    )


@settings(max_examples=25, deadline=None)
@given(statements=st.lists(statement(), min_size=1, max_size=6))
def test_random_update_sequences_agree_across_engines(statements):
    stores = {
        "minirel": RdfStore.from_graph(figure1_graph()),
        "sqlite": RdfStore.from_graph(figure1_graph(), backend=SqliteBackend()),
        "native": NativeMemoryStore.from_graph(figure1_graph()),
    }
    for step, text in enumerate(statements):
        counts = {
            name: (result.inserted, result.deleted)
            for name, result in (
                (name, store.update(text)) for name, store in stores.items()
            )
        }
        assert counts["minirel"] == counts["sqlite"] == counts["native"], (
            step,
            text,
            counts,
        )
        for probe in PROBES:
            answers = {
                name: tuple(store.query(probe).canonical())
                for name, store in stores.items()
            }
            assert (
                answers["minirel"] == answers["sqlite"] == answers["native"]
            ), (step, text, probe, answers)


@settings(max_examples=15, deadline=None)
@given(
    statements=st.lists(statement(), min_size=1, max_size=6),
    fault_at=st.tuples(st.integers(1, 40), st.integers(1, 40)),
)
def test_faulted_update_sequences_agree_with_clean_reference(
    statements, fault_at
):
    """One injected fault per engine, at a drawn backend operation of the
    sequence, and no retries: the statement it hits raises and must leave
    that engine equal to a native reference that skipped the statement;
    later statements keep going."""
    engines = {}
    for backend, at in zip((MiniRelBackend(), SqliteBackend()), fault_at):
        chaos = ChaosBackend(backend, FaultPlan([Fault("any", at)]))
        engines[backend.name] = (
            RdfStore.from_graph(figure1_graph(), backend=chaos),
            chaos,
            NativeMemoryStore.from_graph(figure1_graph()),
        )
    for step, text in enumerate(statements):
        for name, (store, chaos, reference) in engines.items():
            chaos.arm()
            try:
                result = store.update(text)
            except TransientFaultError:
                pass  # the reference skips the statement too
            else:
                expected = reference.update(text)
                assert (result.inserted, result.deleted) == (
                    expected.inserted,
                    expected.deleted,
                ), (name, step, text)
            chaos.armed = False  # probes are not fault-injection points
            for probe in PROBES:
                got = tuple(store.query(probe).canonical())
                want = tuple(reference.query(probe).canonical())
                assert got == want, (name, step, text, probe)
