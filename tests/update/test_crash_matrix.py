"""The crash-consistency matrix: kill the process at every step, recover.

The harness simulates a crash (:class:`SimulatedCrash`) at *every* step
boundary a committing transaction crosses — each backend operation of the
in-memory apply, then each WAL append step (open / write / flush / fsync),
including torn writes that persist only a prefix of the journal record —
then recovers by rebuilding the base store and replaying the journal, and
asserts the recovered state is **exactly** the pre-transaction or the
post-transaction state. Nothing in between, ever, on either backend.

The matrix is deterministic: the fault schedule is a pure function of the
step index (plus ``REPRO_CHAOS_SEED`` for the randomized kill test), so a
failure reproduces byte-for-byte.
"""

from __future__ import annotations

import os
import pathlib
import random

import pytest

from repro import RdfStore, Triple, URI
from repro.backends import MiniRelBackend, SqliteBackend
from repro.core.resilience import ChaosBackend, Fault, FaultPlan, SimulatedCrash

from ..conftest import figure1_graph

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

BACKENDS = [MiniRelBackend, SqliteBackend]

ALL_SPO = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"


def _snapshot(store):
    return tuple(store.query(ALL_SPO).canonical())


def _workload(store):
    """The transaction under test: mixed inserts and deletes, spanning
    existing entities, a brand-new entity, and a multi-valued predicate."""
    txn = store.transaction()
    txn.add(Triple(URI("Sergey_Brin"), URI("founder"), URI("Google")))
    txn.add(Triple(URI("Sergey_Brin"), URI("born"), URI("1973")))
    txn.remove(Triple(URI("Android"), URI("preceded"), URI("4.0")))
    txn.add(Triple(URI("Google"), URI("industry"), URI("AI")))
    txn.remove(Triple(URI("IBM"), URI("employees"), URI("433362")))
    txn.commit()


def _recover(backend_factory, wal_path):
    """What a restarted process does: rebuild the base data, replay."""
    store = RdfStore.from_graph(figure1_graph(), backend=backend_factory())
    store.attach_wal(wal_path)
    return _snapshot(store)


def _segment_bytes(wal_path):
    """The concatenated on-disk segment data of a journal directory."""
    segments = sorted(pathlib.Path(wal_path).glob("wal-*.seg"))
    return b"".join(segment.read_bytes() for segment in segments)


def _reference_states(backend_factory, tmp_path):
    """(pre, post) snapshots from one clean, uncrashed run."""
    store = RdfStore.from_graph(figure1_graph(), backend=backend_factory())
    pre = _snapshot(store)
    store.attach_wal(tmp_path / "clean.wal")
    _workload(store)
    post = _snapshot(store)
    assert post != pre
    return pre, post


def _probe_op_count(backend_factory, tmp_path):
    """How many backend operations the workload performs (fault-free)."""
    chaos = ChaosBackend(backend_factory())
    store = RdfStore.from_graph(figure1_graph(), backend=chaos)
    store.attach_wal(tmp_path / "probe.wal")
    chaos.arm()
    _workload(store)
    assert chaos.total_ops > 0
    return chaos.total_ops


@pytest.mark.parametrize("backend_factory", BACKENDS)
def test_crash_at_every_backend_op(backend_factory, tmp_path):
    """Kill at each backend operation of the apply: always recovers to
    exactly the pre-transaction state (the journal was never reached)."""
    pre, post = _reference_states(backend_factory, tmp_path)
    total = _probe_op_count(backend_factory, tmp_path)
    for step in range(1, total + 1):
        chaos = ChaosBackend(
            backend_factory(), FaultPlan([Fault("any", step, kind="crash")])
        )
        store = RdfStore.from_graph(figure1_graph(), backend=chaos)
        wal_path = tmp_path / f"op{step}.wal"
        store.attach_wal(wal_path)
        chaos.arm()
        with pytest.raises(SimulatedCrash):
            _workload(store)
        recovered = _recover(backend_factory, wal_path)
        assert recovered == pre, f"crash at backend op {step} lost atomicity"


@pytest.mark.parametrize("backend_factory", BACKENDS)
@pytest.mark.parametrize(
    "step, expected",
    [
        ("append.start", "pre"),   # nothing opened: journal untouched
        ("append.write", "pre"),   # record never written
        ("append.flush", "post"),  # record written; close flushes it
        ("append.fsync", "post"),  # record flushed; fsync is extra durability
    ],
)
def test_crash_at_every_wal_append_step(
    backend_factory, tmp_path, step, expected
):
    """Kill at each WAL append step boundary of the commit: recovery lands
    on exactly pre (record not durable) or post (record durable)."""
    pre, post = _reference_states(backend_factory, tmp_path)
    store = RdfStore.from_graph(figure1_graph(), backend=backend_factory())
    wal_path = tmp_path / f"{step}.wal"
    store.attach_wal(wal_path, durability="fsync")  # exercises the fsync step
    plan = FaultPlan([Fault(step, 1, kind="crash")])
    store._wal.fault_hook = plan.wal_hook()
    with pytest.raises(SimulatedCrash):
        _workload(store)
    assert len(plan.fired) == 1
    recovered = _recover(backend_factory, wal_path)
    assert recovered == (pre if expected == "pre" else post)


@pytest.mark.parametrize("backend_factory", BACKENDS)
def test_torn_wal_write_matrix(backend_factory, tmp_path):
    """Kill mid-write after every possible prefix length of the journal
    record: a complete record recovers to post, any torn prefix to pre."""
    pre, post = _reference_states(backend_factory, tmp_path)

    # The framed record the workload commits (probe run, read it back).
    probe_path = tmp_path / "torn-probe.wal"
    probe = RdfStore.from_graph(figure1_graph(), backend=backend_factory())
    probe.attach_wal(probe_path)
    _workload(probe)
    record = _segment_bytes(probe_path)

    # Every prefix boundary would be ~200 cases; cover the structural ones
    # plus a seeded sample of interior cuts. Deterministic under SEED.
    rng = random.Random(SEED)
    cuts = {0, 1, len(record) - 1, len(record)}
    cuts.update(rng.sample(range(2, len(record) - 1), k=12))
    for cut in sorted(cuts):
        store = RdfStore.from_graph(
            figure1_graph(), backend=backend_factory()
        )
        wal_path = tmp_path / f"torn{cut}.wal"
        store.attach_wal(wal_path)
        plan = FaultPlan(
            [Fault("append.write", 1, kind="crash", torn_bytes=cut)]
        )
        store._wal.fault_hook = plan.wal_hook()
        with pytest.raises(SimulatedCrash):
            _workload(store)
        assert _segment_bytes(wal_path) == record[:cut]
        # Length framing makes completeness exact: only the full frame
        # (terminated by its newline) is a durable record.
        expected = post if cut == len(record) else pre
        recovered = _recover(backend_factory, wal_path)
        assert recovered == expected, f"torn write at byte {cut}"


@pytest.mark.parametrize("backend_factory", BACKENDS)
def test_kill_at_wal_record_k(backend_factory, tmp_path):
    """Commit several transactions, kill while journalling record K:
    recovery holds exactly the first K-1 commits, for every K."""
    triples = [
        Triple(URI(f"E{i}"), URI("tag"), URI(f"V{i}")) for i in range(4)
    ]

    # Reference prefixes: the snapshot after each number of commits.
    reference = RdfStore.from_graph(
        figure1_graph(), backend=backend_factory()
    )
    reference.attach_wal(tmp_path / "ref.wal")
    prefix_states = [_snapshot(reference)]
    for triple in triples:
        reference.add(triple)  # autocommits: one journal record each
        prefix_states.append(_snapshot(reference))

    for kill_at in range(1, len(triples) + 1):
        store = RdfStore.from_graph(
            figure1_graph(), backend=backend_factory()
        )
        wal_path = tmp_path / f"kill{kill_at}.wal"
        store.attach_wal(wal_path)
        plan = FaultPlan([Fault("append.write", kill_at, kind="crash")])
        store._wal.fault_hook = plan.wal_hook()
        with pytest.raises(SimulatedCrash):
            for triple in triples:
                store.add(triple)
        recovered = _recover(backend_factory, wal_path)
        assert recovered == prefix_states[kill_at - 1]


@pytest.mark.parametrize("backend_factory", BACKENDS)
def test_random_crash_points_land_on_pre_or_post(backend_factory, tmp_path):
    """Seeded random kills across both layers (backend ops and WAL steps):
    the recovered state is always exactly pre or post, never between."""
    pre, post = _reference_states(backend_factory, tmp_path)
    total = _probe_op_count(backend_factory, tmp_path)
    rng = random.Random(SEED)
    for case in range(8):
        wal_path = tmp_path / f"rand{case}.wal"
        store_backend = backend_factory()
        if rng.random() < 0.5:
            chaos = ChaosBackend(
                store_backend,
                FaultPlan(
                    [Fault("any", rng.randint(1, total), kind="crash")]
                ),
            )
            store = RdfStore.from_graph(figure1_graph(), backend=chaos)
            store.attach_wal(wal_path)
            chaos.arm()
        else:
            store = RdfStore.from_graph(
                figure1_graph(), backend=store_backend
            )
            store.attach_wal(wal_path)
            step = rng.choice(
                ["append.start", "append.write", "append.flush"]
            )
            plan = FaultPlan([Fault(step, 1, kind="crash")])
            store._wal.fault_hook = plan.wal_hook()
        with pytest.raises(SimulatedCrash):
            _workload(store)
        recovered = _recover(backend_factory, wal_path)
        assert recovered in (pre, post), f"case {case}: intermediate state"
