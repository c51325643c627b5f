"""The disk-fault recovery matrix: damage storage, reopen, verify.

Extends the crash matrix (``test_crash_matrix.py`` kills the process at
step boundaries) with faults *in the storage itself*: torn writes that
persist a prefix of a record, single-bit flips in committed records,
partial fsync (the write returned but only a prefix survived power loss),
disk-full (ENOSPC) mid-append, and crashes between the rename steps of
checkpoint publication. Every cell asserts the reopened store holds
exactly a committed-prefix state on both backends — and that ``strict``
recovery raises :class:`WalCorruptionError` naming segment + offset for
damage that is not a torn tail.

Set ``REPRO_RECOVERY_MATRIX_OUT`` to a path and the matrix cells this run
verified are written there as JSON (CI uploads it as an artifact).
"""

from __future__ import annotations

import json
import os
import pathlib
import random

import pytest

from repro import RdfStore, Triple, URI
from repro.backends import MiniRelBackend, SqliteBackend
from repro.core.resilience import Fault, FaultPlan, SimulatedCrash
from repro.update import WalCorruptionError, WalWriteError, inspect_wal

from ..conftest import figure1_graph

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

BACKENDS = [MiniRelBackend, SqliteBackend]

ALL_SPO = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"

#: every verified (fault, backend, outcome) cell, dumped as the artifact
MATRIX: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _recovery_matrix_artifact():
    yield
    out = os.environ.get("REPRO_RECOVERY_MATRIX_OUT")
    if out:
        pathlib.Path(out).write_text(
            json.dumps({"seed": SEED, "cells": MATRIX}, indent=1)
        )


def _cell(fault: str, backend, outcome: str, **detail) -> None:
    MATRIX.append(
        {"fault": fault, "backend": backend.__name__, "outcome": outcome,
         **detail}
    )


def _snapshot(store):
    return tuple(store.query(ALL_SPO).canonical())


def _workload(store):
    txn = store.transaction()
    txn.add(Triple(URI("Sergey_Brin"), URI("founder"), URI("Google")))
    txn.add(Triple(URI("Sergey_Brin"), URI("born"), URI("1973")))
    txn.remove(Triple(URI("Android"), URI("preceded"), URI("4.0")))
    txn.commit()


def _build(backend_factory, wal_path, **wal_kwargs):
    store = RdfStore.from_graph(figure1_graph(), backend=backend_factory())
    store.attach_wal(wal_path, **wal_kwargs)
    return store


def _recover(backend_factory, wal_path, **wal_kwargs):
    store = _build(backend_factory, wal_path, **wal_kwargs)
    return _snapshot(store)


def _reference_states(backend_factory, tmp_path):
    store = _build(backend_factory, tmp_path / "clean.wal")
    pre = _snapshot(store)
    _workload(store)
    post = _snapshot(store)
    assert post != pre
    return pre, post


def _segment_bytes(wal_path):
    segments = sorted(pathlib.Path(wal_path).glob("wal-*.seg"))
    return b"".join(segment.read_bytes() for segment in segments)


# ------------------------------------------------------------- torn writes


@pytest.mark.parametrize("backend_factory", BACKENDS)
def test_torn_write_recovers_committed_prefix(backend_factory, tmp_path):
    """A crash that persists only a prefix of the record: recovery drops
    the torn tail and lands on the pre state; a complete record is post."""
    pre, post = _reference_states(backend_factory, tmp_path)
    probe = _build(backend_factory, tmp_path / "probe.wal")
    _workload(probe)
    probe.flush_wal()
    record = _segment_bytes(tmp_path / "probe.wal")
    rng = random.Random(SEED)
    cuts = sorted({0, 1, len(record) // 2, len(record) - 1, len(record),
                   rng.randrange(2, len(record) - 1)})
    for cut in cuts:
        wal_path = tmp_path / f"torn{cut}.wal"
        store = _build(backend_factory, wal_path)
        plan = FaultPlan([Fault("append.write", 1, kind="crash",
                                torn_bytes=cut)])
        store._wal.fault_hook = plan.wal_hook()
        with pytest.raises(SimulatedCrash):
            _workload(store)
        expected = post if cut == len(record) else pre
        assert _recover(backend_factory, wal_path) == expected, (
            f"torn write at byte {cut}"
        )
        _cell("torn_write", backend_factory,
              "post" if cut == len(record) else "pre", cut=cut)


# ---------------------------------------------------------------- bit flips


@pytest.mark.parametrize("backend_factory", BACKENDS)
def test_bit_flip_strict_raises_with_location(backend_factory, tmp_path):
    """A single flipped bit in a committed interior record: strict
    recovery refuses with segment + offset; tolerate_tail keeps exactly
    the commits before the damage."""
    wal_path = tmp_path / "flip.wal"
    store = _build(backend_factory, wal_path)
    prefix_states = [_snapshot(store)]
    for i in range(3):
        store.add(Triple(URI(f"E{i}"), URI("tag"), URI(f"V{i}")))
        prefix_states.append(_snapshot(store))
    store.flush_wal()
    del store

    segment = sorted(wal_path.glob("wal-*.seg"))[0]
    lines = segment.read_bytes().splitlines(keepends=True)
    second = bytearray(lines[1])
    second[second.index(b"{") + 3] ^= 0x04  # one bit, record 2's payload
    offset_of_second = len(lines[0])
    lines[1] = bytes(second)
    segment.write_bytes(b"".join(lines))

    with pytest.raises(WalCorruptionError, match="checksum mismatch") as info:
        _build(backend_factory, wal_path)
    assert info.value.segment == str(segment)
    assert info.value.offset == offset_of_second
    assert info.value.index == 2
    _cell("bit_flip", backend_factory, "strict_raise",
          segment=segment.name, offset=offset_of_second)

    recovered = _recover(backend_factory, wal_path, recovery="tolerate_tail")
    assert recovered == prefix_states[1]  # commits before the damage
    _cell("bit_flip", backend_factory, "tolerate_tail_prefix", kept_txns=1)


# ------------------------------------------------------------ partial fsync


@pytest.mark.parametrize("backend_factory", BACKENDS)
@pytest.mark.parametrize("survived", ["none", "half", "all"])
def test_partial_fsync_at_power_loss(backend_factory, tmp_path, survived):
    """Power loss during fsync: the OS accepted the whole write, but only
    ``durable_bytes`` reached the platter. Any incomplete suffix is a torn
    tail; recovery lands on pre — only the full record is post."""
    pre, post = _reference_states(backend_factory, tmp_path)
    probe = _build(backend_factory, tmp_path / "fsprobe.wal",
                   durability="fsync")
    _workload(probe)
    record_len = len(_segment_bytes(tmp_path / "fsprobe.wal"))
    durable = {"none": 0, "half": record_len // 2, "all": record_len}[survived]

    wal_path = tmp_path / f"fsync-{survived}.wal"
    store = _build(backend_factory, wal_path, durability="fsync")
    plan = FaultPlan([Fault("append.fsync", 1, kind="crash",
                            durable_bytes=durable)])
    store._wal.fault_hook = plan.wal_hook()
    with pytest.raises(SimulatedCrash):
        _workload(store)
    assert len(_segment_bytes(wal_path)) == durable
    expected = post if durable == record_len else pre
    assert _recover(backend_factory, wal_path) == expected
    _cell("partial_fsync", backend_factory,
          "post" if durable == record_len else "pre",
          durable_bytes=durable)


# -------------------------------------------------------------------- ENOSPC


@pytest.mark.parametrize("backend_factory", BACKENDS)
def test_enospc_fails_the_commit_and_survives(backend_factory, tmp_path):
    """Disk full mid-append is a *survivable* fault, not a crash: the
    commit fails with WalWriteError, the in-memory state unwinds to the
    pre state, the journal stays valid, and the next commit (disk space
    recovered) succeeds."""
    wal_path = tmp_path / "enospc.wal"
    store = _build(backend_factory, wal_path)
    plan = FaultPlan([Fault("append.write", 2, kind="enospc")])
    store._wal.fault_hook = plan.wal_hook()
    store.add(Triple(URI("keep"), URI("p"), URI("v")))  # append #1, clean
    pre = _snapshot(store)

    with pytest.raises(WalWriteError, match="disk-full"):
        _workload(store)
    assert len(plan.fired) == 1
    # Memory and journal agree on the pre state — no divergence.
    assert _snapshot(store) == pre
    assert inspect_wal(wal_path).ok
    _cell("enospc", backend_factory, "commit_unwound")

    # Disk space "freed": the journal accepts the retried commit.
    _workload(store)
    after = _snapshot(store)
    assert after != pre
    assert _recover(backend_factory, wal_path) == after
    _cell("enospc", backend_factory, "retry_committed")


@pytest.mark.parametrize("backend_factory", BACKENDS)
def test_enospc_partial_record_is_truncated(backend_factory, tmp_path):
    """ENOSPC raised by the flush after a buffered-in-OS write: whatever
    prefix landed is truncated away, keeping the journal frame-valid."""
    wal_path = tmp_path / "enospc-flush.wal"
    store = _build(backend_factory, wal_path)
    plan = FaultPlan([Fault("append.flush", 2, kind="enospc")])
    store._wal.fault_hook = plan.wal_hook()
    store.add(Triple(URI("keep"), URI("p"), URI("v")))  # flush #1, clean
    store.flush_wal()
    intact = _segment_bytes(wal_path)
    pre = _snapshot(store)

    with pytest.raises(WalWriteError):
        _workload(store)
    assert _segment_bytes(wal_path) == intact
    assert _snapshot(store) == pre
    assert _recover(backend_factory, wal_path) == pre
    _cell("enospc_flush", backend_factory, "truncated_to_prefix")


# ------------------------------------------- crashes between rename steps


CHECKPOINT_STEPS = [
    "checkpoint.write",   # tmp file being written: old state intact
    "checkpoint.sync",    # tmp written, not yet durable: still unpublished
    "checkpoint.rename",  # about to publish: tmp ignored on recovery
    "compact.unlink",     # checkpoint live, covered segment not yet gone
]


@pytest.mark.parametrize("backend_factory", BACKENDS)
@pytest.mark.parametrize("step", CHECKPOINT_STEPS)
def test_crash_between_checkpoint_rename_steps(backend_factory, tmp_path, step):
    """Kill at every step boundary of checkpoint publication: recovery
    always reproduces the full committed state, whether the checkpoint
    ended up published or not."""
    wal_path = tmp_path / f"ckpt-{step}.wal"
    store = _build(backend_factory, wal_path)
    _workload(store)
    store.add(Triple(URI("extra"), URI("p"), URI("v")))
    committed = _snapshot(store)

    plan = FaultPlan([Fault(step, 1, kind="crash")])
    store._wal.fault_hook = plan.wal_hook()
    with pytest.raises(SimulatedCrash):
        store.checkpoint()
    assert len(plan.fired) == 1

    assert _recover(backend_factory, wal_path) == committed, (
        f"crash at {step} lost committed state"
    )
    _cell("checkpoint_crash", backend_factory, "committed_state", step=step)


@pytest.mark.parametrize("backend_factory", BACKENDS)
def test_crash_during_rotation_manifest_update(backend_factory, tmp_path):
    """Kill as a segment rotation seals the full segment: the record that
    caused the rotation is already durable, so recovery holds every
    committed transaction."""
    wal_path = tmp_path / "rot.wal"
    store = _build(backend_factory, wal_path, segment_max_bytes=128)
    store.add(Triple(URI("first"), URI("p"), URI("v")))
    plan = FaultPlan([Fault("rotate.seal", 1, kind="crash")])
    store._wal.fault_hook = plan.wal_hook()
    with pytest.raises(SimulatedCrash):
        for i in range(10):
            store.add(Triple(URI(f"E{i}"), URI("tag"), URI(f"V{i}")))
    fired_after = len(store._wal.dropped)

    recovered_store = _build(backend_factory, wal_path)
    recovered = _snapshot(recovered_store)
    assert ("first", "p", "v") in recovered
    # Every record the journal holds replays; none were lost to the
    # mid-rotation crash.
    assert recovered_store._wal.last_txn >= 2
    assert fired_after == 0
    _cell("rotation_crash", backend_factory, "committed_state")
