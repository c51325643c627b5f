"""Execution guardrails and deterministic fault injection.

Production stores bound runaway queries and survive crashes at arbitrary
points; this module gives the reproduction both properties and — just as
importantly — the machinery to *prove* them:

* **Guardrails.** A :class:`Budget` carries a per-query wall-clock
  deadline plus output-row and intermediate-row ceilings, and is the only
  limit a query carries below the store: each store surface turns its
  ``timeout=`` / ``max_rows=`` arguments into one budget
  (:meth:`Budget.from_limits`). It is ticked cooperatively by the minirel
  operator pipelines (every operator chunk) and enforced on sqlite
  through ``set_progress_handler``. Trips raise
  :class:`QueryTimeoutError` / :class:`BudgetExceededError`, both
  under :class:`GuardrailError` and :class:`~repro.core.errors.StoreError`;
  ``QueryTimeoutError`` is the one timeout type the paper's
  classification catches.
* **Deterministic fault injection.** A :class:`FaultPlan` is a seeded
  schedule of :class:`Fault` rules — fail the Nth ``insert_many``, raise
  on ``fsync``, kill (or tear) WAL record K, fill the disk, lose the
  unsynced suffix of a record at power loss — and :class:`ChaosBackend`
  consults the plan before every hooked backend operation. The
  crash-matrix test in
  ``tests/update/test_crash_matrix.py`` drives these through every step
  boundary of commit and WAL append, the disk-fault matrix in
  ``tests/update/test_disk_faults.py`` adds torn writes, bit flips,
  partial fsync, ENOSPC and rename-step crashes, and both assert recovery
  always lands on exactly the pre- or post-transaction state.

The relational substrate never imports this module: a :class:`Budget` is
handed down duck-typed (like tracing spans) and raises its own typed
errors from inside the operators that tick it; an unguarded query ticks
the no-op :data:`~repro.relational.executor.NO_BUDGET` instead.
"""

from __future__ import annotations

import errno
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..backends.base import Backend, BackendInterposer
from .errors import StoreError

# --------------------------------------------------------------------- errors


class GuardrailError(StoreError):
    """Base class for guardrail trips (timeouts and budget ceilings)."""


class QueryTimeoutError(GuardrailError):
    """The query's wall-clock deadline expired (the paper's *timeout*)."""


class BudgetExceededError(GuardrailError):
    """A row budget (output or intermediate) was exceeded."""

    def __init__(self, message: str, limit: int | None = None) -> None:
        super().__init__(message)
        self.limit = limit


class TransientFaultError(StoreError):
    """A survivable injected backend failure (:class:`ChaosBackend`); the
    write it interrupts leaves the store as it was, on either backend."""


class SimulatedCrash(Exception):
    """Process death, simulated. Deliberately *not* a StoreError: nothing
    in the store may catch-and-continue past it — the test harness catches
    it, discards the store, and recovers from durable state alone."""


# --------------------------------------------------------------------- budget


class Budget:
    """Cooperative per-query execution guardrails.

    ``timeout`` is seconds of wall clock from construction;
    ``max_rows`` bounds the final result set; ``max_intermediate_rows``
    bounds total operator work (every row an operator produces or probes
    counts one tick). All three are optional and independent.

    The minirel executor ticks the budget from every operator loop
    (:meth:`tick_batch`), sampling the clock once per
    :attr:`CHECK_EVERY` ticks; the
    sqlite backend maps the deadline onto its progress handler and counts
    handler firings (one per ~:data:`~repro.backends.sqlite.SqliteBackend.
    PROGRESS_OPS_BUDGET` VM instructions) against the intermediate
    ceiling — a work proxy, documented as best-effort.
    """

    __slots__ = (
        "timeout",
        "deadline",
        "max_rows",
        "max_intermediate_rows",
        "ticks",
        "tripped",
        "_check_at",
    )

    #: ticks between deadline checks (the clock is the expensive part)
    CHECK_EVERY = 4096

    def __init__(
        self,
        timeout: float | None = None,
        max_rows: int | None = None,
        max_intermediate_rows: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.timeout = timeout
        self.deadline = clock() + timeout if timeout is not None else None
        self.max_rows = max_rows
        self.max_intermediate_rows = max_intermediate_rows
        #: intermediate rows ticked so far (minirel) / work units (sqlite)
        self.ticks = 0
        #: which guardrail tripped: None | "timeout" | "intermediate" | "rows"
        self.tripped: str | None = None
        #: ``ticks`` value at which :meth:`tick_batch` next reads the clock
        self._check_at = self.CHECK_EVERY

    @classmethod
    def from_limits(
        cls, timeout: float | None, max_rows: int | None, max_intermediate_rows: int | None
    ) -> "Budget | None":
        """The budget for a query's guardrail arguments, or ``None`` when
        none is set (the guardrails-off path pays no per-row cost)."""
        if timeout is None and max_rows is None and max_intermediate_rows is None:
            return None
        return cls(timeout, max_rows, max_intermediate_rows)

    def tick_batch(self, count: int = 1) -> None:
        """Account ``count`` logical rows of operator work (one call per
        chunk, so row ceilings do not depend on the chunk size)."""
        if count <= 0:
            return
        self.ticks += count
        cap = self.max_intermediate_rows
        if cap is not None and self.ticks > cap:
            self.trip("intermediate")
        if self.deadline is not None and self.ticks >= self._check_at:
            self._check_at = self.ticks + self.CHECK_EVERY
            if time.monotonic() > self.deadline:
                self.trip("timeout")

    tick = tick_batch

    def trip(self, reason: str) -> None:
        """Record a trip and raise the matching typed error."""
        self.tripped = reason
        if reason == "timeout":
            raise QueryTimeoutError(
                f"query exceeded its {self.timeout}s timeout"
            )
        if reason == "intermediate":
            raise BudgetExceededError(
                f"query exceeded max_intermediate_rows="
                f"{self.max_intermediate_rows}",
                limit=self.max_intermediate_rows,
            )
        raise BudgetExceededError(
            f"query exceeded max_rows={self.max_rows}", limit=self.max_rows
        )

    def raise_tripped(self, cause: BaseException | None = None) -> None:
        """Re-raise the recorded trip (set by the sqlite progress handler,
        which can only return an abort flag, not raise)."""
        try:
            self.trip(self.tripped)
        except GuardrailError as exc:
            raise exc from cause

    def enforce_output(self, count: int) -> None:
        """Check the final result size against ``max_rows``."""
        if self.max_rows is not None and count > self.max_rows:
            self.trip("rows")

    def __repr__(self) -> str:
        return (
            f"Budget(timeout={self.timeout}, max_rows={self.max_rows}, "
            f"max_intermediate_rows={self.max_intermediate_rows}, "
            f"ticks={self.ticks}, tripped={self.tripped})"
        )


# ------------------------------------------------------------ fault injection


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``op`` names a backend operation (``"execute"``, ``"insert_many"``,
    ``"create_table"``, ``"create_index"``, or ``"any"`` to count every
    operation) or a WAL step — the append steps ``"append.start"`` /
    ``"append.write"`` / ``"append.flush"`` / ``"append.fsync"``, the
    rotation step ``"rotate.seal"``, and the
    checkpoint/compaction steps ``"checkpoint.write"`` /
    ``"checkpoint.sync"`` / ``"checkpoint.rename"`` / ``"compact.unlink"``.
    ``at`` is the 1-based occurrence of that op at which the fault fires.

    ``kind`` selects what happens:

    * ``"transient"`` — survivable :class:`TransientFaultError`;
    * ``"crash"`` — :class:`SimulatedCrash` (process death);
    * ``"enospc"`` — ``OSError(ENOSPC)``, the disk filling up mid-write;
      the journal reacts by truncating the partial record and raising
      :class:`~repro.update.errors.WalWriteError`, which the transaction
      unwinds — the process survives.

    ``torn_bytes`` applies to ``append.write`` crashes: that many bytes
    of the record are written before the process dies, modelling a torn
    journal tail. ``durable_bytes`` applies to ``append.fsync`` crashes:
    the file is truncated back to that many bytes past the record's start
    offset before dying, modelling a *partial fsync* — the OS accepted
    the whole write but only a prefix reached stable storage when power
    was lost.
    """

    op: str
    at: int
    kind: str = "transient"
    torn_bytes: int | None = None
    durable_bytes: int | None = None


class FaultPlan:
    """A deterministic schedule of faults, keyed by (op, occurrence).

    The plan is consulted by :class:`ChaosBackend` for backend operations
    and by :meth:`wal_hook` for WAL append steps; ``fired`` records every
    fault actually raised, in order, for assertions.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._by_op: dict[str, dict[int, Fault]] = {}
        for fault in faults:
            self._by_op.setdefault(fault.op, {})[fault.at] = fault
        self.fired: list[Fault] = []

    def match(self, op: str, op_count: int, total_count: int) -> Fault | None:
        fault = self._by_op.get(op, {}).get(op_count)
        if fault is None:
            fault = self._by_op.get("any", {}).get(total_count)
        return fault

    def fire(self, fault: Fault, where: str) -> None:
        """Raise ``fault``; called once the schedule matched."""
        self.fired.append(fault)
        if fault.kind == "crash":
            raise SimulatedCrash(f"injected crash at {where}")
        if fault.kind == "enospc":
            raise OSError(
                errno.ENOSPC, f"injected disk-full fault at {where}"
            )
        raise TransientFaultError(f"injected transient fault at {where}")

    def wal_hook(self) -> Callable[[str, dict], None]:
        """A :class:`~repro.update.wal.WriteAheadLog` fault hook driven by
        this plan: counts journal steps (append, rotation, checkpoint,
        compaction) and fires matching faults. A ``torn_bytes``
        crash on ``append.write`` writes that prefix of the record (and
        flushes it) before dying, leaving a torn tail. A ``durable_bytes``
        crash on ``append.fsync`` truncates the file so only that prefix
        of the record survives — a partial fsync at power loss."""
        counts: Counter[str] = Counter()

        def hook(step: str, payload: dict) -> None:
            counts[step] += 1
            counts["any"] += 1
            fault = self.match(step, counts[step], counts["any"])
            if fault is None:
                return
            if (
                fault.kind == "crash"
                and fault.torn_bytes is not None
                and step == "append.write"
            ):
                payload["handle"].write(payload["data"][: fault.torn_bytes])
                payload["handle"].flush()
            if (
                fault.kind == "crash"
                and fault.durable_bytes is not None
                and step == "append.fsync"
            ):
                handle = payload["handle"]
                handle.flush()
                os.ftruncate(
                    handle.fileno(), payload["offset"] + fault.durable_bytes
                )
            self.fire(fault, f"wal {step} #{counts[step]}")

        return hook


class ChaosBackend(BackendInterposer):
    """A backend wrapper that injects scheduled faults before delegating.

    Counts the four hooked operations (only while armed, so store
    construction and bulk load stay fault-free by default) and consults
    the :class:`FaultPlan` before each one. Write brackets, snapshots and
    metadata reads are not fault-injection points: they never reach the
    hook, which keeps the op numbering every recorded crash-matrix
    scenario depends on.
    """

    def __init__(
        self, inner: Backend, plan: FaultPlan | None = None, armed: bool = False
    ) -> None:
        super().__init__(inner)
        self.plan = plan if plan is not None else FaultPlan()
        self.armed = armed
        self.op_counts: Counter[str] = Counter()
        self.total_ops = 0
        self.name = f"chaos({inner.name})"

    def arm(self) -> None:
        """Start counting operations and injecting faults."""
        self.armed = True

    def _around(self, op: str, call: Callable[[], Any]) -> Any:
        if self.armed:
            self.op_counts[op] += 1
            self.total_ops += 1
            fault = self.plan.match(op, self.op_counts[op], self.total_ops)
            if fault is not None:
                self.plan.fire(
                    fault, f"{self.inner.name}.{op} #{self.op_counts[op]}"
                )
        return call()
