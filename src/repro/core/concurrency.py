"""Snapshot reads and scheduling hooks for concurrent stores.

:class:`Snapshot` is the read side of the store's concurrency contract: it
pins a committed state — the backend's MVCC version (minirel) or a private
read connection (sqlite), the stats epoch, and the engine built from the
metadata as of acquisition — so queries against it are repeatable and never
observe a half-applied transaction, no matter what writers commit
concurrently. Writers serialize behind the store's writer lock; snapshot
acquisition takes the same lock briefly, which is what makes the
(version, epoch, engine) triple it captures consistent.

:class:`StoreHooks` exposes named callback points on the write and
snapshot paths. The deterministic interleaving tests script known-nasty
orderings by blocking threads inside these callbacks; a store with
``hooks`` unset pays a single attribute check per site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from .observe import run_profiled
from .resilience import Budget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sparql.results import SelectResult
    from .store import RdfStore

HookCallback = Callable[..., None]


class SnapshotClosedError(RuntimeError):
    """Raised when querying a snapshot after :meth:`Snapshot.close`."""


class StoreHooks:
    """Named synchronous callback points on a store's critical paths.

    Fire points: ``txn.begin``, ``commit.wal``, ``commit.publish.before``,
    ``commit.publish.after``, ``rollback``, ``snapshot.acquire``,
    ``snapshot.release``, ``checkpoint`` (after a successful
    :meth:`~repro.core.store.RdfStore.checkpoint`), ``backup`` (after a
    verified :meth:`~repro.core.store.RdfStore.backup`). Callbacks
    registered under ``"*"`` receive every
    point. Callbacks run on the firing thread while it may hold the writer
    lock — a callback that blocks stalls that writer, which is exactly what
    the interleaving tests exploit.
    """

    def __init__(self) -> None:
        self._callbacks: dict[str, list[HookCallback]] = {}

    def on(self, point: str, callback: HookCallback) -> None:
        self._callbacks.setdefault(point, []).append(callback)

    def fire(self, point: str, **info: Any) -> None:
        for callback in self._callbacks.get(point, ()):
            callback(point, **info)
        for callback in self._callbacks.get("*", ()):
            callback(point, **info)


class Snapshot:
    """A pinned point-in-time read view of an :class:`RdfStore`.

    Handed out by :meth:`RdfStore.snapshot`; usable as a context manager.
    Queries through it are repeatable reads: every query sees exactly the
    committed store state at acquisition. Close promptly — an open
    snapshot makes concurrent writers retain superseded row versions
    (minirel) or holds a read transaction / page copy (sqlite).
    """

    def __init__(
        self,
        store: "RdfStore",
        handle: Any,
        epoch: int,
        engine: Any,
    ) -> None:
        self._store = store
        self._handle = handle
        #: the stats epoch this snapshot pins (plan-cache key component)
        self.epoch = epoch
        self._engine = engine
        self.closed = False

    # ---------------------------------------------------------------- reads

    def _check_open(self) -> None:
        if self.closed:
            raise SnapshotClosedError("snapshot is closed")

    def query(
        self,
        sparql,
        timeout: float | None = None,
        max_rows: int | None = None,
        max_intermediate_rows: int | None = None,
        profile: bool = False,
    ) -> "SelectResult":
        """Evaluate a SELECT against the pinned state (same guardrail and
        PROFILE semantics as :meth:`RdfStore.query`)."""
        self._check_open()
        budget = Budget.from_limits(timeout, max_rows, max_intermediate_rows)
        return run_profiled(
            lambda tracer: self._engine.query(
                sparql,
                tracer=tracer,
                budget=budget,
                snapshot=self._handle,
                epoch=self.epoch,
            ),
            profile,
            "query",
            self._store.profile_sinks,
        )

    def ask(self, sparql: str, timeout: float | None = None) -> bool:
        """Evaluate an ASK against the pinned state."""
        return len(self.query(sparql, timeout=timeout)) > 0

    # ---------------------------------------------------------------- close

    def close(self) -> None:
        """Release the pin (idempotent). Retained row versions become
        collectable once the last snapshot pinning them closes."""
        if self.closed:
            return
        self.closed = True
        try:
            self._handle.release()
        finally:
            hooks = self._store.hooks
            if hooks is not None:
                hooks.fire("snapshot.release", epoch=self.epoch)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
