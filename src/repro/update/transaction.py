"""Atomic write batches with group commit.

The transaction applies writes to the store *eagerly* — each ``add`` /
``remove`` lands in the DPH/DS/RPH/RS tables immediately, so WHERE
clauses of later operations in the same request see earlier effects —
inside the store's writer bracket. ``rollback`` aborts that bracket: the
backend restores its data (sqlite's ``ROLLBACK``, minirel's bracket log)
and the store restores its side metadata, so the transaction keeps no
undo log of its own. ``commit`` journals the net delta to the WAL (if one
is attached) and bumps the statistics epoch exactly once, which is what
lets cached query plans stay warm across a thousand-triple batch instead
of being invalidated a thousand times.

A write that raises may have landed in part, so it marks the transaction
``failed``: from then on only :meth:`Transaction.rollback` is allowed.

A transaction that changed nothing commits without bumping the epoch at
all: failed deletes and duplicate inserts keep the plan cache warm.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Callable

from ..rdf.terms import Triple, term_key
from ..sparql.ast import SelectQuery
from ..sparql.results import SelectResult
from .errors import TransactionError, WalError
from .wal import WalOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.store import RdfStore

logger = logging.getLogger("repro.update.transaction")


class Transaction:
    """One atomic batch of writes against an :class:`RdfStore`.

    Created via :meth:`RdfStore.transaction`; usable as a context manager
    (commit on clean exit, rollback on exception) or driven manually::

        with store.transaction() as txn:
            txn.add(triple)
            txn.remove(other)
        # committed: epoch bumped once, delta journalled

    Also a valid :class:`~repro.update.apply.WriteTarget`, so
    :func:`~repro.update.apply.apply_update` can execute a whole parsed
    update request inside one transaction.
    """

    def __init__(self, store: "RdfStore") -> None:
        self.store = store
        self.state = "open"  # open | failed | committed | rolled-back
        #: the net journal record, in apply order
        self._ops: list[WalOp] = []

    # ------------------------------------------------------------- writes

    def _check_open(self) -> None:
        if self.state != "open":
            raise TransactionError(f"transaction already {self.state}")

    def add(self, triple: Triple) -> bool:
        """Insert ``triple``; returns False for a duplicate no-op."""
        return self._write("+", self.store._apply_add, triple)

    def remove(self, triple: Triple) -> bool:
        """Delete ``triple``; returns False when it was absent."""
        return self._write("-", self.store._apply_remove, triple)

    def _write(
        self, tag: str, apply: Callable[[Triple], bool], triple: Triple
    ) -> bool:
        self._check_open()
        try:
            changed = apply(triple)
        except BaseException:
            self.state = "failed"  # partly landed: only rollback undoes it
            raise
        if changed:
            self._ops.append((tag, *_keys(triple)))
        return changed

    def select(self, query: SelectQuery) -> SelectResult:
        """Evaluate a WHERE clause against the in-transaction state."""
        self._check_open()
        return self.store.engine.query(query)

    # ------------------------------------------------------------ closing

    def commit(self) -> None:
        """Publish the batch: journal the delta, bump the epoch once.

        Crash-ordering contract (proven step-by-step by
        ``tests/update/test_crash_matrix.py``): the in-memory apply already
        happened eagerly, so the only durability point is the WAL append.
        A crash anywhere before the journal record is complete recovers to
        the pre-transaction state on replay; once the record is durable,
        recovery yields the post-transaction state — never anything in
        between.

        A *survivable* journal failure (:class:`WalError` — disk full, I/O
        error) is a different matter from a crash: the process lives on,
        so memory and journal must not diverge. The journal truncates its
        partial record, the writer bracket aborts, and the error
        propagates — the commit never happened."""
        self._check_open()
        self.state = "committed"
        self.store._txn = None
        hooks = self.store.hooks
        published = False
        try:
            if self._ops:
                if hooks is not None:
                    hooks.fire("commit.wal", ops=len(self._ops))
                wal = self.store._wal
                if wal is not None:
                    try:
                        wal.append(self._ops)
                    except WalError:
                        self.state = "rolled-back"
                        raise
                self.store.stats.bump_epoch()
                self.store._engine = None
                published = True
                if wal is not None and wal.should_checkpoint():
                    # Policy-triggered compaction rides the commit while the
                    # writer bracket is still held. The record above is
                    # already durable, so a checkpoint *failure* must not
                    # fail the commit — but an injected SimulatedCrash is
                    # not an error and propagates untouched.
                    try:
                        wal.checkpoint(meta=self.store._checkpoint_meta())
                    except (WalError, OSError) as exc:
                        logger.warning(
                            "auto-checkpoint after txn %d failed "
                            "(will retry on a later commit): %s",
                            wal.last_txn, exc,
                        )
            if hooks is not None:
                hooks.fire("commit.publish.before", ops=len(self._ops))
        finally:
            # An empty batch aborts the backend bracket: no version is
            # published, so snapshot GC horizons don't creep on no-ops.
            self.store._end_write(publish=published)
        if hooks is not None:
            hooks.fire("commit.publish.after", ops=len(self._ops))

    def rollback(self) -> None:
        """Abort the writer bracket: the store returns to its state when
        the transaction opened.

        The epoch is *not* bumped: a rolled-back transaction never
        happened, so plans cached before it remain exactly as valid."""
        if self.state != "failed":
            self._check_open()
        self.state = "rolled-back"
        self.store._txn = None
        try:
            hooks = self.store.hooks
            if hooks is not None:
                hooks.fire("rollback", ops=len(self._ops))
        finally:
            self.store._end_write(publish=False)

    # ----------------------------------------------------- context manager

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state == "open" and exc_type is None:
            self.commit()
        elif self.state in ("open", "failed"):
            failed = self.state == "failed"
            self.rollback()
            if failed and exc_type is None:  # the failure was swallowed
                raise TransactionError("a write failed; transaction rolled back")


def _keys(triple: Triple) -> tuple[str, str, str]:
    return (
        term_key(triple.subject),
        triple.predicate.value,
        term_key(triple.object),
    )
