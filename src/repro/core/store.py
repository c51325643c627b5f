"""The public DB2RDF store API.

``RdfStore`` owns a relational backend, the DPH/DS/RPH/RS schema, the
predicate mappers (hash composition by default, graph coloring via
:meth:`RdfStore.from_graph`), load-time metadata, dataset statistics, and a
SPARQL engine. Typical use::

    from repro import RdfStore
    store = RdfStore.from_graph(graph)           # color + bulk load
    result = store.query("SELECT ?x WHERE { ?x <p> ?y }")

"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from . import sqlfunctions  # noqa: F401  (registers RDF_* SQL functions)
from ..backends import Backend, MiniRelBackend
from ..rdf.graph import Graph
from ..rdf.terms import Triple, URI, term_from_key, term_key
from ..sparql.ast import SelectQuery
from ..sparql.engine import EngineConfig, SparqlEngine
from ..sparql.results import SelectResult
from ..sparql.translator.db2rdf import Db2RdfEmitter, StorageInfo
from ..update.apply import UpdateResult, apply_update
from ..update.ast import UpdateRequest
from ..update.errors import TransactionError
from ..update.parser import parse_update
from ..update.transaction import Transaction
from ..update.wal import CheckpointInfo, WalStatus, WriteAheadLog, inspect_wal
from .coloring import color_graph_for_store
from .concurrency import Snapshot, StoreHooks
from .loader import Loader, LoadReport, SideMetadata
from .mapping import PredicateMapper, composed_hashes
from .observe import Sink, Span, Tracer, run_profiled, traced
from .querycache import CacheInfo, QueryCache
from .resilience import Budget
from .schema import DB2RDFSchema
from .stats import DatasetStatistics

DEFAULT_COLUMNS = 32
MAX_COLORING_COLUMNS = 100


@dataclass
class StoreReport:
    """Load statistics exposed for the Table 4 / §2.3 experiments,
    plus journal health when a WAL is attached."""

    triples: int
    direct: SideMetadata
    reverse: SideMetadata
    direct_columns: int
    reverse_columns: int
    #: journal records discarded during recovery (0 = clean history)
    wal_records_dropped: int = 0
    #: live journal segments (0 when no WAL is attached)
    wal_segments: int = 0
    #: last committed transaction id (0 when no WAL / empty journal)
    wal_last_txn: int = 0


class RdfStore:
    """An entity-oriented RDF store over a relational backend."""

    def __init__(
        self,
        backend: Backend | None = None,
        direct_columns: int = DEFAULT_COLUMNS,
        reverse_columns: int = DEFAULT_COLUMNS,
        direct_mapper: PredicateMapper | None = None,
        reverse_mapper: PredicateMapper | None = None,
        table_prefix: str = "",
        config: EngineConfig | None = None,
        wal_path: str | os.PathLike | None = None,
    ) -> None:
        self.backend = backend if backend is not None else MiniRelBackend()
        self.schema = DB2RDFSchema(direct_columns, reverse_columns, table_prefix)
        self.schema.create_all(self.backend)
        self.direct_mapper = direct_mapper or composed_hashes(direct_columns)
        self.reverse_mapper = reverse_mapper or composed_hashes(reverse_columns)
        self.loader = Loader(
            self.schema, self.backend, self.direct_mapper, self.reverse_mapper
        )
        self.direct_meta = SideMetadata()
        self.reverse_meta = SideMetadata()
        self.stats = DatasetStatistics()
        self.config = config or EngineConfig()
        # The plan cache outlives engine rebuilds (the engine is recreated
        # whenever storage metadata changes); stats-epoch keying invalidates
        # entries whose cost inputs went stale.
        self._plan_cache = QueryCache(self.config.cache_size)
        self._engine: SparqlEngine | None = None
        #: callables receiving every finished PROFILE trace (root Span)
        self.profile_sinks: list[Sink] = []
        #: the currently open transaction, if any (one at a time per store)
        self._txn: Transaction | None = None
        self._wal: WriteAheadLog | None = None
        #: writers (transactions, bulk loads, WAL replay) serialize here;
        #: snapshot acquisition takes it briefly to capture consistent state
        self._writer_lock = threading.Lock()
        self._writer_thread: int | None = None
        self._write_depth = 0
        #: copies of the side state, taken when the outermost bracket opened
        self._side_state: tuple = ()
        #: optional scheduling/observability hook points (None = no cost)
        self.hooks: StoreHooks | None = None
        if wal_path is not None:
            self.attach_wal(wal_path)

    # --------------------------------------------------------- construction

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        backend: Backend | None = None,
        use_coloring: bool = True,
        max_columns: int = MAX_COLORING_COLUMNS,
        sample_fraction: float | None = None,
        table_prefix: str = "",
        config: EngineConfig | None = None,
        top_k_stats: int = 1000,
        wal_path: str | os.PathLike | None = None,
    ) -> "RdfStore":
        """Build a store sized and colored for ``graph``, then bulk load it.

        ``use_coloring=False`` gives the pure hash-composition layout;
        ``sample_fraction`` colors from a random entity sample (the §2.3
        incremental-coloring experiment).
        """
        if use_coloring and len(graph):
            direct_result, reverse_result = color_graph_for_store(
                graph, max_columns, sample_fraction=sample_fraction
            )
            direct_columns = max(direct_result.colors_used, 1)
            reverse_columns = max(reverse_result.colors_used, 1)
            direct_mapper: PredicateMapper = direct_result.to_mapper(
                direct_columns, composed_hashes(direct_columns)
            )
            reverse_mapper: PredicateMapper = reverse_result.to_mapper(
                reverse_columns, composed_hashes(reverse_columns)
            )
            store = cls(
                backend=backend,
                direct_columns=direct_columns,
                reverse_columns=reverse_columns,
                direct_mapper=direct_mapper,
                reverse_mapper=reverse_mapper,
                table_prefix=table_prefix,
                config=config,
            )
            store.coloring_direct = direct_result
            store.coloring_reverse = reverse_result
        else:
            store = cls(backend=backend, table_prefix=table_prefix, config=config)
        store.load_graph(graph, top_k_stats=top_k_stats)
        if wal_path is not None:
            # Attached after the bulk load so journalled incremental writes
            # replay on top of the loaded data.
            store.attach_wal(wal_path)
        return store

    # ------------------------------------------------------- writer bracket

    def _begin_write(self) -> None:
        """Enter the writer bracket (blocking on other threads' writers).

        Re-entrant per thread: a bulk load inside an open transaction nests
        and the outermost exit publishes. The backend's write bracket opens
        exactly once, at the outermost entry, which also copies the side
        state the store and loader keep beside the tables.
        """
        ident = threading.get_ident()
        if self._writer_thread == ident:
            self._write_depth += 1
            return
        self._writer_lock.acquire()
        self._writer_thread = ident
        self._write_depth = 1
        self.backend.begin_write()
        loader = self.loader
        self._side_state = (
            self.direct_meta.copy(), self.reverse_meta.copy(), self.stats.copy(),
            loader.online_direct.copy(), loader.online_reverse.copy(),
            loader.bulk_direct_preds.copy(), loader.bulk_reverse_preds.copy(),
            loader.direct_lids.next_id, loader.reverse_lids.next_id,
        )

    def _end_write(self, publish: bool) -> None:
        """Leave the writer bracket; the outermost exit publishes or aborts
        the backend bracket and releases the lock.

        Aborting is the one rollback: the backend restores its data and the
        side state goes back to the copies taken at :meth:`_begin_write`."""
        self._write_depth -= 1
        if self._write_depth:
            return
        try:
            if publish:
                self.backend.commit_write()
            else:
                self.backend.abort_write()
                loader = self.loader
                (
                    self.direct_meta, self.reverse_meta, self.stats,
                    loader.online_direct, loader.online_reverse,
                    loader.bulk_direct_preds, loader.bulk_reverse_preds,
                    loader.direct_lids.next_id, loader.reverse_lids.next_id,
                ) = self._side_state
                self._engine = None
        finally:
            self._side_state = ()
            self._writer_thread = None
            self._writer_lock.release()

    # ------------------------------------------------------------ snapshots

    def snapshot(self) -> Snapshot:
        """Pin the current committed state for repeatable reads.

        The returned :class:`~repro.core.concurrency.Snapshot` answers
        queries against exactly this state while writers keep committing;
        close it (or use ``with``) to let superseded row versions be
        reclaimed. Acquisition takes the writer lock briefly, so it blocks
        while a transaction is mid-flight and never observes half a batch.
        Calling it from the thread that holds the writer lock would
        deadlock and raises :class:`TransactionError` instead.
        """
        if self._writer_thread == threading.get_ident():
            raise TransactionError(
                "cannot open a snapshot from inside a write (it would pin "
                "mid-transaction state)"
            )
        with self._writer_lock:
            handle = self.backend.open_snapshot()
            epoch = self.stats.epoch
            engine = self.engine  # built under the lock: consistent metadata
        snap = Snapshot(self, handle, epoch, engine)
        if self.hooks is not None:
            self.hooks.fire("snapshot.acquire", epoch=epoch)
        return snap

    # ---------------------------------------------------------------- load

    def load_graph(self, graph: Graph, top_k_stats: int = 1000) -> LoadReport:
        """Load a graph: bulk into an empty store, else append through
        :meth:`add`.

        An empty store with no open transaction and no journal takes the
        loader's bulk path, whose shredding pass also collects the dataset
        statistics (``top_k_stats`` frequent constants); the bulk path
        writes no journal record, so :meth:`from_graph` attaches its journal
        after the load. Otherwise every triple goes through the path
        :meth:`add` takes, which places it beside the entity's stored rows,
        skips duplicates and journals the write: the load joins this
        thread's open transaction, or else runs as one transaction of its
        own. Either way the epoch moves once, and a load that inserts
        nothing changes nothing.

        Returns the triples inserted and each side's metadata after the
        load. A load that raises aborts its bracket and leaves the store as
        it was; inside an open transaction it marks that transaction failed.
        """
        self._begin_write()
        try:
            empty = not self.stats.total_triples
            if empty and self._txn is None and self._wal is None:
                report = self.loader.bulk_load(graph, top_k_stats=top_k_stats)
                self.direct_meta.merge(report.direct)
                self.reverse_meta.merge(report.reverse)
                report.stats.epoch = self.stats.epoch + 1  # invalidates plans
                self.stats = report.stats
                self._engine = None
            else:
                report = self._append_graph(graph)
        except BaseException:
            if self._txn is not None:  # nested in this thread's transaction
                self._txn.state = "failed"
            self._end_write(publish=False)
            raise
        self._end_write(publish=report.triples > 0)
        return report

    def _append_graph(self, graph: Graph) -> LoadReport:
        if self._txn is not None:  # ours: load_graph holds the writer bracket
            inserted = sum(self._txn.add(triple) for triple in graph)
        else:
            with self.transaction() as txn:
                inserted = sum(txn.add(triple) for triple in graph)
        return LoadReport(
            triples=inserted,
            direct=self.direct_meta.copy(),
            reverse=self.reverse_meta.copy(),
        )

    # --------------------------------------------------------------- writes

    def add(self, triple: Triple) -> bool:
        """Insert one triple incrementally (the dynamic-data path).

        Inside an open transaction this joins the batch; standalone it is
        its own single-write transaction (one epoch bump, journalled).
        Returns False for a duplicate no-op."""
        if self._txn is not None and self._writer_thread == threading.get_ident():
            return self._txn.add(triple)
        with self.transaction() as txn:
            return txn.add(triple)

    def remove(self, triple: Triple) -> bool:
        """Delete one triple; returns False when it was not stored.

        Transactional exactly like :meth:`add` — a failed standalone delete
        commits empty and leaves cached plans warm."""
        if self._txn is not None and self._writer_thread == threading.get_ident():
            return self._txn.remove(triple)
        with self.transaction() as txn:
            return txn.remove(triple)

    def transaction(self) -> Transaction:
        """Open an atomic write batch (one at a time per store).

        Inside the batch every ``add``/``remove`` is visible to this
        writer's queries immediately — but never to concurrent snapshot
        readers — and the statistics epoch (with it plan-cache
        invalidation) moves only at commit, once. Rollback restores the
        pre-transaction state without touching the epoch.

        Writers serialize: opening a transaction while another thread's is
        in flight blocks until that one commits or rolls back; a second
        open on the *same* thread raises :class:`TransactionError` as
        before (blocking would self-deadlock)."""
        if self._txn is not None and self._writer_thread == threading.get_ident():
            raise TransactionError(
                "a transaction is already open on this store"
            )
        self._begin_write()
        txn = Transaction(self)
        self._txn = txn
        if self.hooks is not None:
            self.hooks.fire("txn.begin")
        return txn

    def update(self, sparql, profile: bool = False) -> UpdateResult:
        """Execute a SPARQL Update request (text or a parsed
        :class:`~repro.update.ast.UpdateRequest`).

        The whole request runs atomically: in the caller's open
        transaction if there is one (which then controls commit), else in
        its own. WHERE clauses compile through the regular query pipeline
        against the in-transaction state. With ``profile=True`` the parse,
        per-operation apply, and commit stages are traced and the finished
        trace is attached as ``result.profile`` (and delivered to
        :attr:`profile_sinks`, also when the update raises)."""
        return run_profiled(
            lambda tracer: self._run_update(sparql, tracer),
            profile,
            "update",
            self.profile_sinks,
        )

    def _run_update(self, sparql, tracer: Tracer | None) -> UpdateResult:
        tracer = traced(tracer)
        if isinstance(sparql, UpdateRequest):
            request = sparql
        else:
            with tracer.span("parse"):
                request = parse_update(sparql)
        if self._txn is not None and self._writer_thread == threading.get_ident():
            return apply_update(request, self._txn, tracer=tracer)
        txn = self.transaction()
        try:
            result = apply_update(request, txn, tracer=tracer)
        except BaseException:
            txn.rollback()
            raise
        with tracer.span("commit"):
            txn.commit()
        return result

    def attach_wal(
        self,
        path: str | os.PathLike,
        max_record_bytes: int | None = None,
        durability: str | None = None,
        recovery: str = "strict",
        segment_max_bytes: int | None = None,
        checkpoint_every_bytes: int | None = None,
        checkpoint_every_records: int | None = None,
    ) -> int:
        """Attach a write-ahead journal and replay any committed records.

        Every transaction committed afterwards appends its net delta, so a
        crashed process can reopen the store (rebuilding or re-bulk-loading
        its base data first) and call this to recover every committed
        write. ``max_record_bytes`` bounds any single journal record during
        replay (a corrupt or hostile journal cannot balloon memory).

        ``durability`` (``"none"``/``"flush"``/``"fsync"``), ``recovery``
        (``"strict"``/``"tolerate_tail"``), ``segment_max_bytes`` and the
        ``checkpoint_every_*`` auto-checkpoint policy pass straight through
        to :class:`~repro.update.wal.WriteAheadLog`. Records the journal
        dropped during recovery are logged by the journal itself and
        surfaced as ``wal_records_dropped`` in :meth:`report`.

        A replay that raises leaves the store as it was before the call,
        with no journal attached.

        Returns the number of replayed operations."""
        if self._txn is not None:
            raise TransactionError("cannot attach a journal mid-transaction")
        if self._wal is not None:
            raise TransactionError("a journal is already attached")
        kwargs: dict = {"durability": durability,
                        "recovery": recovery,
                        "checkpoint_every_bytes": checkpoint_every_bytes,
                        "checkpoint_every_records": checkpoint_every_records}
        if max_record_bytes is not None:
            kwargs["max_record_bytes"] = max_record_bytes
        if segment_max_bytes is not None:
            kwargs["segment_max_bytes"] = segment_max_bytes
        wal = WriteAheadLog(path, **kwargs)
        replayed = 0
        self._begin_write()
        try:
            for _txn_id, ops in wal.replay():
                for tag, subject_key, predicate, object_key in ops:
                    triple = Triple(
                        term_from_key(subject_key),
                        URI(predicate),
                        term_from_key(object_key),
                    )
                    if tag == "+":
                        self._apply_add(triple)
                    else:
                        self._apply_remove(triple)
                    replayed += 1
        except BaseException:
            self._end_write(publish=False)
            wal.close()
            raise
        self._end_write(publish=True)
        if replayed:
            self.stats.bump_epoch()
            self._engine = None
        self._wal = wal
        return replayed

    # ------------------------------------------------------------ durability

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached journal, if any (read-only introspection)."""
        return self._wal

    def _checkpoint_meta(self) -> dict:
        """Context stamped into a checkpoint (observability only)."""
        return {"epoch": self.stats.epoch,
                "triples": self.stats.total_triples}

    def checkpoint(self) -> CheckpointInfo:
        """Consolidate the journal's committed prefix and compact it.

        Runs under the writer bracket, so it serializes against
        transactions; concurrent snapshot readers are unaffected. After it
        returns, reopening the store replays only the checkpoint plus
        post-checkpoint segments. Raises :class:`TransactionError` when no
        journal is attached or a transaction is open on this thread."""
        wal = self._require_wal()
        self._begin_write()
        try:
            info = wal.checkpoint(meta=self._checkpoint_meta())
        finally:
            self._end_write(publish=False)
        if self.hooks is not None:
            self.hooks.fire("checkpoint", txn=info.txn, ops=info.ops)
        return info

    def backup(self, dest: str | os.PathLike) -> WalStatus:
        """Copy the journal to ``dest`` as a consistent, verified backup.

        Takes the writer bracket for the duration of the copy — commits
        wait, snapshot readers keep reading — then verifies every checksum
        in the copy. Restore by attaching the backup directory to a store
        rebuilt from the same base data:
        ``RdfStore.from_graph(base, wal_path=dest)``."""
        wal = self._require_wal()
        self._begin_write()
        try:
            status = wal.backup_to(dest)
        finally:
            self._end_write(publish=False)
        if self.hooks is not None:
            self.hooks.fire("backup", dest=str(dest))
        return status

    def flush_wal(self) -> None:
        """Force everything journalled so far onto stable storage (used by
        graceful shutdown; a no-op when no journal is attached)."""
        if self._wal is not None:
            self._wal.sync_to_disk()

    def wal_summary(self) -> dict | None:
        """Journal health for ``report()`` consumers and the server's
        ``/health`` endpoint; None when no journal is attached."""
        if self._wal is None:
            return None
        return {
            "path": str(self._wal.path),
            "durability": self._wal.durability,
            "recovery": self._wal.recovery,
            "segments": self._wal.segment_count,
            "records": self._wal.record_count,
            "last_txn": self._wal.last_txn,
            "checkpoint_txn": self._wal.checkpoint_txn,
            "records_dropped": self._wal.records_dropped,
        }

    def verify_wal(self) -> WalStatus | None:
        """Re-scan the attached journal's files read-only, verifying every
        checksum; None when no journal is attached."""
        if self._wal is None:
            return None
        self.flush_wal()
        return inspect_wal(self._wal.path, self._wal.max_record_bytes)

    def _require_wal(self) -> WriteAheadLog:
        if self._wal is None:
            raise TransactionError("no journal is attached to this store")
        if self._txn is not None and self._writer_thread == threading.get_ident():
            raise TransactionError(
                "cannot checkpoint or backup mid-transaction"
            )
        return self._wal

    def _apply_add(self, triple: Triple) -> bool:
        inserted, direct_delta, reverse_delta = self.loader.insert_triple(triple)
        if not inserted:
            return False
        self.direct_meta.merge(direct_delta)
        self.reverse_meta.merge(reverse_delta)
        self.stats.record_triple(
            term_key(triple.subject),
            triple.predicate.value,
            term_key(triple.object),
            new_subject=direct_delta.entities > 0,
            new_object=reverse_delta.entities > 0,
        )
        self._engine = None
        return True

    def _apply_remove(self, triple: Triple) -> bool:
        existed, direct_delta, reverse_delta = self.loader.delete_triple(triple)
        if existed:
            self.direct_meta.merge(direct_delta)
            self.reverse_meta.merge(reverse_delta)
            self.stats.unrecord_triple(
                term_key(triple.subject),
                triple.predicate.value,
                term_key(triple.object),
                gone_subject=direct_delta.entities < 0,
                gone_object=reverse_delta.entities < 0,
            )
            self._engine = None
        return existed

    def select(self, query: SelectQuery) -> SelectResult:
        """Evaluate a parsed SELECT query (the update executor's read
        hook; equivalent to :meth:`query` with a query object)."""
        return self.engine.query(query)

    # --------------------------------------------------------------- query

    @property
    def engine(self) -> SparqlEngine:
        # Inside its own open bracket the writer sees metadata that no epoch
        # covers yet, so its queries neither probe nor fill the shared plan
        # cache: they compile through a disabled private one.
        private = self._writer_thread == threading.get_ident()
        engine = self._engine
        if engine is None or (engine.cache is not self._plan_cache) != private:
            info = StorageInfo(
                schema=self.schema,
                direct_mapper=self.direct_mapper,
                reverse_mapper=self.reverse_mapper,
                multivalued_direct=self.direct_meta.multivalued,
                multivalued_reverse=self.reverse_meta.multivalued,
            )
            engine = self._engine = SparqlEngine(
                backend=self.backend,
                emitter=Db2RdfEmitter(info),
                stats=self.stats,
                spill_direct=frozenset(self.direct_meta.spill_predicates),
                spill_reverse=frozenset(self.reverse_meta.spill_predicates),
                config=self.config,
                cache=QueryCache(0) if private else self._plan_cache,
            )
        return engine

    def query(
        self,
        sparql,
        timeout: float | None = None,
        max_rows: int | None = None,
        max_intermediate_rows: int | None = None,
        profile: bool = False,
    ) -> SelectResult:
        """Evaluate a SPARQL SELECT query (text or a parsed query object).

        Execution guardrails: ``timeout`` (seconds of wall clock,
        :class:`~repro.core.resilience.QueryTimeoutError` on expiry),
        ``max_rows`` (ceiling on result rows), and
        ``max_intermediate_rows`` (ceiling on rows materialized by
        intermediate operators — on sqlite a best-effort VM work-unit
        proxy), the latter two raising
        :class:`~repro.core.resilience.BudgetExceededError`. All three are
        enforced cooperatively inside the backends; a query with no
        guardrails set pays no per-row cost.

        With ``profile=True`` the whole pipeline runs under a tracer —
        compile stages, plan-cache outcome, and per-operator
        rows-in/rows-out/timings from the backend — and the finished trace
        is attached as ``result.profile`` (render it with
        :func:`repro.core.observe.render_profile`) after being delivered to
        every sink in :attr:`profile_sinks` — also when the query raises.
        """
        budget = Budget.from_limits(timeout, max_rows, max_intermediate_rows)
        return run_profiled(
            lambda tracer: self.engine.query(sparql, tracer=tracer, budget=budget),
            profile,
            "query",
            self.profile_sinks,
        )

    def profile(
        self,
        sparql,
        timeout: float | None = None,
        max_rows: int | None = None,
        max_intermediate_rows: int | None = None,
    ) -> Span:
        """Run a query in PROFILE mode and return just the trace root."""
        return self.query(
            sparql,
            timeout=timeout,
            max_rows=max_rows,
            max_intermediate_rows=max_intermediate_rows,
            profile=True,
        ).profile

    def ask(self, sparql: str, timeout: float | None = None) -> bool:
        """Evaluate a SPARQL ASK query."""
        return len(self.query(sparql, timeout=timeout)) > 0

    def explain(self, sparql: str, mode: str = "sql") -> str:
        """EXPLAIN a query without executing it.

        ``mode="sql"`` (default) is the generated SQL text; ``mode="plan"``
        prepends the compile configuration and appends the backend's own
        access plan when it can report one (sqlite's EXPLAIN QUERY PLAN).
        """
        if mode == "sql":
            return self.engine.explain(sparql)
        if mode == "plan":
            return self.engine.explain_plan(sparql)
        raise ValueError(f"unknown explain mode {mode!r} (use 'sql' or 'plan')")

    def cache_info(self) -> CacheInfo:
        """Plan-cache counters (hits / misses / invalidations / evictions)
        and cumulative per-stage compile timings."""
        return self._plan_cache.info()

    # ----------------------------------------------------------- reporting

    def report(self) -> StoreReport:
        """Load statistics: entities, spills, multi-valued predicates —
        and, when a journal is attached, its recovery/compaction health."""
        wal = self._wal
        return StoreReport(
            triples=self.stats.total_triples,
            direct=self.direct_meta,
            reverse=self.reverse_meta,
            direct_columns=self.schema.direct_columns,
            reverse_columns=self.schema.reverse_columns,
            wal_records_dropped=wal.records_dropped if wal else 0,
            wal_segments=wal.segment_count if wal else 0,
            wal_last_txn=wal.last_txn if wal else 0,
        )
