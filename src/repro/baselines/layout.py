"""What the three §2 relational layouts share (triple, predicate- and
type-oriented): a backend, an engine over the layout's emitter, a plan
cache that outlives engine rebuilds, and statistics refreshed on every
load and add. Each layout supplies only its schema, how a graph is
stored (:meth:`RelationalLayout._store_graph`), its single-triple ``add``
where it has one, and its emitter (:meth:`RelationalLayout._emitter`).
"""

from __future__ import annotations

from typing import Iterable

from ..backends import Backend, MiniRelBackend
from ..core import sqlfunctions  # noqa: F401
from ..core.querycache import CacheInfo, QueryCache
from ..core.resilience import Budget
from ..core.stats import DatasetStatistics
from ..rdf.graph import Graph
from ..rdf.terms import Triple, term_key
from ..sparql.engine import EngineConfig, SparqlEngine
from ..sparql.results import SelectResult
from ..sparql.translator.pipeline import TripleEmitter


class RelationalLayout:
    """Base of the runnable §2 baseline stores."""

    name = "relational-layout"

    def __init__(
        self, backend: Backend | None = None, config: EngineConfig | None = None
    ) -> None:
        self.backend = backend if backend is not None else MiniRelBackend()
        self.stats = DatasetStatistics()
        self.config = config or EngineConfig(merge=False)
        # Survives engine rebuilds; stats-epoch keying invalidates stale plans.
        self._plan_cache = QueryCache(self.config.cache_size)
        self._engine: SparqlEngine | None = None

    @classmethod
    def from_graph(cls, graph: Graph, **kwargs):
        store = cls(**kwargs)
        store.load_graph(graph)
        return store

    def load_graph(self, graph: Graph, top_k_stats: int = 1000) -> None:
        """Store ``graph`` beside what the layout holds; a new plan epoch.

        Into an empty layout the statistics are collected from ``graph``;
        a later load folds its triples in as :meth:`_count_added` does."""
        self._store_graph(graph)
        if self.stats.total_triples:
            self._count_added(graph)
            return
        fresh = DatasetStatistics.from_graph(graph, top_k=top_k_stats)
        fresh.epoch = self.stats.epoch + 1  # invalidates cached plans
        self.stats = fresh
        self._engine = None

    def _store_graph(self, graph: Graph) -> None:
        """Insert ``graph`` into the layout's tables."""
        raise NotImplementedError

    def _emitter(self) -> TripleEmitter:
        """The translator back half that targets this layout's schema."""
        raise NotImplementedError

    def _count_added(self, triples: Iterable[Triple]) -> None:
        """Fold added triples into the statistics (one new plan epoch).

        The layouts' ``add`` is a blind insert that cannot tell a new
        subject or object from a stored one, so it counts neither as new:
        the triple and predicate counts stay exact, the distinct counts
        keep their last loaded values."""
        for triple in triples:
            self.stats.record_triple(
                term_key(triple.subject),
                triple.predicate.value,
                term_key(triple.object),
            )
        self.stats.bump_epoch()
        self._engine = None

    @property
    def engine(self) -> SparqlEngine:
        if self._engine is None:
            self._engine = SparqlEngine(
                backend=self.backend,
                emitter=self._emitter(),
                stats=self.stats,
                config=self.config,
                cache=self._plan_cache,
            )
        return self._engine

    def query(self, sparql: str, timeout: float | None = None) -> SelectResult:
        budget = Budget.from_limits(timeout, None, None)
        return self.engine.query(sparql, budget=budget)

    def cache_info(self) -> CacheInfo:
        """Plan-cache counters for this store's persistent cache."""
        return self._plan_cache.info()

    def explain(self, sparql: str) -> str:
        return self.engine.explain(sparql)
