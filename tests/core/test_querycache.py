"""The query compilation cache: keying, LRU bounds, invalidation.

Covers the cache in isolation (canonicalization, LRU mechanics, epoch
staleness) and wired into ``RdfStore`` (hit/miss semantics, fingerprint
separation between optimizer configs, invalidation on insert / delete /
bulk load, and identical results cache-on vs cache-off).
"""

import pytest

from repro import EngineConfig, RdfStore
from repro.core.querycache import CachedPlan, QueryCache, canonicalize_sparql
from repro.rdf.graph import Graph
from repro.rdf.terms import Triple, URI
from repro.sparql import query_graph
from repro.sparql.engine import SparqlEngine

from ..conftest import FIGURE6_QUERY


# ------------------------------------------------------------ canonical text


class TestCanonicalization:
    def test_whitespace_and_comments_collapse(self):
        a = "SELECT ?x WHERE { ?x <p> ?y }"
        b = "  SELECT   ?x\n\tWHERE {\n  ?x <p> ?y  # trailing comment\n}\n"
        assert canonicalize_sparql(a) == canonicalize_sparql(b)

    def test_strings_are_preserved_verbatim(self):
        a = 'SELECT ?x WHERE { ?x <p> "a  b # not-a-comment" }'
        b = 'SELECT ?x WHERE { ?x <p> "a b # not-a-comment" }'
        assert canonicalize_sparql(a) != canonicalize_sparql(b)
        assert "a  b # not-a-comment" in canonicalize_sparql(a)

    def test_iri_fragments_are_not_comments(self):
        text = "SELECT ?x WHERE { ?x <http://ex.org/p#frag> ?y }"
        assert "#frag" in canonicalize_sparql(text)
        assert canonicalize_sparql(text).endswith("}")

    def test_distinct_token_streams_stay_distinct(self):
        # Collapsing may shrink whitespace runs but never delete them.
        assert canonicalize_sparql("?x ?y") != canonicalize_sparql("?x?y")

    def test_escaped_quote_inside_string(self):
        text = 'SELECT ?x WHERE { ?x <p> "she said \\"hi\\"  there" }'
        assert '\\"hi\\"  there' in canonicalize_sparql(text)


# ------------------------------------------------------------- cache object


def plan(epoch: int = 0) -> CachedPlan:
    return CachedPlan(sql=object(), variables=("x",), epoch=epoch)


class TestQueryCacheUnit:
    def test_miss_then_hit(self):
        cache = QueryCache(maxsize=4)
        assert cache.probe("q", ("fp",), 0)[0] is None
        stored = plan()
        cache.store("q", ("fp",), stored)
        assert cache.probe("q", ("fp",), 0)[0] is stored
        assert (cache.hits, cache.misses) == (1, 1)

    def test_fingerprint_separation(self):
        cache = QueryCache(maxsize=4)
        hybrid, naive = plan(), plan()
        cache.store("q", ("hybrid",), hybrid)
        cache.store("q", ("naive",), naive)
        assert cache.probe("q", ("hybrid",), 0)[0] is hybrid
        assert cache.probe("q", ("naive",), 0)[0] is naive
        assert len(cache) == 2

    def test_lru_eviction_bound(self):
        cache = QueryCache(maxsize=2)
        cache.store("a", (), plan())
        cache.store("b", (), plan())
        assert cache.probe("a", (), 0)[0] is not None  # refresh "a"
        cache.store("c", (), plan())  # evicts "b", the LRU entry
        assert cache.evictions == 1
        assert len(cache) == 2
        assert cache.probe("b", (), 0)[0] is None
        assert cache.probe("a", (), 0)[0] is not None
        assert cache.probe("c", (), 0)[0] is not None

    def test_epoch_invalidation(self):
        cache = QueryCache(maxsize=4)
        cache.store("q", (), plan(epoch=3))
        assert cache.probe("q", (), 4)[0] is None
        assert cache.invalidations == 1
        assert cache.misses == 0  # invalidation is not double-counted
        assert len(cache) == 0

    def test_disabled_cache_stores_nothing(self):
        cache = QueryCache(maxsize=0)
        assert not cache.enabled
        cache.store("q", (), plan())
        assert len(cache) == 0

    def test_info_snapshot(self):
        cache = QueryCache(maxsize=4)
        cache.store("q", (), plan())
        cache.probe("q", (), 0)
        cache.probe("other", (), 0)
        info = cache.info()
        assert (info.hits, info.misses, info.size, info.maxsize) == (1, 1, 1, 4)
        assert info.lookups == 2
        assert info.hit_rate == 0.5
        assert "hit rate" in info.summary()


# ----------------------------------------------------------- store wiring


QUERY = "SELECT ?x ?y WHERE { ?x <founder> ?y }"


class TestStoreIntegration:
    def test_hit_miss_semantics(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        cold = store.query(QUERY)
        warm = store.query("SELECT ?x ?y\nWHERE {\n ?x <founder> ?y # re-laid-out\n}")
        info = store.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert cold.canonical() == warm.canonical()
        assert info.compile_seconds["total"] > 0

    def test_results_identical_cache_on_and_off(self, fig1_graph):
        cached = RdfStore.from_graph(fig1_graph)
        uncached = RdfStore.from_graph(
            fig1_graph, config=EngineConfig(cache_size=0)
        )
        for _ in range(2):  # second pass hits the warm cache
            assert cached.query(FIGURE6_QUERY).canonical() == (
                uncached.query(FIGURE6_QUERY).canonical()
            )
        assert cached.cache_info().hits == 1
        off = uncached.cache_info()
        assert (off.hits, off.misses, off.size) == (0, 0, 0)

    def test_config_fingerprints_never_cross_contaminate(self, fig1_graph):
        """Hybrid and naive plans compiled through ONE shared cache must
        occupy separate slots and keep their own SQL."""
        store = RdfStore.from_graph(fig1_graph)
        hybrid = store.engine
        naive = SparqlEngine(
            backend=hybrid.backend,
            emitter=hybrid.emitter,
            stats=hybrid.stats,
            spill_direct=hybrid.spill_direct,
            spill_reverse=hybrid.spill_reverse,
            config=EngineConfig(optimizer="naive", merge=False),
            cache=hybrid.cache,
        )
        expected = query_graph(fig1_graph, FIGURE6_QUERY)
        assert hybrid.query(FIGURE6_QUERY).matches(expected)
        assert naive.query(FIGURE6_QUERY).matches(expected)
        info = hybrid.cache_info()
        assert (info.misses, info.hits) == (2, 0)  # one compile per config
        assert len(hybrid.cache) == 2
        # Each engine re-reads its own entry, not the other's.
        assert hybrid.query(FIGURE6_QUERY).matches(expected)
        assert naive.query(FIGURE6_QUERY).matches(expected)
        assert hybrid.cache_info().hits == 2
        assert hybrid.explain(FIGURE6_QUERY) != naive.explain(FIGURE6_QUERY)

    def test_insert_invalidates(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        before = store.query(QUERY)
        store.add(Triple(URI("Ada"), URI("founder"), URI("Analytical_Engines")))
        after = store.query(QUERY)
        assert len(after) == len(before) + 1
        info = store.cache_info()
        assert info.invalidations == 1
        assert info.hits == 0

    def test_delete_invalidates(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        before = store.query(QUERY)
        assert store.remove(Triple(URI("Larry_Page"), URI("founder"), URI("Google")))
        after = store.query(QUERY)
        assert len(after) == len(before) - 1
        assert store.cache_info().invalidations == 1

    def test_failed_delete_keeps_cache_warm(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        store.query(QUERY)
        assert not store.remove(Triple(URI("nobody"), URI("founder"), URI("x")))
        store.query(QUERY)
        info = store.cache_info()
        assert (info.hits, info.invalidations) == (1, 0)

    def test_bulk_load_invalidates(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        store.query(QUERY)
        extra = Graph([Triple(URI("Grace"), URI("founder"), URI("COBOL_Inc"))])
        store.load_graph(extra)
        result = store.query(QUERY)
        assert ("Grace", "COBOL_Inc") in result.key_rows()
        assert store.cache_info().invalidations == 1

    def test_lru_bound_applies_to_store(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph, config=EngineConfig(cache_size=2))
        queries = [
            "SELECT ?x WHERE { ?x <founder> ?y }",
            "SELECT ?x WHERE { ?x <industry> ?y }",
            "SELECT ?x WHERE { ?x <employees> ?y }",
        ]
        for sparql in queries:
            store.query(sparql)
        info = store.cache_info()
        assert info.size <= 2
        assert info.evictions == 1
        store.query(queries[0])  # evicted: compiles again
        assert store.cache_info().misses == 4

    def test_ask_uses_cache(self, fig1_graph):
        store = RdfStore.from_graph(fig1_graph)
        assert store.ask("ASK { <IBM> <industry> <Software> }")
        assert store.ask("ASK { <IBM> <industry> <Software> }")
        assert store.cache_info().hits == 1


class TestConfigImmutability:
    def test_config_is_frozen(self):
        config = EngineConfig()
        with pytest.raises(AttributeError):
            config.optimizer = "naive"  # type: ignore[misc]

    def test_methods_normalized_to_tuple(self):
        config = EngineConfig(methods=["acs", "sc"])
        assert config.methods == ("acs", "sc")
        hash(config.fingerprint())  # fingerprint must be hashable

    def test_fingerprint_separates_knobs(self):
        base = EngineConfig()
        assert base.fingerprint() != EngineConfig(optimizer="naive").fingerprint()
        assert base.fingerprint() != EngineConfig(merge=False).fingerprint()
        assert base.fingerprint() != EngineConfig(use_statistics=False).fingerprint()
        # cache_size does not change compiled SQL, so it is not in the key
        assert base.fingerprint() == EngineConfig(cache_size=7).fingerprint()
