"""The query compilation (plan) cache.

The paper's contribution is the compile pipeline — parse tree → data flow
graph → execution tree → merged plan → SQL — and the repo used to rerun
every stage for every call. Production SPARQL engines (and the DB2 lineage
this paper comes from) reuse compiled plans for repeated query text; this
module supplies that reuse layer.

Keying. An entry is addressed by ``(canonicalized SPARQL text, EngineConfig
fingerprint)``. Canonicalization is *lexical* — comments dropped, whitespace
runs collapsed outside quoted strings and ``<IRI>`` brackets — so cache hits
never require parsing (skipping the parser is part of the point), yet
re-formatted copies of one query share a slot. Distinct token streams always
canonicalize to distinct keys: whitespace runs collapse to a single space
but are never deleted outright.

Invalidation. Every entry records the *stats epoch* it was compiled under.
:class:`~repro.core.stats.DatasetStatistics` carries a monotonically
increasing ``epoch`` that store mutations (insert / delete / bulk load)
bump; a lookup whose entry was compiled under an older epoch discards the
entry and reports an invalidation, so plans chosen from stale cardinality
estimates never outlive the data change that made them stale.

Each lookup is classified as exactly one of hit / miss / invalidation.

Thread safety. Snapshot readers compile against *their* pinned epoch while
writers bump the live one, so the cache is shared across threads: one lock
guards the entry map and every counter mutation, which keeps
``hits + misses + invalidations == lookups`` exact under concurrency. An
entry newer than the probing epoch is a plain miss (the prober is a
snapshot pinned in the past — the entry is still valid for live readers),
and ``store`` refuses to replace a newer entry with an older plan.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

DEFAULT_CACHE_SIZE = 128

#: Mirrors the SPARQL tokenizer's IRI production ``<[^<>\s]*>`` so that a
#: ``#fragment`` inside an IRI is never mistaken for a comment.
_IRI_RE = re.compile(r"<[^<>\s]*>")

_WHITESPACE = " \t\r\n\f\v"


def canonicalize_sparql(text: str) -> str:
    """Lexically canonicalize SPARQL text for cache keying.

    Comments become a single space, whitespace runs collapse to one space,
    and quoted strings / ``<IRI>`` tokens are copied verbatim. The result is
    a pure text key — no parsing — and imprecision here can only split or
    merge *lexically equivalent* keys, never change query semantics.
    """
    out: list[str] = []
    pending_space = False
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _WHITESPACE:
            pending_space = True
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        if ch in "\"'":
            quote = ch
            out.append(ch)
            i += 1
            while i < n:
                c = text[i]
                out.append(c)
                i += 1
                if c == "\\" and i < n:  # escaped char, even a quote
                    out.append(text[i])
                    i += 1
                    continue
                if c == quote:
                    break
            continue
        if ch == "<":
            match = _IRI_RE.match(text, i)
            if match:
                out.append(match.group(0))
                i = match.end()
                continue
        out.append(ch)
        i += 1
    return "".join(out)


@dataclass(frozen=True)
class CachedPlan:
    """One compiled query: the translated SQL AST plus decode metadata.

    The SQL AST is a tree of frozen dataclasses, so sharing one instance
    across executions is safe. ``variables`` is the projection order the
    result decoder needs (the engine's only other per-query state).
    """

    sql: Any  # repro.relational.ast.Query
    variables: tuple[str, ...]
    epoch: int
    compile_seconds: float = 0.0


@dataclass
class CacheInfo:
    """A snapshot of cache effectiveness counters and compile timings."""

    hits: int
    misses: int
    invalidations: int
    evictions: int
    size: int
    maxsize: int
    #: cumulative seconds spent in each compile stage on cache misses
    compile_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.invalidations

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        """One-line rendering for CLIs and benchmark reports."""
        saved = self.hits * (
            self.compile_seconds.get("total", 0.0) / max(1, self.misses + self.invalidations)
        )
        return (
            f"plan cache: {self.hits} hits / {self.misses} misses"
            f" / {self.invalidations} invalidations"
            f" ({self.hit_rate * 100:.0f}% hit rate, {self.size}/{self.maxsize}"
            f" entries, ~{saved * 1000:.1f} ms compile time saved)"
        )


_STAGES = ("parse", "plan", "translate", "total")


class QueryCache:
    """A bounded LRU mapping (canonical text, config fingerprint) → plan.

    ``maxsize <= 0`` disables the cache entirely (``enabled`` is False and
    the engine bypasses it). Entries compiled under an older stats epoch are
    dropped on lookup and counted as invalidations.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple[str, tuple], CachedPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.timings: dict[str, float] = {stage: 0.0 for stage in _STAGES}

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------- lookups

    def probe(
        self, text: str, fingerprint: tuple, epoch: int
    ) -> tuple[CachedPlan | None, str]:
        """The cached plan for ``text`` under ``fingerprint`` at ``epoch``
        (None unless it is a hit), and the outcome — ``"hit"``, ``"miss"``,
        or ``"invalidated"`` — for tracing spans."""
        key = (text, fingerprint)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None, "miss"
            if entry.epoch < epoch:
                # Stale: compiled from cardinalities a later commit changed.
                del self._entries[key]
                self.invalidations += 1
                return None, "invalidated"
            if entry.epoch > epoch:
                # The prober is a snapshot pinned before this entry was
                # compiled. The entry is still the right plan for live
                # readers — miss without evicting it.
                self.misses += 1
                return None, "miss"
            self._entries.move_to_end(key)
            self.hits += 1
            return entry, "hit"

    def store(self, text: str, fingerprint: tuple, plan: CachedPlan) -> None:
        if not self.enabled:
            return
        key = (text, fingerprint)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.epoch > plan.epoch:
                return  # never clobber a newer plan with a snapshot's older one
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    # ----------------------------------------------------------- accounting

    def record_timings(self, **stage_seconds: float) -> None:
        with self._lock:
            for stage, seconds in stage_seconds.items():
                self.timings[stage] = self.timings.get(stage, 0.0) + seconds

    def clear(self) -> None:
        """Drop all entries (counters are kept; they describe the lifetime)."""
        with self._lock:
            self._entries.clear()

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=self.hits,
                misses=self.misses,
                invalidations=self.invalidations,
                evictions=self.evictions,
                size=len(self._entries),
                maxsize=self.maxsize,
                compile_seconds=dict(self.timings),
            )
