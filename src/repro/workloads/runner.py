"""The evaluation harness (paper §4, Figure 15).

Runs a query workload against a set of stores the way the paper does:
warm-cache (a discarded warm-up run, then N measured runs of a randomly
mixed query order), a per-query timeout, and classification of every query
as *complete* (right answer count), *error* (wrong count or crash),
*timeout*, or *unsupported* (outside the store's SPARQL subset). Expected
answer counts come from an oracle store (the native in-memory store, which
is itself differentially tested against the naive reference evaluator).
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Mapping, Protocol

from ..core.errors import UnsupportedQueryError
from ..core.querycache import CacheInfo
from ..core.resilience import QueryTimeoutError
from ..sparql.parser import SparqlSyntaxError
from ..sparql.results import SelectResult

COMPLETE = "complete"
TIMEOUT = "timeout"
ERROR = "error"
UNSUPPORTED = "unsupported"


class QueryStore(Protocol):
    """Anything the harness can drive."""

    def query(self, sparql: str, timeout: float | None = None) -> SelectResult:
        ...


@dataclass
class QueryOutcome:
    """One query's classification on one system."""

    query: str
    status: str
    seconds: float
    rows: int | None = None
    expected_rows: int | None = None
    detail: str = ""


@dataclass
class SystemSummary:
    """One row of Figure 15."""

    system: str
    complete: int = 0
    timeout: int = 0
    error: int = 0
    unsupported: int = 0
    mean_seconds: float = 0.0
    geometric_mean_seconds: float = 0.0
    outcomes: dict[str, QueryOutcome] = field(default_factory=dict)
    #: plan-cache counters, when the store exposes ``cache_info()`` (the
    #: repeated-run workload is exactly where plan reuse pays)
    cache: CacheInfo | None = None

    @property
    def supported(self) -> int:
        return self.complete + self.timeout + self.error


def expected_counts(
    oracle: QueryStore, queries: Mapping[str, str], timeout: float | None = None
) -> dict[str, int]:
    """Answer-set sizes from the oracle store."""
    counts: dict[str, int] = {}
    for name, text in queries.items():
        counts[name] = len(oracle.query(text, timeout=timeout))
    return counts


def time_query(
    store: QueryStore, sparql: str, timeout: float | None
) -> tuple[float, SelectResult]:
    """Run one query and return (wall seconds, result)."""
    start = time.perf_counter()
    result = store.query(sparql, timeout=timeout)
    return time.perf_counter() - start, result


def run_system(
    system_name: str,
    store: QueryStore,
    queries: Mapping[str, str],
    expected: Mapping[str, int],
    timeout: float = 10.0,
    runs: int = 3,
    warmup: bool = True,
    seed: int = 7,
) -> SystemSummary:
    """Measure one system over a randomly mixed workload, paper-style."""
    rng = random.Random(seed)
    names = list(queries)
    summary = SystemSummary(system_name)
    timings: dict[str, list[float]] = {name: [] for name in names}
    statuses: dict[str, QueryOutcome] = {}

    total_runs = runs + (1 if warmup else 0)
    for run_index in range(total_runs):
        mixed = names[:]
        rng.shuffle(mixed)
        measured = not warmup or run_index > 0
        for name in mixed:
            if name in statuses and statuses[name].status != COMPLETE:
                continue  # don't re-run queries that already failed
            try:
                seconds, result = time_query(store, queries[name], timeout)
            except QueryTimeoutError:
                statuses[name] = QueryOutcome(name, TIMEOUT, timeout)
                continue
            except (UnsupportedQueryError, SparqlSyntaxError) as exc:
                statuses[name] = QueryOutcome(name, UNSUPPORTED, 0.0, detail=str(exc))
                continue
            except Exception as exc:  # crash inside the engine: an error
                statuses[name] = QueryOutcome(
                    name, ERROR, 0.0, detail=f"{type(exc).__name__}: {exc}"
                )
                continue
            if len(result) != expected[name]:
                statuses[name] = QueryOutcome(
                    name,
                    ERROR,
                    seconds,
                    rows=len(result),
                    expected_rows=expected[name],
                    detail="wrong result count",
                )
                continue
            if measured:
                timings[name].append(seconds)
            statuses.setdefault(
                name,
                QueryOutcome(name, COMPLETE, 0.0, rows=len(result),
                             expected_rows=expected[name]),
            )

    complete_times: list[float] = []
    for name in names:
        outcome = statuses.get(name)
        if outcome is None:
            outcome = QueryOutcome(name, COMPLETE, 0.0)
        if outcome.status == COMPLETE and timings[name]:
            outcome.seconds = sum(timings[name]) / len(timings[name])
        summary.outcomes[name] = outcome
        if outcome.status == COMPLETE:
            summary.complete += 1
            complete_times.append(outcome.seconds)
        elif outcome.status == TIMEOUT:
            summary.timeout += 1
            complete_times.append(timeout)  # paper: timeouts count full
        elif outcome.status == ERROR:
            summary.error += 1
        else:
            summary.unsupported += 1

    if complete_times:
        summary.mean_seconds = sum(complete_times) / len(complete_times)
        positive = [t for t in complete_times if t > 0]
        if positive:
            summary.geometric_mean_seconds = statistics.geometric_mean(positive)
    cache_info = getattr(store, "cache_info", None)
    if callable(cache_info):
        summary.cache = cache_info()
    return summary


def run_benchmark(
    stores: Mapping[str, QueryStore],
    queries: Mapping[str, str],
    oracle: QueryStore,
    timeout: float = 10.0,
    runs: int = 3,
    oracle_timeout: float | None = None,
) -> dict[str, SystemSummary]:
    """Figure 15 for one dataset: every system over the full query mix."""
    expected = expected_counts(oracle, queries, timeout=oracle_timeout)
    return {
        name: run_system(name, store, queries, expected, timeout=timeout, runs=runs)
        for name, store in stores.items()
    }


def format_summary_table(
    dataset: str, summaries: Mapping[str, SystemSummary]
) -> str:
    """Render one dataset block of Figure 15 as text."""
    with_cache = any(summary.cache is not None for summary in summaries.values())
    cache_header = f" {'Cache':>9}" if with_cache else ""
    lines = [
        f"{dataset}",
        f"{'System':<20} {'Complete':>9} {'Timeout':>8} {'Error':>6} "
        f"{'Unsupp.':>8} {'Mean(s)':>9}" + cache_header,
    ]
    for name, summary in summaries.items():
        if with_cache:
            if summary.cache is not None and summary.cache.lookups:
                cache_cell = f" {summary.cache.hit_rate * 100:>8.0f}%"
            else:
                cache_cell = f" {'-':>9}"
        else:
            cache_cell = ""
        lines.append(
            f"{name:<20} {summary.complete:>9} {summary.timeout:>8} "
            f"{summary.error:>6} {summary.unsupported:>8} "
            f"{summary.mean_seconds:>9.3f}" + cache_cell
        )
    return "\n".join(lines)


def format_per_query_table(
    summaries: Mapping[str, SystemSummary], query_names: list[str]
) -> str:
    """Render Figure 16/17/18-style per-query timing rows (seconds)."""
    systems = list(summaries)
    header = f"{'Query':<8}" + "".join(f"{s:>16}" for s in systems)
    lines = [header]
    for name in query_names:
        cells = []
        for system in systems:
            outcome = summaries[system].outcomes.get(name)
            if outcome is None:
                cells.append(f"{'-':>16}")
            elif outcome.status == COMPLETE:
                cells.append(f"{outcome.seconds * 1000:>14.1f}ms")
            else:
                cells.append(f"{outcome.status:>16}")
        lines.append(f"{name:<8}" + "".join(cells))
    return "\n".join(lines)
