"""The untraced measurement: set-up, warm-up, one closed-loop timed window.

All four workloads are closed loops (callers wait for each reply): one
client in process, two keep-alive connections for ``serve_mixed``. Latency
is summarised per query (see :func:`window_stats`); throughput is the
median over five equal sub-windows, which keeps one scheduler hiccup on a
shared two-core box from moving the number.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from contextlib import ExitStack

from repro import RdfStore
from repro.rdf import ntriples

import datasets
from httpserve import Client, ServerProcess, result_rows

SUBWINDOWS = 5
#: set-up is repeated and its median reported (one build is too noisy to gate)
SETUP_REPEATS = 3
CONNECTIONS = 2       # serve_mixed keep-alive connections (= nproc here)
UPDATE_EVERY = 10     # connection 0 replaces every 10th request by an update

_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


class Tally:
    """Attempted / failed operation counts, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    def expect(self, condition: bool, reason: str) -> None:
        if condition:
            self.ok()
        else:
            self.fail(reason)


# ------------------------------------------------------------- statistics


def band_mean(ordered: list[float], low: float, high: float) -> float:
    """Mean of an ascending list between its ``low``th and ``high``th
    percentile."""
    first = int(len(ordered) * low / 100)
    last = max(first + 1, int(len(ordered) * high / 100))
    return statistics.fmean(ordered[first:last])


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(map(math.log, values)) / len(values))


def window_stats(samples: list[tuple[float, float, str]],
                 started: float, ended: float, extra_ops: int = 0) -> dict:
    """Latency/throughput figures of one timed window.

    ``samples`` are ``(completed_at, seconds, query name)`` of successful
    reads; ``extra_ops`` are other completed operations (updates) that
    count toward throughput only.

    A percentile of the pooled samples is not steady here: the mixes are a
    few dozen equally frequent queries, each a narrow latency peak, so the
    pooled median sits exactly on the boundary between two queries and
    flips between them from run to run. Instead (SP2Bench-style per-query
    reporting):

    - ``p50_ms``: geometric mean over the queries of each query's median;
    - ``p95_ms`` (a detail row): ``p50_ms`` times the tail factor. A read's
      slowdown is its latency / its query's median; the tail factor is the mean slowdown
      between the 90th and 99th percentile of a sub-window (the band
      around p95), median over the five sub-windows. A single percentile
      is not steady on ``serve_mixed``: the reads blocked behind a commit
      are 3-5% of all reads, so p95 itself sits on the edge between
      blocked and unblocked reads. The band moves smoothly across that
      edge, leaves the slowest hundredth (the scheduler's) out, and the
      sub-window median votes a noisy-neighbour burst out;
    - ``qps``: completed operations per second, median over sub-windows.
    """
    by_query: dict[str, list[float]] = {}
    for _, seconds, name in samples:
        by_query.setdefault(name, []).append(seconds)
    per_query = {}
    for name, values in sorted(by_query.items()):
        values.sort()
        per_query[name] = {"p50": percentile(values, 50) * 1e3,
                           "p95": percentile(values, 95) * 1e3,
                           "n": len(values)}
    span = (ended - started) / SUBWINDOWS
    slowdowns: list[list[float]] = [[] for _ in range(SUBWINDOWS)]
    for completed, seconds, name in samples:
        index = min(SUBWINDOWS - 1, int((completed - started) / span))
        slowdowns[index].append(seconds * 1e3 / per_query[name]["p50"])
    tails = [band_mean(sorted(ratios), 90, 99) for ratios in slowdowns if ratios]
    rates = [(len(ratios) + extra_ops / SUBWINDOWS) / span for ratios in slowdowns]
    pooled = sorted(seconds for _, seconds, _ in samples)
    p50 = geomean(entry["p50"] for entry in per_query.values())
    by_mix: dict[str, list[float]] = {}
    for name, entry in per_query.items():  # "LQ4" -> mix "L"
        by_mix.setdefault(name[0], []).append(entry["p50"])
    return {
        "p50_ms": p50,
        "p95_ms": p50 * statistics.median(tails),
        "qps": statistics.median(rates),
        "samples": len(pooled),
        "window_s": ended - started,
        "tail_factor": [min(tails), statistics.median(tails), max(tails)],
        "pooled_p50_ms": percentile(pooled, 50) * 1e3,
        "pooled_p95_ms": percentile(pooled, 95) * 1e3,
        "pooled_p99_ms": percentile(pooled, 99) * 1e3,
        "whole_qps": (len(pooled) + extra_ops) / (ended - started),
        "sub_qps": [min(rates), max(rates)],
        "per_query_ms": per_query,
        "mix_p50_ms": {mix: (geomean(medians), len(medians))
                       for mix, medians in sorted(by_mix.items())},
    }


# ------------------------------------------------------------- in-process


def prepare(workload: str, seed: int, scale: float):
    """The generated graphs, the workload's distinct reads and the oracle
    with every answer computed, plus what that cost (the benchmark's own
    work, reported beside ``setup_s`` and not counted in it)."""
    started = time.perf_counter()
    data = datasets.generate(workload, seed, scale)
    graphs = {mix: item.graph for mix, item in data.items()}
    generated = time.perf_counter()
    calls = datasets.workload_calls(workload, data, seed)
    oracle = datasets.Oracle(graphs)
    for call in calls:
        oracle.answer(call)
    own_work = {"generate_s": generated - started,
                "oracle_s": time.perf_counter() - generated}
    return graphs, calls, oracle, own_work


def build_stores(graphs: dict) -> dict[str, RdfStore]:
    return {mix: RdfStore.from_graph(graph) for mix, graph in graphs.items()}


def setup_calls(workload: str, calls: list[datasets.Call]) -> list[datasets.Call]:
    """Reads of the set-up's cold pass: every distinct text, except that the
    template pool contributes one instance per template (its other texts
    are compiled cold by the workload itself, on every call)."""
    if workload != "template_miss":
        return calls
    first: dict[str, datasets.Call] = {}
    for call in calls:
        first.setdefault(call.name, call)
    return list(first.values())


def measured_setup(graphs: dict, cold: list[datasets.Call]):
    """Build the stores and run the cold pass ``SETUP_REPEATS`` times.

    Returns (last stores, per-repeat seconds, RSS growth of the first
    build in bytes). Only the first build's RSS growth is meaningful: later
    builds reuse memory the earlier ones freed.
    """
    seconds, stores, growth = [], None, 0
    for repeat in range(SETUP_REPEATS):
        stores = None
        gc.collect()
        before = current_rss_bytes()
        started = time.perf_counter()
        stores = build_stores(graphs)
        if repeat == 0:
            gc.collect()
            growth = current_rss_bytes() - before
        for call in cold:
            stores[call.mix].query(call.text)
        seconds.append(time.perf_counter() - started)
    return stores, seconds, growth


def verify(stores: dict, oracle: datasets.Oracle, calls: list[datasets.Call],
           tally: Tally) -> None:
    """Full-result oracle comparison, once per distinct query text."""
    for call in calls:
        try:
            got = stores[call.mix].query(call.text)
        except Exception as exc:  # a failed query is a benchmark failure
            tally.fail(f"{call.name}: {exc!r}")
            continue
        tally.expect(oracle.check(call, got),
                     f"{call.name}: result differs from the oracle")


def closed_loop(stores: dict, stream, oracle: datasets.Oracle, seconds: float,
                tally: Tally | None):
    """One client, back-to-back ``store.query`` calls for ``seconds``.

    ``tally=None`` is the discarded warm-up. Returns (samples, started,
    ended)."""
    samples: list[tuple[float, float, str]] = []
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    now = started
    while now < deadline:
        call = next(stream)
        store = stores[call.mix]
        begin = clock()
        try:
            result = store.query(call.text)
        except Exception as exc:
            now = clock()
            if tally is not None:
                tally.fail(f"{call.name}: {exc!r}")
            continue
        now = clock()
        if tally is None:
            continue
        if oracle.count_ok(call, len(result)):
            tally.ok()
            samples.append((now, now - begin, call.name))
        else:
            tally.fail(f"{call.name}: {len(result)} rows")
    return samples, started, now


def run_in_process(workload: str, seed: int, scale: float, seconds: float,
                   warmup: float) -> dict:
    tally = Tally()
    graphs, calls, oracle, own_work = prepare(workload, seed, scale)
    triples = sum(len(graph) for graph in graphs.values())

    stores, setup_seconds, growth = measured_setup(
        graphs, setup_calls(workload, calls))
    verify(stores, oracle, calls, tally)
    if tally.failed:
        return {"setup_failed": True, "tally": tally}

    stream = datasets.call_stream(workload, calls, seed)
    closed_loop(stores, stream, oracle, warmup, None)
    gc.collect()
    gc.freeze()  # keep the graph/oracle heap out of the collector's way
    before = {mix: store.cache_info() for mix, store in stores.items()}
    samples, begun, ended = closed_loop(stores, stream, oracle, seconds, tally)
    after = {mix: store.cache_info() for mix, store in stores.items()}
    stats = window_stats(samples, begun, ended)
    lookups = sum(after[m].lookups - before[m].lookups for m in stores)
    hits = sum(after[m].hits - before[m].hits for m in stores)
    return {
        "tally": tally,
        "stats": stats,
        "setup_s": statistics.median(setup_seconds),
        "setup_runs_s": setup_seconds,
        "rss_mb": peak_rss_mb(),
        "store_bytes_per_triple": growth / triples,
        "details": {
            "triples": triples, "distinct_texts": len(calls), **own_work,
            "cache_hit_ratio": hits / lookups if lookups else 0.0,
            "clients": 1,
        },
    }


# ------------------------------------------------------------ serve_mixed


def http_cold_pass(client: Client, calls: list[datasets.Call],
                   oracle: datasets.Oracle, tally: Tally | None) -> None:
    for call in calls:
        status, payload, _ = client.query(call.text)
        if tally is not None:
            tally.expect(
                status == 200 and oracle.count_ok(call, result_rows(payload)),
                f"{call.name}: HTTP {status} or wrong row count at set-up")


def connection_loop(port: int, index: int, seed: int, oracle: datasets.Oracle,
                    schedule: datasets.WriteSchedule, gate: threading.Barrier,
                    phases: list[tuple[float, Tally | None]], out: dict) -> None:
    """One keep-alive connection's closed loop over consecutive phases
    (warm-up with ``tally=None``, then the timed window)."""
    client = Client(port)
    reads = datasets.mixed_reads(seed, index)
    clock = time.perf_counter
    samples, updates = [], []
    try:
        sent = 0
        for seconds, tally in phases:
            gate.wait(60)
            started = clock()
            deadline = started + seconds
            now = started
            while now < deadline:
                sent += 1
                if index == 0 and sent % UPDATE_EVERY == 0:
                    status, _, elapsed = client.update(schedule.next())
                    now = clock()
                    if status == 200:
                        schedule.acknowledge()
                        if tally is not None:
                            tally.ok()
                            updates.append((now, elapsed, "update"))
                    elif tally is not None:
                        tally.fail(f"update: HTTP {status}")
                    continue
                call = next(reads)
                status, payload, elapsed = client.query(call.text)
                now = clock()
                if tally is None:
                    continue
                if status == 200 and oracle.count_ok(call, result_rows(payload)):
                    tally.ok()
                    samples.append((now, elapsed, call.name))
                else:
                    tally.fail(f"{call.name}: HTTP {status} or wrong row count")
            out[index] = {"samples": samples, "updates": updates,
                          "started": started, "ended": now,
                          "rejected": client.rejected}
    except Exception:
        out[index] = {"error": traceback.format_exc()}
        gate.abort()
    finally:
        client.close()


def run_serve_mixed(seed: int, scale: float, seconds: float, warmup: float,
                    src_dir: str, out_dir: str) -> dict:
    tally = Tally()
    graphs, calls, oracle, own_work = prepare("serve_mixed", seed, scale)
    graph = graphs["lubm"]

    # An in-process twin of the served store: measures the space the store
    # takes, carries the full-result oracle check, and at the end replays
    # the server's journal for the durability check.
    gc.collect()
    before = current_rss_bytes()
    twin = RdfStore.from_graph(graph)
    gc.collect()
    growth = current_rss_bytes() - before
    verify({"lubm": twin}, oracle, calls, tally)
    if tally.failed:
        return {"setup_failed": True, "tally": tally}

    os.makedirs(out_dir, exist_ok=True)
    with ExitStack() as stack:
        work = tempfile.mkdtemp(prefix="serve-", dir=out_dir)
        stack.callback(shutil.rmtree, work, ignore_errors=True)
        setup_seconds = []
        server = None
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            nt_path = os.path.join(work, f"lubm-{repeat}.nt")
            wal_dir = os.path.join(work, f"wal-{repeat}")
            begun = time.perf_counter()
            with open(nt_path, "w") as handle:
                handle.write(ntriples.serialize(graph))
            server = ServerProcess(src_dir, nt_path, wal_dir)
            stack.callback(server.stop, graceful=False)
            client = Client(server.port)
            try:
                http_cold_pass(client, calls, oracle,
                               tally if repeat == SETUP_REPEATS - 1 else None)
            finally:
                client.close()
            setup_seconds.append(time.perf_counter() - begun)
        if tally.failed:
            return {"setup_failed": True, "tally": tally}

        schedule = datasets.WriteSchedule()
        gate = threading.Barrier(CONNECTIONS)
        results: dict[int, dict] = {}
        phases = [(warmup, None), (seconds, tally)]
        threads = [
            threading.Thread(
                target=connection_loop,
                args=(server.port, index, seed, oracle, schedule, gate,
                      phases, results))
            for index in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(warmup + seconds + 120)
        errors = [r["error"] for r in results.values() if "error" in r]
        if errors or len(results) != CONNECTIONS or any(
                thread.is_alive() for thread in threads):
            raise RuntimeError("load generator failed:\n" + "\n".join(errors))

        # Durability: acknowledged inserts - deletes, seen three ways.
        live = len(schedule.live)
        client = Client(server.port)
        try:
            status, payload, _ = client.query(datasets.COUNT_QUERY)
        finally:
            client.close()
        served = result_rows(payload) if status == 200 else -1
        tally.expect(served == live,
                     f"server holds {served} bench entities, {live} acknowledged")
        rss_mb = server.peak_rss_mb()
        exit_code = server.stop()
        tally.expect(exit_code == 0, f"server exited {exit_code} on SIGTERM")
        twin.attach_wal(wal_dir)
        recovered = len(twin.query(datasets.COUNT_QUERY))
        tally.expect(recovered == live,
                     f"journal replays {recovered} bench entities, "
                     f"{live} acknowledged")

    samples = list(itertools.chain.from_iterable(
        r["samples"] for r in results.values()))
    updates = results[0]["updates"]
    begun = min(r["started"] for r in results.values())
    ended = max(r["ended"] for r in results.values())
    stats = window_stats(samples, begun, ended, extra_ops=len(updates))
    update_ms = sorted(seconds * 1e3 for _, seconds, _ in updates)
    return {
        "tally": tally,
        "stats": stats,
        "setup_s": statistics.median(setup_seconds),
        "setup_runs_s": setup_seconds,
        "rss_mb": rss_mb,
        "store_bytes_per_triple": growth / len(graph),
        "details": {
            "triples": len(graph), "distinct_texts": len(calls), **own_work,
            "clients": CONNECTIONS,
            "updates": len(update_ms),
            "update_p50_ms": percentile(update_ms, 50) if update_ms else None,
            "update_p95_ms": percentile(update_ms, 95) if update_ms else None,
            "acknowledged_writes": schedule.acknowledged,
            "live_bench_entities": live,
            "rejected_503": sum(r["rejected"] for r in results.values()),
        },
    }


def report_failures(tally: Tally) -> None:
    for reason in tally.reasons:
        print(f"  FAILED: {reason}", file=sys.stderr)
