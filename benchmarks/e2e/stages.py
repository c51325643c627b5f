"""The traced pass: replay a workload stage by stage, from the outside.

Each read is re-enacted through the layers' public functions —
``engine.compile_cached`` (plan-cache probe, and parse / plan / translate
on a miss), ``backend.execute``, term decoding, result serialisation,
snapshot open/close — with one span per layer boundary recorded here, in
the benchmark's own memory. Nothing under ``src/`` is instrumented.
Alternating untraced ``store.query`` rounds over the same calls give the
coverage (do the stages add up to the real call?) and the tracing overhead.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import statistics
import tempfile
import time
from contextlib import ExitStack

from repro import RdfStore
from repro.core.coloring import color_graph_for_store
from repro.core.mapping import composed_hashes
from repro.core.observe import summarize_operators
from repro.core.store import MAX_COLORING_COLUMNS
from repro.rdf import ntriples
from repro.rdf.terms import term_from_key
from repro.sparql.results import SelectResult, serialize_select
from repro.update.parser import parse_update

import datasets
from httpserve import Client, ServerProcess, result_rows
from loops import Tally

MIN_ROUNDS = 3
REPLAY_BUDGET_S = 6.0    # both halves of all replay rounds together
SERVED_ROUND = 60        # serve_mixed reads per half-round (6 slow updates)
PROFILED_TEXTS = 48      # cap on profiled runs for the scanned-rows count
PROBE_QUERIES = 12       # cap on queries the server probe times
PROBE_REPEATS = 15
HEALTH_PINGS = 100
UPDATE_PAIRS = 8         # insert/delete statements in the update phase

#: query stages, in pipeline order; the share table sums exactly these
QUERY_LAYERS = ("core.querycache", "sparql.parser", "sparql.optimizer",
                "sparql.translator", "relational", "sparql.engine")
COMPILE_LAYERS = ("sparql.parser", "sparql.optimizer", "sparql.translator")
_SCAN_OPERATORS = ("seq-scan", "index-scan", "index-join")


class Recorder:
    """In-memory span store: (id, parent, name, start, end, query, derived,
    label).

    ``derived`` spans were not timed here: they carve up a parent using the
    program's own per-stage compile timings (``cache_info()``). ``label``
    names the query of a root span ("LQ4")."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[tuple] = []

    def add(self, name: str, start: float, end: float, parent: int | None,
            query: int | None, derived: bool = False, label: str = "") -> int:
        self.spans.append(
            (len(self.spans), parent, name, start, end, query, derived, label))
        return len(self.spans) - 1

    def self_seconds(self, first: int = 0) -> dict[str, list[float]]:
        """Self time (span minus children) of spans ``first..``, by name."""
        children: dict[int, float] = {}
        for _, parent, _, start, end, _, _, _ in self.spans[first:]:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        by_name: dict[str, list[float]] = {}
        for ident, _, name, start, end, _, _, _ in self.spans[first:]:
            by_name.setdefault(name, []).append(
                max(0.0, (end - start) - children.get(ident, 0.0)))
        return by_name

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for ident, parent, name, start, end, query, derived, label in self.spans:
                handle.write(json.dumps({
                    "id": ident, "parent": parent, "name": name,
                    "start": start, "end": end, "query": query,
                    "workload": self.workload, "derived": derived,
                    "label": label,
                }) + "\n")


# ---------------------------------------------------------------- set-up


def traced_build(rec: Recorder, mix: str, graph) -> RdfStore:
    """``RdfStore.from_graph`` taken apart at its two layer boundaries."""
    clock = time.perf_counter
    t0 = clock()
    direct, reverse = color_graph_for_store(graph, MAX_COLORING_COLUMNS)
    t1 = clock()
    direct_columns = max(direct.colors_used, 1)
    reverse_columns = max(reverse.colors_used, 1)
    store = RdfStore(
        direct_columns=direct_columns, reverse_columns=reverse_columns,
        direct_mapper=direct.to_mapper(
            direct_columns, composed_hashes(direct_columns)),
        reverse_mapper=reverse.to_mapper(
            reverse_columns, composed_hashes(reverse_columns)))
    t2 = clock()
    store.load_graph(graph)
    t3 = clock()
    root = rec.add(f"setup.{mix}", t0, t3, None, None)
    rec.add("core.coloring", t0, t1, root, None)
    rec.add("core.loader", t2, t3, root, None)
    return store


# ----------------------------------------------------------------- reads


def staged_read(rec: Recorder, store: RdfStore, call: datasets.Call,
                query: int) -> tuple[float, SelectResult]:
    """One read, stage by stage. Returns (staged seconds, result)."""
    engine = store.engine
    clock = time.perf_counter
    compiled_before = store.cache_info().compile_seconds
    t0 = clock()
    plan = engine.compile_cached(call.text)
    t1 = clock()
    _, raw_rows = engine.backend.execute(plan.sql)
    t2 = clock()
    width = len(plan.variables)
    rows = [
        tuple(None if key is None else term_from_key(key) for key in row[:width])
        for row in raw_rows
    ]
    result = SelectResult(list(plan.variables), rows)
    t3 = clock()
    compiled_after = store.cache_info().compile_seconds

    root = rec.add("query", t0, t3, None, query, label=call.name)
    cache = rec.add("core.querycache", t0, t1, root, query)
    # On a miss the program's own stage timings split the compile; they ran
    # back to back just before compile_cached returned.
    cursor = t1
    for layer, stage in reversed(list(zip(
            COMPILE_LAYERS, ("parse", "plan", "translate")))):
        seconds = compiled_after[stage] - compiled_before[stage]
        if seconds > 0.0:
            rec.add(layer, cursor - seconds, cursor, cache, query, derived=True)
            cursor -= seconds
    rec.add("relational", t1, t2, root, query)
    rec.add("sparql.engine", t2, t3, root, query)
    return t3 - t0, result


def staged_extras(rec: Recorder, store: RdfStore, result: SelectResult,
                  query: int) -> int:
    """The stages a served read adds around the query: serialise the
    result, open and close a snapshot. Returns the serialised size."""
    clock = time.perf_counter
    t0 = clock()
    body = serialize_select(result, "json").encode()
    t1 = clock()
    store.snapshot().close()
    t2 = clock()
    rec.add("sparql.results", t0, t1, None, query)
    rec.add("core.concurrency", t1, t2, None, query)
    return len(body)


def staged_update(rec: Recorder, store: RdfStore, text: str, query: int) -> None:
    clock = time.perf_counter
    t0 = clock()
    request = parse_update(text)
    t1 = clock()
    store.update(request)
    t2 = clock()
    root = rec.add("update", t0, t2, None, query)
    rec.add("update.parser", t0, t1, root, query)
    rec.add("update.commit", t1, t2, root, query)


def scanned_rows(store: RdfStore, text: str) -> tuple[int, int]:
    """(base-table rows read, result rows) of one profiled run."""
    root = store.profile(text)
    scanned = sum(
        op.get("rows_out", 0) for op in summarize_operators(root)
        if op["operator"].startswith(_SCAN_OPERATORS))
    return scanned, root.find("decode").attrs.get("rows_out", 0)


def directory_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------- phases


def replay_rounds(rec, stores, stream, size, budget_s, schedule, oracle, tally,
                  query_ids):
    """Alternating half-rounds over identical reads — untraced
    ``store.query`` first, then the staged replay — until ``budget_s`` is
    spent (at least ``MIN_ROUNDS``). Short rounds keep the two halves close
    in time, so machine drift cancels in their ratio. On ``serve_mixed``
    (``schedule`` given) every 10th operation is a journalled update in
    both halves — fresh statements of the same shape — so reads on either
    side meet the same plan-cache invalidations."""
    clock = time.perf_counter
    out = {"coverage": [], "overhead": [], "untraced_ms": [], "reads": 0,
           "rows": 0, "last_slice": []}
    begun = clock()
    while len(out["coverage"]) < MIN_ROUNDS or clock() - begun < budget_s:
        reads = list(itertools.islice(stream, size))
        for call in reads:
            oracle.answer(call)
        plain = staged = staged_wall = 0.0
        for position, call in enumerate(reads):
            store = stores[call.mix]
            if schedule is not None and position % 10 == 9:
                store.update(schedule.next())
                schedule.acknowledge()
            t0 = clock()
            result = store.query(call.text)
            plain += clock() - t0
            tally.expect(oracle.count_ok(call, len(result)),
                         f"{call.name}: wrong row count (untraced round)")
        for position, call in enumerate(reads):
            store = stores[call.mix]
            if schedule is not None and position % 10 == 9:
                staged_update(rec, store, schedule.next(), next(query_ids))
                schedule.acknowledge()
            t0 = clock()
            seconds, result = staged_read(rec, store, call, next(query_ids))
            staged_wall += clock() - t0
            staged += seconds
            out["rows"] += len(result)
            tally.expect(oracle.count_ok(call, len(result)),
                         f"{call.name}: wrong row count (staged round)")
        out["coverage"].append(staged / plain)
        out["overhead"].append(staged_wall / plain - 1.0)
        out["untraced_ms"].append(plain / len(reads) * 1e3)
        out["reads"] += len(reads)
        out["last_slice"] = reads
    return out


def compile_crosscheck(stores, calls) -> dict[str, float]:
    """Mean ms per compile three ways, on an emptied plan cache: the
    program's own stage accounting, the clock around the same
    ``compile_cached`` miss, and the clock around ``engine.compile``."""
    clock = time.perf_counter
    accounted, around_miss, from_scratch = [], [], []
    for store in stores.values():
        store.engine.cache.clear()
    for call in calls:
        store = stores[call.mix]
        before = store.cache_info().compile_seconds["total"]
        t0 = clock()
        store.engine.compile_cached(call.text)
        t1 = clock()
        store.engine.compile(call.text)
        t2 = clock()
        accounted.append(store.cache_info().compile_seconds["total"] - before)
        around_miss.append(t1 - t0)
        from_scratch.append(t2 - t1)
    return {"accounted_ms": mean(accounted) * 1e3,
            "compile_cached_miss_ms": mean(around_miss) * 1e3,
            "engine_compile_ms": mean(from_scratch) * 1e3}


def server_probe(rec, stack, src_dir, nt_path, wal_dir, store, calls, oracle,
                 tally, query_ids, smoke) -> dict:
    """One keep-alive connection against ``repro serve``: the HTTP floor
    (``/health``), what the server adds to a read over the in-process
    snapshot + query + serialise of the same text, and an update's
    round trip."""
    server = ServerProcess(src_dir, nt_path, wal_dir)
    stack.callback(server.stop, graceful=False)
    client = Client(server.port)
    stack.callback(client.close)
    clock = time.perf_counter
    repeats = 4 if smoke else PROBE_REPEATS

    def timed(name, request):
        t0 = clock()
        status, payload, elapsed = request()
        rec.add(name, t0, t0 + elapsed, None, next(query_ids))
        return status, payload, elapsed

    pings = []
    for _ in range(HEALTH_PINGS // (5 if smoke else 1)):
        status, _, elapsed = timed("server.health", client.health)
        tally.expect(status == 200, f"/health answered {status}")
        pings.append(elapsed)

    overheads = []
    for call in [c for c in calls if c.mix == "lubm"][:PROBE_QUERIES]:
        over_http, in_process = [], []
        for _ in range(repeats):
            status, payload, elapsed = timed(
                "server.read", lambda: client.query(call.text))
            tally.expect(
                status == 200 and oracle.count_ok(call, result_rows(payload)),
                f"{call.name}: HTTP {status} or wrong row count (probe)")
            over_http.append(elapsed)
            t0 = clock()
            with store.snapshot() as snap:
                serialize_select(snap.query(call.text), "json").encode()
            in_process.append(clock() - t0)
        overheads.append(
            statistics.median(over_http) - statistics.median(in_process))

    schedule = datasets.WriteSchedule()
    updates = []
    for _ in range(UPDATE_PAIRS):
        statement = schedule.next()
        status, _, elapsed = timed(
            "server.update", lambda: client.update(statement))
        tally.expect(status == 200, f"update answered {status} (probe)")
        schedule.acknowledge()
        updates.append(elapsed)
    client.close()
    tally.expect(server.stop() == 0, "probe server did not exit 0 on SIGTERM")
    return {"health_rtt_ms": statistics.median(pings) * 1e3,
            "overhead_ms": mean(overheads) * 1e3,
            "update_rtt_ms": statistics.median(updates) * 1e3,
            "rejected": client.rejected}


# ------------------------------------------------------------ the pass


def run_traced(workload: str, seed: int, scale: float, src_dir: str,
               out_dir: str, smoke: bool) -> dict:
    tally = Tally()
    rec = Recorder(workload)
    clock = time.perf_counter
    data = datasets.generate(workload, seed, scale)
    graphs = {mix: item.graph for mix, item in data.items()}
    calls = datasets.workload_calls(workload, data, seed)
    oracle = datasets.Oracle(graphs)
    serving = workload == "serve_mixed"

    stores = {mix: traced_build(rec, mix, graph) for mix, graph in graphs.items()}
    setup_self = rec.self_seconds()
    color_s = sum(setup_self["core.coloring"])
    load_s = sum(setup_self["core.loader"])
    triples = sum(len(graph) for graph in graphs.values())
    lubm_store = stores["lubm"]

    os.makedirs(out_dir, exist_ok=True)
    with ExitStack() as stack:
        work = tempfile.mkdtemp(prefix="trace-", dir=out_dir)
        stack.callback(shutil.rmtree, work, ignore_errors=True)
        wal_dir = os.path.join(work, "wal-local")
        schedule = datasets.WriteSchedule()
        if serving:  # the served store journals every commit at flush level
            lubm_store.attach_wal(wal_dir, durability="flush")
        query_ids = itertools.count()

        # Cold pass, staged: the first compile of each distinct text, with
        # the full oracle check. The template pool is sampled here (its
        # replay compiles on every call anyway).
        cold = calls if workload != "template_miss" else calls[:64]
        for call in cold:
            _, result = staged_read(rec, stores[call.mix], call, next(query_ids))
            tally.expect(oracle.check(call, result),
                         f"{call.name}: staged result differs from the oracle")
        warm_first = len(rec.spans)
        gc.collect()
        gc.freeze()  # as in the untraced run: the graph/oracle heap stays put

        # One round = one shuffled pass; a template slice must outrun the
        # plan cache so that its staged repeat misses too.
        if serving:
            stream, size = datasets.mixed_reads(seed, 0), SERVED_ROUND
        else:
            stream = datasets.call_stream(workload, calls, seed)
            size = len(calls)
            if workload == "template_miss":
                size = min(size, 2 * lubm_store.cache_info().maxsize)
        cache_start = {mix: store.cache_info() for mix, store in stores.items()}
        rounds = replay_rounds(
            rec, stores, stream, size, REPLAY_BUDGET_S * (0.15 if smoke else 1.0),
            schedule if serving else None, oracle, tally, query_ids)
        cache_end = {mix: store.cache_info() for mix, store in stores.items()}
        replay_self = rec.self_seconds(warm_first)

        # What a served read adds, over the last slice, on warm results.
        extras_first = len(rec.spans)
        bytes_out = []
        for call in rounds["last_slice"]:
            store = stores[call.mix]
            bytes_out.append(staged_extras(
                rec, store, store.query(call.text), next(query_ids)))
        extras_self = rec.self_seconds(extras_first)

        # Exact counts: base-table rows read per result row, SQL size.
        scanned = returned = 0
        sql_chars = []
        for call in cold[:PROFILED_TEXTS]:
            rows_read, rows_out = scanned_rows(stores[call.mix], call.text)
            scanned += rows_read
            returned += rows_out
            sql_chars.append(len(stores[call.mix].explain(call.text)))
        crosscheck = compile_crosscheck(stores, cold[:24])

        nt_path = os.path.join(work, "lubm.nt")
        text = ntriples.serialize(graphs["lubm"])
        with open(nt_path, "w") as handle:
            handle.write(text)
        t0 = clock()
        parsed = sum(1 for _ in ntriples.parse(text))
        parse_rate = parsed / (clock() - t0)
        probe = server_probe(rec, stack, src_dir, nt_path,
                             os.path.join(work, "wal-served"), lubm_store,
                             calls, oracle, tally, query_ids, smoke)

        # Update phase: journalled commits, write amplification, checkpoint.
        if not serving:
            lubm_store.attach_wal(wal_dir, durability="flush")
        wal_before = directory_bytes(wal_dir)
        updates_first = len(rec.spans)
        for _ in range(UPDATE_PAIRS * 2):
            staged_update(rec, lubm_store, schedule.next(), next(query_ids))
            schedule.acknowledge()
        lubm_store.flush_wal()
        wal_bytes = directory_bytes(wal_dir) - wal_before
        t0 = clock()
        lubm_store.checkpoint()
        checkpoint_ms = (clock() - t0) * 1e3
        tally.expect(
            len(lubm_store.query(datasets.COUNT_QUERY)) == len(schedule.live),
            "bench entity count differs from acknowledged writes")
        update_self = rec.self_seconds(updates_first)

    trace_path = os.path.join(out_dir, f"trace-{workload}.jsonl")
    rec.write(trace_path)

    def delta(field: str) -> int:
        return sum(getattr(cache_end[m], field) - getattr(cache_start[m], field)
                   for m in stores)

    # Compile stages are reported per compile (cold pass + every replayed
    # miss); everything else per replayed read.
    all_self = rec.self_seconds()
    compiles = max(1, len(all_self.get("sparql.optimizer", ())))
    per_compile = {layer: sum(all_self.get(layer, ())) / compiles
                   for layer in COMPILE_LAYERS}
    per_read = {layer: sum(replay_self.get(layer, ())) / rounds["reads"]
                for layer in QUERY_LAYERS}
    serialize_ms = mean(extras_self["sparql.results"]) * 1e3
    snapshot_us = mean(extras_self["core.concurrency"]) * 1e6
    triples_written = UPDATE_PAIRS * 2 * datasets.WriteSchedule.TRIPLES_PER_ENTITY
    lookups = delta("hits") + delta("misses") + delta("invalidations")

    metrics = {
        "sparql.parser.parse_ms": per_compile["sparql.parser"] * 1e3,
        "sparql.optimizer.plan_ms": per_compile["sparql.optimizer"] * 1e3,
        "sparql.translator.translate_ms": per_compile["sparql.translator"] * 1e3,
        "sparql.translator.sql_chars": mean(sql_chars),
        "core.querycache.probe_us": per_read["core.querycache"] * 1e6,
        "core.querycache.hit_ratio": delta("hits") / max(1, lookups),
        "core.querycache.evictions": delta("evictions"),
        "core.querycache.invalidations": delta("invalidations"),
        "relational.execute_ms": per_read["relational"] * 1e3,
        "relational.rows_scanned_per_result": scanned / max(1, returned),
        "sparql.engine.decode_ms": per_read["sparql.engine"] * 1e3,
        "sparql.engine.decode_us_per_row":
            sum(replay_self["sparql.engine"]) * 1e6 / max(1, rounds["rows"]),
        "sparql.results.serialize_ms": serialize_ms,
        "sparql.results.bytes_out": mean(bytes_out),
        "core.concurrency.snapshot_us": snapshot_us,
        "server.health_rtt_ms": probe["health_rtt_ms"],
        "server.overhead_ms": probe["overhead_ms"],
        "server.update_rtt_ms": probe["update_rtt_ms"],
        "server.rejected": probe["rejected"],
        "core.coloring.color_s": color_s,
        "core.loader.load_s": load_s,
        "core.loader.triples_per_s": triples / load_s,
        "rdf.ntriples.parse_triples_per_s": parse_rate,
        "update.parse_ms": mean(update_self["update.parser"]) * 1e3,
        "update.commit_ms": mean(update_self["update.commit"]) * 1e3,
        "update.wal.bytes_per_triple": wal_bytes / triples_written,
        "update.wal.checkpoint_ms": checkpoint_ms,
        "trace.coverage": statistics.median(rounds["coverage"]),
        "trace.overhead": statistics.median(rounds["overhead"]),
    }

    # Shares of the staged total. In process the query stages are the whole
    # call; a served read also pays snapshot, serialise and the HTTP layer.
    shares = {layer: per_read[layer] * 1e3 for layer in QUERY_LAYERS}
    if serving:
        shares["sparql.results"] = serialize_ms
        shares["core.concurrency"] = snapshot_us / 1e3
        shares["server"] = max(0.0, probe["overhead_ms"])
    total = sum(shares.values())
    coverage = metrics["trace.coverage"]
    return {
        "tally": tally,
        "metrics": metrics,
        "shares": {layer: value / total for layer, value in shares.items()},
        "details": {
            "trace_file": trace_path, "spans": len(rec.spans),
            "replayed_reads": rounds["reads"], "round_size": size,
            "compiles": compiles,
            "untraced_ms_per_read": statistics.median(rounds["untraced_ms"]),
            "coverage_rounds": rounds["coverage"],
            "overhead_rounds": rounds["overhead"],
            "coverage_flag":
                "ok" if 0.85 <= coverage <= 1.15 else "unattributed",
            "compile_crosscheck": crosscheck,
        },
    }
