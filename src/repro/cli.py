"""Command-line interface: load RDF files, query, explain, inspect.

Usage examples::

    python -m repro query data.ttl "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 5"
    python -m repro update data.nt "INSERT DATA { <s> <p> 'o' }" --wal j.wal
    python -m repro explain data.nt query.rq
    python -m repro info data.nt --no-coloring
    python -m repro shell data.ttl
    python -m repro wal info j.wal
    python -m repro checkpoint data.nt --wal j.wal
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import threading
import time
from typing import Iterable

from .backends import SqliteBackend
from .core.observe import render_profile
from .core.resilience import BudgetExceededError, QueryTimeoutError
from .core.store import RdfStore
from .sparql.engine import EngineConfig
from .rdf.graph import Graph
from .rdf.ntriples import parse as parse_ntriples
from .rdf.turtle import parse_turtle
from .sparql.parser import SparqlSyntaxError
from .sparql.results import SelectResult
from .sparql.serialize import FORMATTERS
from .update.errors import WalError
from .update.wal import inspect_wal

#: typed-error exit codes — stable, scriptable contract (documented in README)
EXIT_SYNTAX = 2
EXIT_TIMEOUT = 3
EXIT_BUDGET = 4
EXIT_WAL = 5


def load_graph(paths: Iterable[str]) -> Graph:
    """Load one or more .nt / .ttl files into a graph."""
    graph = Graph()
    for path_text in paths:
        path = pathlib.Path(path_text)
        text = path.read_text()
        if path.suffix in (".ttl", ".turtle"):
            triples = parse_turtle(text)
        else:
            triples = parse_ntriples(text)
        for triple in triples:
            graph.add(triple)
    return graph


def build_store(args: argparse.Namespace) -> RdfStore:
    """Load the data files and build a store per the CLI flags."""
    graph = load_graph(args.data)
    backend = SqliteBackend() if args.backend == "sqlite" else None
    config = EngineConfig(cache_size=0) if getattr(args, "no_cache", False) else None
    started = time.perf_counter()
    store = RdfStore.from_graph(
        graph,
        backend=backend,
        use_coloring=not args.no_coloring,
        max_columns=args.max_columns,
        config=config,
    )
    wal_path = getattr(args, "wal", None)
    if wal_path is not None:
        # Attached after the bulk load so journalled incremental writes
        # replay on top of the loaded data.
        store.attach_wal(
            wal_path,
            durability=getattr(args, "durability", None),
            recovery=getattr(args, "recovery", None) or "strict",
        )
    elapsed = time.perf_counter() - started
    if not args.quiet:
        report = store.report()
        print(
            f"# loaded {report.triples} triples in {elapsed:.2f}s "
            f"(DPH {store.schema.direct_columns} cols, "
            f"{report.direct.spill_rows} spills; "
            f"RPH {store.schema.reverse_columns} cols)",
            file=sys.stderr,
        )
    return store


def _read_query(text_or_path: str) -> str:
    path = pathlib.Path(text_or_path)
    if path.suffix in (".rq", ".sparql", ".ru") and path.exists():
        return path.read_text()
    return text_or_path


def print_result(result: SelectResult, fmt: str = "plain") -> None:
    """Print a result in the requested output format."""
    if fmt in FORMATTERS:
        print(FORMATTERS[fmt](result), end="" if fmt == "csv" else "\n")
        return
    header = "\t".join(f"?{v}" for v in result.variables)
    print(header)
    for row in result.key_rows():
        print("\t".join("" if value is None else value for value in row))


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: run a SPARQL query and print the results.

    ``--repeat N`` re-runs the query N times (plan-cache warm after the
    first run) and reports per-run timings plus the cache counters.
    """
    store = build_store(args)
    sparql = _read_query(args.query)
    repeats = max(1, getattr(args, "repeat", 1))
    profile = bool(getattr(args, "profile", False))
    timings: list[float] = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = store.query(
            sparql,
            timeout=args.timeout,
            max_rows=args.max_rows,
            profile=profile,
        )
        timings.append(time.perf_counter() - started)
    print_result(result, args.format)
    if profile and result.profile is not None:
        print(render_profile(result.profile), file=sys.stderr)
    if not args.quiet:
        if repeats > 1:
            runs = ", ".join(f"{seconds * 1000:.1f}" for seconds in timings)
            print(f"# {len(result)} rows; runs (ms): {runs}", file=sys.stderr)
        else:
            print(
                f"# {len(result)} rows in {timings[0] * 1000:.1f} ms",
                file=sys.stderr,
            )
        print(f"# {store.cache_info().summary()}", file=sys.stderr)
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """``repro update``: apply a SPARQL Update request to the loaded data.

    The request runs as one transaction; with ``--wal PATH`` its committed
    delta is journalled (and any previously journalled transactions are
    replayed before it runs — the crash-recovery path)."""
    store = build_store(args)
    sparql = _read_query(args.update)
    profile = bool(getattr(args, "profile", False))
    started = time.perf_counter()
    result = store.update(sparql, profile=profile)
    elapsed = time.perf_counter() - started
    if profile and result.profile is not None:
        print(render_profile(result.profile), file=sys.stderr)
    print(f"# {result.summary()} in {elapsed * 1000:.1f} ms", file=sys.stderr)
    if not args.quiet:
        report = store.report()
        print(f"# store now holds {report.triples} triples", file=sys.stderr)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: print the SQL generated for a query (with
    ``--plan``, also the compile configuration and the backend's plan)."""
    store = build_store(args)
    mode = "plan" if getattr(args, "plan", False) else "sql"
    print(store.explain(_read_query(args.query), mode=mode))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """``repro info``: print load statistics for the data files."""
    store = build_store(args)
    report = store.report()
    print(f"triples:              {report.triples}")
    print(f"subjects (DPH rows):  {report.direct.entities} "
          f"(+{report.direct.spill_rows} spill rows)")
    print(f"objects (RPH rows):   {report.reverse.entities} "
          f"(+{report.reverse.spill_rows} spill rows)")
    print(f"DPH columns:          {report.direct_columns}")
    print(f"RPH columns:          {report.reverse_columns}")
    print(f"multi-valued (direct): {len(report.direct.multivalued)}")
    print(f"multi-valued (reverse): {len(report.reverse.multivalued)}")
    print(f"online-assigned preds: {len(report.direct.online_assignments)}")
    print(f"distinct predicates:  {len(store.stats.predicate_counts)}")
    if store.wal is not None:
        print(f"wal segments:         {report.wal_segments}")
        print(f"wal last txn:         {report.wal_last_txn}")
        print(f"wal records dropped:  {report.wal_records_dropped}")
    top = sorted(
        store.stats.predicate_counts.items(), key=lambda kv: -kv[1]
    )[:10]
    print("top predicates:")
    for predicate, count in top:
        print(f"  {count:>8}  {predicate}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: expose the store over the SPARQL 1.1 Protocol.

    Queries (GET/POST ``/sparql``) run on concurrent snapshot reads;
    updates (POST ``/update``) serialize behind the store's writer lock.
    Error bodies carry the same exit codes this CLI uses."""
    # Deferred: repro.server imports this module for the exit codes.
    from .server.app import SparqlServer

    store = build_store(args)
    server = SparqlServer(
        store,
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        workers=args.workers,
        default_timeout=args.timeout,
        default_max_rows=args.max_rows,
        drain_timeout=args.drain_timeout,
    )

    class _Announce(threading.Event):
        def set(self) -> None:  # port known once the listener is bound
            print(
                f"# serving SPARQL on http://{server.host}:{server.port}/sparql"
                f" (updates at /update, liveness at /health)",
                file=sys.stderr,
            )
            super().set()

    try:
        server.run(
            ready=None if args.quiet else _Announce(), install_signals=True
        )
    except KeyboardInterrupt:
        pass
    return 0


def cmd_wal_info(args: argparse.Namespace) -> int:
    """``repro wal info``: verify a journal's checksums and print its
    shape. Read-only — never repairs or truncates anything. Runs the scan
    a journal open runs and exits ``EXIT_WAL`` (5) exactly when a
    ``strict`` open would refuse the journal."""
    status = inspect_wal(args.path)
    print(f"path:             {status.path}")
    print(f"format:           {status.format}")
    if status.format == "absent":
        print("status:           no journal at this path")
        return 0
    print(f"segments:         {status.segments}")
    print(f"records:          {status.records}")
    print(f"last txn:         {status.last_txn}")
    if status.checkpoint_txn:
        print(f"checkpoint:       txn {status.checkpoint_txn} "
              f"({status.checkpoint_ops} consolidated ops)")
    else:
        print("checkpoint:       none")
    if status.tail_torn:
        print("tail:             torn final record "
              "(expected crash footprint; truncated on next open)")
    if status.ok:
        print("checksums:        ok")
        return 0
    print(f"checksums:        CORRUPT — {status.error}")
    print(f"error (wal): {status.error}", file=sys.stderr)
    return EXIT_WAL


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """``repro checkpoint``: consolidate the journal's committed prefix
    into a durable checkpoint and compact the covered segments."""
    if getattr(args, "wal", None) is None:
        print("error: checkpoint requires --wal PATH", file=sys.stderr)
        return 2
    store = build_store(args)
    info = store.checkpoint()
    if info.txn == 0:
        print("# journal is empty: nothing to checkpoint", file=sys.stderr)
        return 0
    print(
        f"# checkpoint at txn {info.txn}: {info.ops} consolidated op(s), "
        f"{info.segments_removed} segment(s) compacted",
        file=sys.stderr,
    )
    if not args.quiet:
        summary = store.wal_summary()
        print(f"# journal now: {summary['segments']} segment(s), "
              f"{summary['records']} record(s) past the checkpoint",
              file=sys.stderr)
    return 0


def cmd_shell(args: argparse.Namespace) -> int:
    """``repro shell``: an interactive SPARQL read-eval-print loop."""
    store = build_store(args)
    print("# repro SPARQL shell — end queries with a blank line, "
          "'\\q' quits, '\\e <query>' explains, '\\profile <query>' "
          "profiles, '\\update <stmt>' writes, '\\c' shows plan-cache stats",
          file=sys.stderr)
    buffer: list[str] = []
    while True:
        try:
            line = input("sparql> " if not buffer else "   ...> ")
        except EOFError:
            return 0
        if line.strip() == "\\q":
            return 0
        if line.strip() == "\\c":
            print(store.cache_info().summary(), file=sys.stderr)
            continue
        if line.startswith("\\e "):
            try:
                print(store.explain(line[3:], mode="plan"))
            except Exception as exc:  # interactive: report, keep going
                print(f"error: {exc}", file=sys.stderr)
            continue
        if line.startswith("\\update "):
            try:
                result = store.update(line[len("\\update "):])
                print(f"# {result.summary()}", file=sys.stderr)
            except Exception as exc:
                print(f"error: {exc}", file=sys.stderr)
            continue
        if line.startswith("\\profile "):
            try:
                result = store.query(
                    line[len("\\profile "):],
                    timeout=args.timeout,
                    max_rows=args.max_rows,
                    profile=True,
                )
                print_result(result)
                print(render_profile(result.profile), file=sys.stderr)
            except Exception as exc:
                print(f"error: {exc}", file=sys.stderr)
            continue
        if line.strip():
            buffer.append(line)
            continue
        if not buffer:
            continue
        sparql = "\n".join(buffer)
        buffer = []
        try:
            started = time.perf_counter()
            result = store.query(
                sparql, timeout=args.timeout, max_rows=args.max_rows
            )
            elapsed = time.perf_counter() - started
            print_result(result)
            print(f"# {len(result)} rows in {elapsed * 1000:.1f} ms",
                  file=sys.stderr)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)


def make_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DB2RDF-style RDF store over a relational database",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_query: bool = True) -> None:
        p.add_argument("data", nargs="+", help=".nt or .ttl file(s)")
        if with_query:
            p.add_argument("query", help="SPARQL text or a .rq file path")
        p.add_argument(
            "--backend", choices=["minirel", "sqlite"], default="minirel"
        )
        p.add_argument("--no-coloring", action="store_true",
                       help="use hash composition instead of graph coloring")
        p.add_argument("--max-columns", type=int, default=100)
        p.add_argument("--timeout", type=float, default=None,
                       help="query timeout in seconds")
        p.add_argument("--max-rows", type=int, default=None,
                       help="fail queries returning more than N result rows")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the query plan cache")
        p.add_argument("--quiet", action="store_true")
        p.add_argument(
            "--format",
            choices=["plain", "table", "csv", "tsv", "json"],
            default="plain",
            help="result output format",
        )
        p.add_argument(
            "--wal", default=None, metavar="PATH",
            help="replay (and keep journalling to) a write-ahead log",
        )
        _wal_tuning(p)

    def _wal_tuning(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--durability", choices=["none", "flush", "fsync"], default=None,
            help="journal durability per commit (default: flush)",
        )
        p.add_argument(
            "--recovery", choices=["strict", "tolerate_tail"], default=None,
            help="corrupt-journal policy: strict refuses (exit 5), "
                 "tolerate_tail truncates at the first bad record",
        )

    query_parser = sub.add_parser("query", help="run a SPARQL query")
    common(query_parser)
    query_parser.add_argument(
        "--repeat", type=int, default=1,
        help="run the query N times (warm plan cache after the first)",
    )
    query_parser.add_argument(
        "--profile", action="store_true",
        help="trace the query (compile stages, per-operator rows/timings) "
             "and print the profile to stderr",
    )
    query_parser.set_defaults(func=cmd_query)

    update_parser = sub.add_parser(
        "update", help="apply a SPARQL Update request"
    )
    update_parser.add_argument("data", nargs="+", help=".nt or .ttl file(s)")
    update_parser.add_argument(
        "update", help="SPARQL Update text or a .ru file path"
    )
    update_parser.add_argument(
        "--backend", choices=["minirel", "sqlite"], default="minirel"
    )
    update_parser.add_argument("--no-coloring", action="store_true",
                               help="use hash composition instead of coloring")
    update_parser.add_argument("--max-columns", type=int, default=100)
    update_parser.add_argument("--quiet", action="store_true")
    update_parser.add_argument(
        "--wal", default=None, metavar="PATH",
        help="write-ahead journal: replay it after load, append the commit",
    )
    _wal_tuning(update_parser)
    update_parser.add_argument(
        "--profile", action="store_true",
        help="trace parse/apply/commit stages and print the profile",
    )
    update_parser.set_defaults(func=cmd_update)

    explain_parser = sub.add_parser("explain", help="show the generated SQL")
    common(explain_parser)
    explain_parser.add_argument(
        "--plan", action="store_true",
        help="include the compile configuration and the backend's own plan",
    )
    explain_parser.set_defaults(func=cmd_explain)

    info_parser = sub.add_parser("info", help="load statistics")
    common(info_parser, with_query=False)
    info_parser.set_defaults(func=cmd_info)

    shell_parser = sub.add_parser("shell", help="interactive SPARQL shell")
    common(shell_parser, with_query=False)
    shell_parser.set_defaults(func=cmd_shell)

    serve_parser = sub.add_parser(
        "serve", help="serve the data over the SPARQL 1.1 Protocol"
    )
    common(serve_parser, with_query=False)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=3030,
        help="TCP port (0 binds an ephemeral port)",
    )
    serve_parser.add_argument(
        "--max-concurrent", type=int, default=8,
        help="requests in flight before shedding load with 503",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None,
        help="query worker threads (default: max-concurrent, floor 2)",
    )
    serve_parser.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="seconds to let in-flight requests finish on SIGTERM/SIGINT "
             "before closing (the WAL is flushed either way)",
    )
    serve_parser.set_defaults(func=cmd_serve)

    wal_parser = sub.add_parser(
        "wal", help="inspect a write-ahead journal"
    )
    wal_sub = wal_parser.add_subparsers(dest="wal_command", required=True)
    wal_info_parser = wal_sub.add_parser(
        "info",
        help="verify checksums and print segment/record/txn counts "
             "(read-only; exit 5 on corruption)",
    )
    wal_info_parser.add_argument("path", help="journal directory or file")
    wal_info_parser.set_defaults(func=cmd_wal_info)

    checkpoint_parser = sub.add_parser(
        "checkpoint",
        help="consolidate the journal into a checkpoint and compact it",
    )
    common(checkpoint_parser, with_query=False)
    checkpoint_parser.set_defaults(func=cmd_checkpoint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Typed errors map to stable exit codes instead of tracebacks:
    syntax errors (query or update) → 2, query timeouts → 3, budget
    trips (``--max-rows``) → 4, journal corruption → 5. Anything else is
    a genuine bug and propagates with its traceback.
    """
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error (budget): {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except QueryTimeoutError as exc:
        print(f"error (timeout): {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except WalError as exc:
        print(f"error (wal): {exc}", file=sys.stderr)
        return EXIT_WAL
    except SparqlSyntaxError as exc:
        print(f"error (syntax): {exc}", file=sys.stderr)
        return EXIT_SYNTAX


if __name__ == "__main__":
    raise SystemExit(main())
