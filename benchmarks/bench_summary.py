"""E7 — Figure 15: the headline evaluation.

Five systems, as in the paper: the entity-oriented DB2RDF store, the three
alternative relational layouts of §2, and the native in-memory store.

Every system over every dataset's full query mix, warm cache, randomly
shuffled runs, per-query timeout, and the complete / timeout / error /
unsupported classification. The native in-memory store doubles as the
answer-count oracle (it is differentially tested against the reference
evaluator in the test suite).
"""

from __future__ import annotations


from repro import RdfStore
from repro.baselines import (
    NativeMemoryStore,
    TripleStore,
    TypeOrientedStore,
    VerticalStore,
)
from repro.workloads import dbpedia, lubm, prbench, runner, sp2bench

from conftest import report

TIMEOUT = 20.0
RUNS = 2


def _run_dataset(title, graph, queries):
    oracle = NativeMemoryStore.from_graph(graph)
    stores = {
        "DB2RDF": RdfStore.from_graph(graph),
        "triple-store": TripleStore.from_graph(graph),
        "pred-oriented": VerticalStore.from_graph(graph),
        "type-oriented": TypeOrientedStore.from_graph(graph),
        "native-mem": oracle,
    }
    summaries = runner.run_benchmark(
        stores, queries, oracle, timeout=TIMEOUT, runs=RUNS
    )
    report(f"Figure 15 — {title}", runner.format_summary_table(title, summaries))
    return summaries


def test_summary_lubm(benchmark, lubm_data):
    summaries = benchmark.pedantic(
        lambda: _run_dataset(
            f"LUBM ({len(lubm_data.graph)} triples, 12 queries)",
            lubm_data.graph,
            lubm.queries(),
        ),
        rounds=1,
        iterations=1,
    )
    assert summaries["DB2RDF"].complete == 12


def test_summary_sp2bench(benchmark, sp2b_data):
    summaries = benchmark.pedantic(
        lambda: _run_dataset(
            f"SP2Bench ({len(sp2b_data.graph)} triples, 17 queries)",
            sp2b_data.graph,
            sp2bench.queries(),
        ),
        rounds=1,
        iterations=1,
    )
    assert summaries["DB2RDF"].complete + summaries["DB2RDF"].timeout == 17


def test_summary_dbpedia(benchmark, dbpedia_data):
    summaries = benchmark.pedantic(
        lambda: _run_dataset(
            f"DBpedia ({len(dbpedia_data.graph)} triples, 20 queries)",
            dbpedia_data.graph,
            dbpedia.queries(),
        ),
        rounds=1,
        iterations=1,
    )
    assert summaries["DB2RDF"].complete == 20


def test_summary_prbench(benchmark, prbench_data):
    summaries = benchmark.pedantic(
        lambda: _run_dataset(
            f"PRBench ({len(prbench_data.graph)} triples, 29 queries)",
            prbench_data.graph,
            prbench.queries(),
        ),
        rounds=1,
        iterations=1,
    )
    assert summaries["DB2RDF"].complete == 29
