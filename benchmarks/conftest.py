"""Shared benchmark fixtures and reporting helpers.

Scale is controlled by ``REPRO_BENCH_SCALE`` (default 1.0): the multiplier
applied to every dataset's default triple count. CI-sized runs finish in a
few minutes; raise the scale to stress the stores.

Each bench prints its paper-style table through :func:`report`, which also
appends to ``benchmarks/out/results.txt`` so EXPERIMENTS.md can quote runs.
Each bench asserts its own bound in-test; nothing reads the output back.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import RdfStore
from repro.baselines import (
    NativeMemoryStore,
    TripleStore,
    TypeOrientedStore,
    VerticalStore,
)
from repro.workloads import dbpedia, lubm, microbench, prbench, sp2bench

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
OUT_DIR = pathlib.Path(__file__).parent / "out"


def scaled(n: int) -> int:
    return max(200, int(n * SCALE))


def report(title: str, text: str) -> None:
    """Print a result table and persist it for EXPERIMENTS.md."""
    banner = f"\n===== {title} =====\n{text}\n"
    print(banner)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.txt", "a") as handle:
        handle.write(banner)


# --------------------------------------------------------------- datasets


@pytest.fixture(scope="session")
def micro_data():
    return microbench.generate(target_triples=scaled(60_000))


@pytest.fixture(scope="session")
def lubm_data():
    return lubm.generate(universities=max(1, int(3 * SCALE)))


@pytest.fixture(scope="session")
def sp2b_data():
    return sp2bench.generate(target_triples=scaled(12_000))


@pytest.fixture(scope="session")
def dbpedia_data():
    return dbpedia.generate(target_triples=scaled(15_000))


@pytest.fixture(scope="session")
def prbench_data():
    return prbench.generate(target_triples=scaled(15_000))


# ----------------------------------------------------------------- stores


def build_stores(graph, include_native: bool = True, include_type: bool = False):
    stores = {
        "DB2RDF": RdfStore.from_graph(graph),
        "triple-store": TripleStore.from_graph(graph),
        "pred-oriented": VerticalStore.from_graph(graph),
    }
    if include_type:
        stores["type-oriented"] = TypeOrientedStore.from_graph(graph)
    if include_native:
        stores["native-mem"] = NativeMemoryStore.from_graph(graph)
    return stores


@pytest.fixture(scope="session")
def micro_stores(micro_data):
    return build_stores(micro_data.graph, include_native=False)


@pytest.fixture(scope="session")
def lubm_stores(lubm_data):
    return build_stores(lubm_data.graph)


@pytest.fixture(scope="session")
def prbench_stores(prbench_data):
    return build_stores(prbench_data.graph)
