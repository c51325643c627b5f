"""Shared fixtures: the paper's running example and helpers."""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import Graph, Triple, URI

#: Figure 1(a): the DBpedia sample used throughout the paper.
FIGURE1_DATA = [
    ("Charles_Flint", "born", "1850"),
    ("Charles_Flint", "died", "1934"),
    ("Charles_Flint", "founder", "IBM"),
    ("Larry_Page", "born", "1973"),
    ("Larry_Page", "founder", "Google"),
    ("Larry_Page", "board", "Google"),
    ("Larry_Page", "home", "Palo_Alto"),
    ("Android", "developer", "Google"),
    ("Android", "version", "4.1"),
    ("Android", "kernel", "Linux"),
    ("Android", "preceded", "4.0"),
    ("Android", "graphics", "OpenGL"),
    ("Google", "industry", "Software"),
    ("Google", "industry", "Internet"),
    ("Google", "employees", "54604"),
    ("Google", "HQ", "Mountain_View"),
    ("IBM", "industry", "Software"),
    ("IBM", "industry", "Hardware"),
    ("IBM", "industry", "Services"),
    ("IBM", "employees", "433362"),
    ("IBM", "HQ", "Armonk"),
]


def figure1_graph() -> Graph:
    return Graph(
        Triple(URI(s), URI(p), URI(o)) for s, p, o in FIGURE1_DATA
    )


@pytest.fixture
def fig1_graph() -> Graph:
    return figure1_graph()


#: Figure 6(a): the paper's running query (with valid IRIs).
FIGURE6_QUERY = """
SELECT ?x ?y ?z ?n ?m WHERE {
  ?x <home> <Palo_Alto> .
  { ?x <founder> ?y } UNION { ?x <board> ?y }
  ?y <industry> <Software> .
  ?z <developer> ?y .
  ?y <employees> ?n .
  OPTIONAL { ?y <HQ> ?m }
}
"""


def check_golden(path: pathlib.Path, actual: str) -> None:
    """Assert ``actual`` equals the golden file at ``path``.

    ``REGEN_GOLDEN=1`` rewrites every golden file (generated SQL and
    profile trees alike) from the current output instead::

        REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sparql
    """
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(actual)
    expected = path.read_text()
    assert actual == expected, (
        f"output drifted from {path}; "
        f"re-run with REGEN_GOLDEN=1 if the change is intentional"
    )
