"""Shared fixtures for the plan-quality battery.

One battery graph, loaded once per session into the stores the harnesses
compare: the hybrid optimizer on minirel and on sqlite.
"""

import pytest

from repro import RdfStore, SqliteBackend
from repro.workloads import planbattery


@pytest.fixture(scope="session")
def battery_data():
    return planbattery.generate()


@pytest.fixture(scope="session")
def battery_queries():
    return planbattery.queries()


@pytest.fixture(scope="session")
def hybrid_store(battery_data):
    return RdfStore.from_graph(battery_data.graph, use_coloring=False)


@pytest.fixture(scope="session")
def sqlite_store(battery_data):
    return RdfStore.from_graph(
        battery_data.graph, backend=SqliteBackend(), use_coloring=False
    )
