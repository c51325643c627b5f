"""SPARQL 1.1 Protocol conformance: routes, negotiation, typed errors.

A real server on an ephemeral port, driven with stdlib ``http.client`` —
every assertion exercises the full asyncio + worker-thread + snapshot
path. Error bodies must carry the CLI's exit codes (the two surfaces
share one error vocabulary), which is asserted against the constants in
``repro.cli`` rather than literals.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import urllib.parse

import pytest

from repro import MiniRelBackend, RdfStore
from repro.cli import EXIT_BUDGET, EXIT_SYNTAX, EXIT_TIMEOUT
from repro.server.app import SparqlServer
from repro.update import inspect_wal

from ..conftest import figure1_graph

INDUSTRIES = "SELECT ?o WHERE { <Google> <industry> ?o }"
#: three unconstrained scans — big enough to trip a microsecond deadline
CROSS_JOIN = (
    "SELECT ?a ?b ?c WHERE { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f . ?g ?s ?h }"
)


class Client:
    """A tiny keep-alive HTTP client bound to the test server."""

    def __init__(self, port: int) -> None:
        self.port = port

    def request(
        self,
        method: str,
        target: str,
        body: str | None = None,
        headers: dict | None = None,
    ):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request(method, target, body=body, headers=headers or {})
            response = connection.getresponse()
            payload = response.read()
            return response.status, dict(response.getheaders()), payload
        finally:
            connection.close()

    def get_query(self, query: str, accept: str | None = None, **params):
        params = {"query": query, **params}
        headers = {"Accept": accept} if accept else {}
        return self.request(
            "GET", "/sparql?" + urllib.parse.urlencode(params), headers=headers
        )


def _serve(store: RdfStore, **kwargs):
    server = SparqlServer(store, port=0, **kwargs)
    ready = threading.Event()
    thread = threading.Thread(target=server.run, args=(ready,), daemon=True)
    thread.start()
    assert ready.wait(10), "server did not come up"
    return server, thread


@pytest.fixture(scope="module")
def server():
    store = RdfStore.from_graph(figure1_graph())
    server, thread = _serve(store)
    yield server
    server.shutdown()
    thread.join(10)


@pytest.fixture(scope="module")
def client(server) -> Client:
    return Client(server.port)


def _error(payload: bytes) -> dict:
    return json.loads(payload)["error"]


# ------------------------------------------------------------- negotiation


def test_default_format_is_sparql_json(client):
    status, headers, payload = client.get_query(INDUSTRIES)
    assert status == 200
    assert headers["Content-Type"] == "application/sparql-results+json"
    document = json.loads(payload)
    assert document["head"]["vars"] == ["o"]
    values = {b["o"]["value"] for b in document["results"]["bindings"]}
    assert values == {"Software", "Internet"}


def test_accept_csv(client):
    status, headers, payload = client.get_query(INDUSTRIES, accept="text/csv")
    assert status == 200
    assert headers["Content-Type"].startswith("text/csv")
    lines = payload.decode().split("\r\n")
    assert lines[0] == "o"
    assert set(lines[1:3]) == {"Software", "Internet"}


def test_accept_tsv(client):
    status, headers, payload = client.get_query(
        INDUSTRIES, accept="text/tab-separated-values"
    )
    assert status == 200
    assert headers["Content-Type"].startswith("text/tab-separated-values")
    lines = payload.decode().strip().split("\n")
    assert lines[0] == "?o"
    assert set(lines[1:]) == {"<Software>", "<Internet>"}


def test_accept_q_values_pick_the_best(client):
    status, headers, _ = client.get_query(
        INDUSTRIES, accept="text/csv;q=0.3, application/sparql-results+json;q=0.9"
    )
    assert status == 200
    assert headers["Content-Type"] == "application/sparql-results+json"


def test_unsupported_accept_is_406(client):
    status, _, payload = client.get_query(INDUSTRIES, accept="application/xml")
    assert status == 406
    assert _error(payload)["type"] == "not-acceptable"


def test_ask_boolean_document(client):
    status, _, payload = client.get_query("ASK { <Google> <industry> ?o }")
    assert status == 200
    assert json.loads(payload) == {"head": {}, "boolean": True}
    status, _, payload = client.get_query(
        "ASK { <Google> <industry> <Nonexistent> }"
    )
    assert json.loads(payload) == {"head": {}, "boolean": False}


# ------------------------------------------------------------------ routes


def test_post_direct_query(client):
    status, _, payload = client.request(
        "POST",
        "/sparql",
        body=INDUSTRIES,
        headers={"Content-Type": "application/sparql-query"},
    )
    assert status == 200
    assert len(json.loads(payload)["results"]["bindings"]) == 2


def test_post_form_query(client):
    status, _, payload = client.request(
        "POST",
        "/sparql",
        body=urllib.parse.urlencode({"query": INDUSTRIES}),
        headers={"Content-Type": "application/x-www-form-urlencoded"},
    )
    assert status == 200
    assert len(json.loads(payload)["results"]["bindings"]) == 2


def test_update_endpoint_round_trip(client):
    body = urllib.parse.urlencode(
        {"update": "INSERT DATA { <Proto> <fresh_pred> <Value> }"}
    )
    status, _, payload = client.request(
        "POST",
        "/update",
        body=body,
        headers={"Content-Type": "application/x-www-form-urlencoded"},
    )
    assert status == 200
    assert json.loads(payload) == {"inserted": 1, "deleted": 0, "operations": 1}
    status, _, payload = client.get_query(
        "SELECT ?o WHERE { <Proto> <fresh_pred> ?o }"
    )
    assert len(json.loads(payload)["results"]["bindings"]) == 1


def test_update_via_sparql_update_content_type(client):
    status, _, payload = client.request(
        "POST",
        "/update",
        body="DELETE DATA { <Proto> <fresh_pred> <Value> }",
        headers={"Content-Type": "application/sparql-update"},
    )
    assert status == 200
    assert json.loads(payload)["deleted"] == 1


def test_health(client):
    status, _, payload = client.request("GET", "/health")
    assert status == 200
    document = json.loads(payload)
    assert document["status"] == "ok"
    assert document["backend"] == "minirel"


def test_unknown_path_is_404(client):
    status, _, payload = client.request("GET", "/nope")
    assert status == 404
    assert _error(payload)["type"] == "not-found"


# ------------------------------------------------------------ typed errors


def test_malformed_query_is_400_with_cli_exit_code(client):
    status, _, payload = client.get_query("SELECT WHERE {")
    assert status == 400
    error = _error(payload)
    assert error["type"] == "syntax"
    assert error["exit_code"] == EXIT_SYNTAX


def test_missing_query_parameter_is_400(client):
    status, _, payload = client.request("GET", "/sparql")
    assert status == 400
    assert _error(payload)["exit_code"] == EXIT_SYNTAX


def test_timeout_is_408_with_cli_exit_code(client):
    status, _, payload = client.get_query(CROSS_JOIN, timeout="0.000001")
    assert status == 408
    error = _error(payload)
    assert error["type"] == "timeout"
    assert error["exit_code"] == EXIT_TIMEOUT


def test_budget_trip_is_413_with_cli_exit_code(client):
    status, _, payload = client.get_query(INDUSTRIES, **{"max-rows": "1"})
    assert status == 413
    error = _error(payload)
    assert error["type"] == "budget"
    assert error["exit_code"] == EXIT_BUDGET


def test_update_on_query_endpoint_is_405(client):
    body = urllib.parse.urlencode(
        {"update": "INSERT DATA { <X> <fresh_pred> <Y> }"}
    )
    status, _, payload = client.request(
        "POST",
        "/sparql",
        body=body,
        headers={"Content-Type": "application/x-www-form-urlencoded"},
    )
    assert status == 405
    assert _error(payload)["type"] == "method"
    status, _, payload = client.request(
        "POST",
        "/sparql",
        body="INSERT DATA { <X> <fresh_pred> <Y> }",
        headers={"Content-Type": "application/sparql-update"},
    )
    assert status == 405


def test_query_on_update_endpoint_is_405(client):
    status, _, payload = client.request(
        "POST",
        "/update",
        body=urllib.parse.urlencode({"query": INDUSTRIES}),
        headers={"Content-Type": "application/x-www-form-urlencoded"},
    )
    assert status == 405
    status, _, _ = client.request("GET", "/update")
    assert status == 405


def test_malformed_request_line_is_400():
    # below the HttpRequest layer: raw bytes straight at the socket
    import socket

    store = RdfStore.from_graph(figure1_graph())
    server, thread = _serve(store)
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as s:
            s.sendall(b"NONSENSE\r\n\r\n")
            response = s.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]
    finally:
        server.shutdown()
        thread.join(10)


# ------------------------------------------------------------ backpressure


def test_overload_sheds_with_503():
    store = RdfStore.from_graph(figure1_graph())
    server, thread = _serve(store, max_concurrent=0)
    try:
        client = Client(server.port)
        status, headers, payload = client.get_query(INDUSTRIES)
        assert status == 503
        assert _error(payload)["type"] == "overloaded"
        assert "Retry-After" in headers
    finally:
        server.shutdown()
        thread.join(10)


# ------------------------------------------------------ graceful shutdown


class _GatedBackend(MiniRelBackend):
    """Holds query execution at a gate so the test controls in-flight."""

    def __init__(self) -> None:
        super().__init__()
        self.gate_queries = False
        self.started = threading.Event()
        self.release = threading.Event()

    def execute(self, statement, **kwargs):
        if self.gate_queries:
            self.started.set()
            assert self.release.wait(10), "test never released the gate"
        return super().execute(statement, **kwargs)


def test_health_reports_wal_and_draining(tmp_path):
    store = RdfStore.from_graph(figure1_graph(),
                                wal_path=tmp_path / "j.wal")
    server, thread = _serve(store)
    try:
        client = Client(server.port)
        status, _, payload = client.request(
            "POST", "/update",
            body="INSERT DATA { <a> <p> <b> }",
            headers={"Content-Type": "application/sparql-update"},
        )
        assert status == 200
        _, _, payload = client.request("GET", "/health")
        document = json.loads(payload)
        assert document["draining"] is False
        assert document["wal"]["last_txn"] == 1
        assert document["wal"]["records_dropped"] == 0
    finally:
        server.shutdown()
        thread.join(10)


def test_shutdown_drains_inflight_and_flushes_the_journal(tmp_path):
    """The drain contract: a request already executing when shutdown
    arrives still gets its 200; afterwards the listener is gone and the
    journal is flushed and checksum-clean."""
    backend = _GatedBackend()
    wal_path = tmp_path / "j.wal"
    store = RdfStore.from_graph(figure1_graph(), backend=backend,
                                wal_path=wal_path)
    server, thread = _serve(store, drain_timeout=10.0)
    client = Client(server.port)
    status, _, _ = client.request(
        "POST", "/update",
        body="INSERT DATA { <a> <p> <b> }",
        headers={"Content-Type": "application/sparql-update"},
    )
    assert status == 200

    backend.gate_queries = True
    results: list[tuple] = []

    def inflight():
        results.append(client.get_query(INDUSTRIES))

    requester = threading.Thread(target=inflight)
    requester.start()
    try:
        assert backend.started.wait(10), "request never reached the backend"
        server.shutdown()  # drain begins with one request in flight
    finally:
        backend.release.set()
    requester.join(10)
    thread.join(10)
    assert not thread.is_alive()

    (status, _, payload), = results
    assert status == 200  # the in-flight request was drained, not dropped
    assert json.loads(payload)["results"]["bindings"]

    with pytest.raises(ConnectionRefusedError):
        client.request("GET", "/health")

    status = inspect_wal(wal_path)
    assert status.ok
    assert status.last_txn == 1


def test_sigterm_exits_zero(tmp_path):
    """End-to-end: a real ``repro serve`` process receiving SIGTERM
    drains and exits 0 (the contract init systems rely on)."""
    data = tmp_path / "data.nt"
    data.write_text("<http://e/a> <http://e/p> <http://e/b> .\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(data),
         "--port", "0", "--wal", str(tmp_path / "j.wal")],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        for announce in proc.stderr:  # banner lines, then the bind notice
            if "serving SPARQL" in announce:
                break
        else:  # pragma: no cover - server died before binding
            pytest.fail("server exited before announcing its port")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        proc.stderr.close()
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()
