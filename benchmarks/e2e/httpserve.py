"""A ``python -m repro serve`` subprocess and the HTTP client that loads it.

The server binds an ephemeral port (``--port 0``) and announces it on
stderr; a reader thread turns that into a bounded wait, so a server that
dies or never announces fails the run instead of hanging it. ``stop()``
sends SIGTERM to exactly the process started here and waits for it.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.parse

_PORT_RE = re.compile(r"serving SPARQL on http://[^:\s]+:(\d+)/sparql")
JSON_RESULTS = "application/sparql-results+json"


class ServerError(RuntimeError):
    """The server subprocess did not come up, or did not exit cleanly."""


class ServerProcess:
    """One ``repro serve`` over an N-Triples file with a flush-level WAL."""

    def __init__(self, src_dir: str, nt_path: str, wal_dir: str,
                 ready_timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", nt_path, "--port", "0",
             "--wal", wal_dir],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=env)
        self._lines: queue.Queue[str | None] = queue.Queue()
        self.stderr_tail: list[str] = []
        self._reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port(ready_timeout)
        except BaseException:
            self.stop(graceful=False)
            raise

    def _drain_stderr(self) -> None:
        # Keeps draining after the announcement so the pipe never fills.
        for line in self.proc.stderr:
            self.stderr_tail = (self.stderr_tail + [line.rstrip()])[-20:]
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerError(f"server not ready within {timeout:.0f} s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise ServerError(
                    "server exited before announcing its port: "
                    + " | ".join(self.stderr_tail))
            match = _PORT_RE.search(line)
            if match:
                return int(match.group(1))

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self, graceful: bool = True, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain, flushes the WAL) and wait; escalate to
        SIGKILL only if the drain overruns. Returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)
        self._reader.join(5)
        self.proc.stderr.close()
        return self.proc.returncode


class Client:
    """One keep-alive connection issuing protocol requests."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.rejected = 0  # 503 responses seen

    def close(self) -> None:
        self.connection.close()

    def _roundtrip(self, method: str, target: str, body=None, headers=None):
        """(status, body bytes, seconds from request to full body read)."""
        started = time.perf_counter()
        self.connection.request(method, target, body=body, headers=headers or {})
        response = self.connection.getresponse()
        payload = response.read()
        elapsed = time.perf_counter() - started
        if response.status == 503:
            self.rejected += 1
        return response.status, payload, elapsed

    def query(self, text: str):
        target = "/sparql?" + urllib.parse.urlencode({"query": text})
        return self._roundtrip("GET", target, headers={"Accept": JSON_RESULTS})

    def update(self, text: str):
        return self._roundtrip(
            "POST", "/update", body=text.encode(),
            headers={"Content-Type": "application/sparql-update"})

    def health(self):
        return self._roundtrip("GET", "/health")


def result_rows(payload: bytes) -> int:
    """Row count of a SPARQL JSON results document (ASK: 1 or 0)."""
    document = json.loads(payload)
    if "boolean" in document:
        return int(document["boolean"])
    return len(document["results"]["bindings"])
