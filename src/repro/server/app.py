"""The SPARQL 1.1 Protocol endpoint: an asyncio HTTP server over a store.

One event loop accepts connections and parses requests; query evaluation
runs on a thread pool, each request inside its own
:meth:`~repro.core.store.RdfStore.snapshot` — so a long SELECT never sees a
concurrent commit half-applied, and updates (serialized by the store's
writer lock) never wait for readers. Routes follow the protocol spec:

- ``GET /sparql?query=…`` and ``POST /sparql`` — query operations, result
  format chosen from the ``Accept`` header (JSON / CSV / TSV);
- ``POST /update`` — update operations (an update sent to the query
  endpoint is a 405, and vice versa);
- ``GET /health`` — liveness plus store/cache counters.

Failures map to typed JSON bodies carrying the same classification as the
CLI's exit codes (syntax → 400/2, timeout → 408/3, budget → 413/4,
journal → 500/5), so scripted clients of either surface share one error
vocabulary. When ``max_concurrent`` requests are already in flight the
server sheds load with a 503 + ``Retry-After`` instead of queueing without
bound.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any

from ..cli import EXIT_BUDGET, EXIT_SYNTAX, EXIT_TIMEOUT, EXIT_WAL
from ..core.resilience import BudgetExceededError
from ..relational.errors import QueryTimeout
from ..sparql.parser import SparqlSyntaxError
from ..sparql.results import (
    CONTENT_TYPES,
    negotiate_format,
    serialize_ask,
    serialize_select,
)
from ..update.errors import WalError
from .http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    read_request,
    render_response,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.store import RdfStore

#: recognizes an ASK operation (skipping comments and the prologue) so the
#: endpoint can answer with the boolean document instead of bindings
_ASK_RE = re.compile(
    r"^\s*(?:(?:#[^\n]*\n|\s)*(?:PREFIX\s+[^>]*>|BASE\s+<[^>]*>))*"
    r"(?:#[^\n]*\n|\s)*ASK\b",
    re.IGNORECASE,
)

_UPDATE_CONTENT = "application/sparql-update"
_QUERY_CONTENT = "application/sparql-query"
_FORM_CONTENT = "application/x-www-form-urlencoded"


def _error_body(kind: str, message: str, exit_code: int | None = None) -> str:
    error: dict[str, Any] = {"type": kind, "message": message}
    if exit_code is not None:
        error["exit_code"] = exit_code
    return json.dumps({"error": error})


def _map_exception(exc: Exception) -> HttpResponse:
    """Typed failure → (status, body) with CLI exit-code parity."""
    if isinstance(exc, BudgetExceededError):
        return HttpResponse.text(413, _error_body("budget", str(exc), EXIT_BUDGET))
    if isinstance(exc, QueryTimeout):
        return HttpResponse.text(408, _error_body("timeout", str(exc), EXIT_TIMEOUT))
    if isinstance(exc, WalError):
        return HttpResponse.text(500, _error_body("wal", str(exc), EXIT_WAL))
    if isinstance(exc, SparqlSyntaxError):
        return HttpResponse.text(400, _error_body("syntax", str(exc), EXIT_SYNTAX))
    return HttpResponse.text(500, _error_body("internal", str(exc)))


def _first(params: dict[str, list[str]], name: str) -> str | None:
    values = params.get(name)
    return values[0] if values else None


class SparqlServer:
    """A SPARQL 1.1 Protocol server bound to one :class:`RdfStore`.

    Drive it either from an existing event loop (``await start()`` then
    ``await serve_forever()``) or from a dedicated thread via :meth:`run`,
    which owns a private loop until :meth:`shutdown` (thread-safe) stops
    it. ``port=0`` binds an ephemeral port, published as ``self.port``
    once the listener is up.
    """

    def __init__(
        self,
        store: "RdfStore",
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrent: int = 8,
        workers: int | None = None,
        default_timeout: float | None = None,
        default_max_rows: int | None = None,
        drain_timeout: float = 10.0,
    ) -> None:
        self.store = store
        self.host = host
        self.port = port
        self.max_concurrent = max_concurrent
        self.default_timeout = default_timeout
        self.default_max_rows = default_max_rows
        self.drain_timeout = drain_timeout
        self._draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=workers or max(2, max_concurrent),
            thread_name_prefix="sparql-worker",
        )
        self._active = 0  # event-loop-confined; no lock needed
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind the listener (resolving ``port=0`` to the real port)."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` is called."""
        assert self._stopping is not None, "call start() first"
        await self._stopping.wait()
        await self.close()

    def run(
        self,
        ready: threading.Event | None = None,
        install_signals: bool = False,
    ) -> None:
        """Blocking entry point: own loop, serve until :meth:`shutdown`.

        ``ready`` (if given) is set once the port is bound — the test
        fixture's cue that requests will connect. With ``install_signals``
        SIGTERM and SIGINT trigger the same graceful drain as
        :meth:`shutdown`: stop accepting, finish in-flight requests up to
        ``drain_timeout`` seconds, flush the journal, return normally."""
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(self.start())
            if install_signals:
                self._install_signal_handlers(loop)
            if ready is not None:
                ready.set()
            loop.run_until_complete(self.serve_forever())
        finally:
            loop.close()

    def _install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.shutdown)
            except (NotImplementedError, ValueError, RuntimeError):
                # Non-main thread or platform without loop signal support:
                # fall back to the classic handler where possible.
                try:
                    signal.signal(signum, lambda *_: self.shutdown())
                except ValueError:  # pragma: no cover - non-main thread
                    pass

    def shutdown(self) -> None:
        """Request shutdown from any thread (idempotent)."""
        loop, stopping = self._loop, self._stopping
        if loop is None or stopping is None:
            return
        loop.call_soon_threadsafe(stopping.set)

    async def close(self) -> None:
        """Graceful teardown: stop accepting, drain, flush the journal."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = asyncio.get_running_loop().time() + self.drain_timeout
        while self._active > 0 and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.02)
        self._executor.shutdown(wait=False)
        try:
            self.store.flush_wal()
        except OSError:  # pragma: no cover - flush is best-effort at exit
            pass

    # --------------------------------------------------------- connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    body = _error_body("http", str(exc))
                    response = HttpResponse.text(exc.status, body)
                    writer.write(render_response(response, keep_alive=False))
                    await writer.drain()
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                # A draining server answers the in-flight request but ends
                # the connection so keep-alive clients cannot pin the drain.
                keep_alive = request.keep_alive and not self._draining
                writer.write(render_response(response, keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except ConnectionError:  # peer vanished mid-write
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    # ----------------------------------------------------------- dispatch

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        if request.path == "/health":
            return self._health(request)
        if request.path == "/sparql":
            return await self._handle_query(request)
        if request.path == "/update":
            return await self._handle_update(request)
        return HttpResponse.text(
            404, _error_body("not-found", f"no route for {request.path}")
        )

    def _health(self, request: HttpRequest) -> HttpResponse:
        if request.method != "GET":
            return HttpResponse.text(
                405, _error_body("method", "health endpoint is GET-only")
            )
        cache = self.store.cache_info()
        payload = {
            "status": "draining" if self._draining else "ok",
            "backend": getattr(self.store.backend, "name", "unknown"),
            "epoch": self.store.stats.epoch,
            "in_flight": self._active,
            "draining": self._draining,
            "plan_cache": {"hits": cache.hits, "misses": cache.misses},
            "wal": self.store.wal_summary(),
        }
        return HttpResponse.text(200, json.dumps(payload))

    # ------------------------------------------------------------ queries

    def _extract_query(self, request: HttpRequest) -> str:
        """Per the protocol: GET ?query= or POST (direct / urlencoded)."""
        content_type = (request.header("content-type") or "").split(";")[0].strip()
        if request.method == "GET":
            text = _first(request.params, "query")
            if text is None:
                raise HttpError(400, "missing required 'query' parameter")
            if _first(request.params, "update") is not None:
                raise HttpError(405, "updates must go to the /update endpoint")
            return text
        if request.method != "POST":
            raise HttpError(405, "query endpoint accepts GET and POST")
        if content_type == _UPDATE_CONTENT:
            raise HttpError(405, "updates must go to the /update endpoint")
        if content_type == _QUERY_CONTENT:
            return request.body.decode("utf-8", "replace")
        if content_type == _FORM_CONTENT or not content_type:
            form = request.form()
            if _first(form, "update") is not None:
                raise HttpError(405, "updates must go to the /update endpoint")
            text = _first(form, "query") or _first(request.params, "query")
            if text is None:
                raise HttpError(400, "missing required 'query' parameter")
            return text
        raise HttpError(400, f"unsupported query content type {content_type!r}")

    def _request_limits(
        self, request: HttpRequest
    ) -> tuple[float | None, int | None]:
        timeout = self.default_timeout
        max_rows = self.default_max_rows
        raw_timeout = _first(request.params, "timeout")
        if raw_timeout is not None:
            try:
                timeout = float(raw_timeout)
            except ValueError as exc:
                raise HttpError(400, "malformed 'timeout' parameter") from exc
        raw_rows = _first(request.params, "max-rows")
        if raw_rows is not None:
            try:
                max_rows = int(raw_rows)
            except ValueError as exc:
                raise HttpError(400, "malformed 'max-rows' parameter") from exc
        return timeout, max_rows

    async def _handle_query(self, request: HttpRequest) -> HttpResponse:
        try:
            sparql = self._extract_query(request)
            timeout, max_rows = self._request_limits(request)
        except HttpError as exc:
            kind = "method" if exc.status == 405 else "syntax"
            code = EXIT_SYNTAX if exc.status == 400 else None
            return HttpResponse.text(exc.status, _error_body(kind, str(exc), code))
        fmt = negotiate_format(request.header("accept"))
        if fmt is None:
            return HttpResponse.text(
                406,
                _error_body(
                    "not-acceptable",
                    "supported result types: " + ", ".join(CONTENT_TYPES.values()),
                ),
            )
        if self._active >= self.max_concurrent:
            response = HttpResponse.text(
                503,
                _error_body(
                    "overloaded", f"{self.max_concurrent} requests already in flight"
                ),
            )
            response.headers["retry-after"] = "1"
            return response
        self._active += 1
        try:
            loop = asyncio.get_running_loop()
            body = await loop.run_in_executor(
                self._executor, self._run_query, sparql, fmt, timeout, max_rows
            )
        except Exception as exc:  # typed mapping; unexpected → 500
            return _map_exception(exc)
        finally:
            self._active -= 1
        return HttpResponse.text(200, body, CONTENT_TYPES[fmt])

    def _run_query(
        self, sparql: str, fmt: str, timeout: float | None, max_rows: int | None
    ) -> str:
        """Worker-thread body: snapshot, evaluate, serialize."""
        with self.store.snapshot() as snap:
            result = snap.query(sparql, timeout=timeout, max_rows=max_rows)
        if _ASK_RE.match(sparql):
            return serialize_ask(len(result) > 0, fmt)
        return serialize_select(result, fmt)

    # ------------------------------------------------------------ updates

    def _extract_update(self, request: HttpRequest) -> str:
        if request.method != "POST":
            raise HttpError(405, "update endpoint is POST-only")
        content_type = (request.header("content-type") or "").split(";")[0].strip()
        if content_type == _UPDATE_CONTENT:
            return request.body.decode("utf-8", "replace")
        if content_type == _FORM_CONTENT or not content_type:
            form = request.form()
            if _first(form, "query") is not None:
                raise HttpError(405, "queries must go to the /sparql endpoint")
            text = _first(form, "update")
            if text is None:
                raise HttpError(400, "missing required 'update' parameter")
            return text
        if content_type == _QUERY_CONTENT:
            raise HttpError(405, "queries must go to the /sparql endpoint")
        raise HttpError(400, f"unsupported update content type {content_type!r}")

    async def _handle_update(self, request: HttpRequest) -> HttpResponse:
        try:
            sparql = self._extract_update(request)
        except HttpError as exc:
            kind = "method" if exc.status == 405 else "syntax"
            code = EXIT_SYNTAX if exc.status == 400 else None
            return HttpResponse.text(exc.status, _error_body(kind, str(exc), code))
        if self._active >= self.max_concurrent:
            response = HttpResponse.text(
                503,
                _error_body(
                    "overloaded", f"{self.max_concurrent} requests already in flight"
                ),
            )
            response.headers["retry-after"] = "1"
            return response
        self._active += 1
        try:
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                self._executor, self.store.update, sparql
            )
        except Exception as exc:
            return _map_exception(exc)
        finally:
            self._active -= 1
        payload = {
            "inserted": result.inserted,
            "deleted": result.deleted,
            "operations": result.operations,
        }
        return HttpResponse.text(200, json.dumps(payload))
