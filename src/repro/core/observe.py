"""Query-pipeline observability: hierarchical spans, counters, sinks.

The paper argues its layout + optimizer produce *better plans*; this module
makes that claim inspectable. A :class:`Tracer` collects one query's work as
a tree of :class:`Span` objects — monotonic (``perf_counter``) timings plus
free-form counters — threaded through compile (parse → dataflow → planbuild
→ merge → translate), the plan cache, and execution (per-operator
rows-in/rows-out in the minirel planner, rowcounts + ``EXPLAIN QUERY PLAN``
on sqlite).

Design constraints:

* **One pipeline, traced or not.** Each entry point taking ``tracer=None``
  swaps in the shared no-op :data:`NO_TRACE` (via :func:`traced`) and runs
  the same body; its metering wrappers hand iterators back unwrapped, so
  an untraced query builds no :class:`Span`.
* **No upward imports.** The relational substrate never imports this
  module: it receives a :class:`Span` (or ``None``) and uses it through
  duck typing (``child`` / ``inc`` / ``set`` / ``meter_batches`` /
  ``count_batches``). :data:`NO_TRACE` lives there and is re-exported here.
* **Pluggable sinks.** A sink is any callable taking the finished root
  span; :meth:`Tracer.finish` fans the tree out to every registered sink
  (log it, ship it, aggregate it — the tracer does not care).
  :func:`run_profiled` delivers a profiled store call's trace even when
  the call raises.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, TypeVar

from ..relational.executor import NO_TRACE, traced  # noqa: F401  (re-exported)

Sink = Callable[["Span"], None]
R = TypeVar("R")


class Span:
    """One named unit of work: cumulative seconds, counters, children.

    Timing is *inclusive* (a span's seconds cover its children) and
    cumulative: re-entering a span — e.g. an operator iterator that is
    re-created per outer row — accumulates into the same totals.
    """

    __slots__ = ("name", "attrs", "children", "seconds", "_started")

    def __init__(self, name: str, attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.seconds = 0.0
        self._started: float | None = None

    # ------------------------------------------------------------- building

    def child(self, name: str, **attrs: Any) -> "Span":
        """Create and attach a child span."""
        span = Span(name, attrs)
        self.children.append(span)
        return span

    def inc(self, key: str, delta: int = 1) -> None:
        """Increment a counter attribute."""
        self.attrs[key] = self.attrs.get(key, 0) + delta

    def set(self, key: str, value: Any) -> None:
        """Set an attribute."""
        self.attrs[key] = value

    # -------------------------------------------------------------- timing

    def __enter__(self) -> "Span":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._started is not None:
            self.seconds += perf_counter() - self._started
            self._started = None

    # ------------------------------------------------------------ metering

    def meter_batches(self, chunks: Iterable, key: str = "rows_out") -> Iterator:
        """Wrap a chunk iterator (each item a list of rows): count logical
        rows into ``key`` — so traces are batch-size independent — and
        accumulate the inclusive time spent producing them (time inside
        ``next()``, i.e. this operator plus its inputs, excluding the
        consumer)."""
        def metered() -> Iterator:
            iterator = iter(chunks)
            produced = 0
            elapsed = 0.0
            try:
                while True:
                    started = perf_counter()
                    try:
                        chunk = next(iterator)
                    except StopIteration:
                        elapsed += perf_counter() - started
                        return
                    elapsed += perf_counter() - started
                    produced += len(chunk)
                    yield chunk
            finally:
                self.inc(key, produced)
                self.seconds += elapsed

        return metered()

    def count_batches(self, chunks: Iterable, key: str) -> Iterator:
        """Wrap a chunk iterator counting logical rows into ``key``, no
        timing — used for operator *inputs* (rows-in)."""
        def counted() -> Iterator:
            produced = 0
            try:
                for chunk in chunks:
                    produced += len(chunk)
                    yield chunk
            finally:
                self.inc(key, produced)

        return counted()

    # ----------------------------------------------------------- traversal

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Depth-first (depth, span) pairs, self included."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, name: str) -> "Span | None":
        """First span (depth-first) whose name equals or starts with
        ``name`` — a convenience for tests and sinks."""
        for _, span in self.walk():
            if span.name == name or span.name.startswith(name + " "):
                return span
        return None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready tree (used by benchmark output and the runner)."""
        node: dict[str, Any] = {"name": self.name, "seconds": self.seconds}
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.children:
            node["children"] = [c.to_dict() for c in self.children]
        return node

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, seconds={self.seconds:.6f}, "
            f"attrs={self.attrs}, children={len(self.children)})"
        )


class Tracer:
    """Collects one query's span tree and fans it out to sinks.

    ``span()`` is the structured entry point: it opens a child of the
    innermost open span, so sequential ``with`` blocks become siblings and
    nested blocks become subtrees. Layers that build spans lazily (the
    minirel planner) instead receive a parent :class:`Span` directly.
    """

    def __init__(self, name: str = "query", sinks: Iterable[Sink] = ()) -> None:
        self.root = Span(name)
        self.sinks: list[Sink] = list(sinks)
        self._stack: list[Span] = [self.root]

    @property
    def current(self) -> Span:
        """The innermost open span (new work attaches here)."""
        return self._stack[-1]

    def span(self, name: str, **attrs: Any) -> "_OpenSpan":
        """Open a timed child span of the current span (context manager)."""
        return _OpenSpan(self, self.current.child(name, **attrs))

    def add_sink(self, sink: Sink) -> None:
        self.sinks.append(sink)

    def finish(self) -> Span:
        """Close the trace and deliver the root span to every sink."""
        for sink in self.sinks:
            sink(self.root)
        return self.root


def run_profiled(
    run: Callable[[Tracer | None], R],
    profile: bool,
    name: str,
    sinks: Iterable[Sink],
) -> R:
    """``run(None)``, or with ``profile`` ``run(tracer)`` under a fresh
    tracer named ``name``. The trace reaches ``sinks`` even when ``run``
    raises (the error still propagates); on success it is attached as
    ``result.profile``."""
    if not profile:
        return run(None)
    tracer = Tracer(name, sinks)
    try:
        with tracer.root:
            result = run(tracer)
    finally:
        tracer.finish()
    result.profile = tracer.root
    return result


class _OpenSpan:
    """Context manager pairing a span's timing with the tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span.__enter__()

    def __exit__(self, *exc: Any) -> None:
        self._span.__exit__(*exc)
        self._tracer._stack.pop()


# ------------------------------------------------------------------ rendering


def summarize_operators(root: Span) -> list[dict[str, Any]]:
    """Flatten a trace into per-operator rows for tables and JSON output.

    An *operator* is any span carrying a ``rows_out`` or ``rows_in*``
    counter (scans, joins, filters, aggregates, set ops, backend executes).
    """
    operators: list[dict[str, Any]] = []
    for depth, span in root.walk():
        row_keys = [k for k in span.attrs if k.startswith(("rows_in", "rows_out"))]
        if not row_keys:
            continue
        entry: dict[str, Any] = {
            "operator": span.name,
            "depth": depth,
            "seconds": span.seconds,
        }
        rows_in = sum(
            v for k, v in span.attrs.items()
            if k.startswith("rows_in") and isinstance(v, (int, float))
        )
        if any(k.startswith("rows_in") for k in row_keys):
            entry["rows_in"] = rows_in
        if "rows_out" in span.attrs:
            entry["rows_out"] = span.attrs["rows_out"]
        operators.append(entry)
    return operators


def _format_attrs(attrs: dict[str, Any]) -> str:
    parts = []
    for key, value in attrs.items():
        if isinstance(value, (list, tuple)):
            continue  # multi-line payloads render as their own lines
        parts.append(f"{key}={value}")
    return " ".join(parts)


def render_profile(root: Span) -> str:
    """Render a span tree as an indented text profile.

    Times are inclusive (a parent covers its children); operator spans show
    their rows-in/rows-out counters inline; list-valued attributes (e.g.
    sqlite's ``EXPLAIN QUERY PLAN`` lines) render as indented sub-lines.
    """
    lines: list[str] = []
    for depth, span in root.walk():
        indent = "  " * depth
        label = f"{indent}{span.name}"
        attr_text = _format_attrs(span.attrs)
        if attr_text:
            label += f"  [{attr_text}]"
        lines.append(f"{label:<64} {span.seconds * 1000:9.3f} ms")
        for key, value in span.attrs.items():
            if isinstance(value, (list, tuple)):
                for item in value:
                    lines.append(f"{indent}  | {item}")
    return "\n".join(lines)
