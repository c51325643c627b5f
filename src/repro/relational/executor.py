"""Row-level execution pieces: the no-op trace and budget, aggregation,
fallback join.

The chunked operators the planner composes live in :mod:`batch`; every one
that can loop unboundedly ticks the query's budget (duck-typed,
``repro.core.resilience.Budget``, or :data:`NO_BUDGET`) so long queries
abort cooperatively, which is how the benchmark harness reproduces the
paper's timeout classification.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from .dictionary import EncodedString
from .expressions import Evaluator

Row = tuple


class _NoTrace:
    """The untraced span: ``repro.core.observe.Span``'s surface (plus an
    untraced ``Tracer.span``) recording nothing, so every traced layer runs
    one body with this in place of its span."""

    __slots__ = ()

    def child(self, name: str, **attrs: Any) -> "_NoTrace":
        return self

    span = child

    def __enter__(self) -> "_NoTrace":
        return self

    def _ignore(self, *args: Any) -> None:
        pass

    set = inc = __exit__ = _ignore

    def meter_batches(self, chunks: Iterable, key: str = "rows_out") -> Iterable:
        return chunks

    count_batches = meter_batches


NO_TRACE = _NoTrace()


def traced(trace: Any) -> Any:
    """``trace``, or :data:`NO_TRACE` for ``None``: how each entry point
    taking ``tracer=None`` / ``trace=None`` normalises it, once."""
    return NO_TRACE if trace is None else trace


class _NoBudget:
    """The unguarded budget: ``repro.core.resilience.Budget``'s operator
    surface counting nothing, so every operator ticks one body whether or
    not the query carries limits."""

    __slots__ = ()

    def tick_batch(self, count: int = 1) -> None:
        pass

    tick = tick_batch


NO_BUDGET = _NoBudget()


def guarded(budget: Any) -> Any:
    """``budget``, or :data:`NO_BUDGET` for ``None``: how each entry point
    taking ``budget=None`` normalises it, once."""
    return NO_BUDGET if budget is None else budget


def nested_loop_join(
    left_rows: Iterable[Row],
    right_rows_factory: Callable[[], Iterable[Row]],
    right_width: int,
    condition: Evaluator | None,
    outer: bool,
    budget: Any,
) -> Iterator[Row]:
    """Fallback join for non-equi conditions; right side re-iterated per row."""
    materialized_right: list[Row] | None = None
    null_pad = (None,) * right_width
    for left_row in left_rows:
        budget.tick()
        if materialized_right is None:
            materialized_right = list(right_rows_factory())
        matched = False
        for right_row in materialized_right:
            budget.tick()
            combined = left_row + right_row
            if condition is None or condition(combined) is True:
                matched = True
                yield combined
        if outer and not matched:
            yield left_row + null_pad


class AggregateState:
    """Accumulator for one aggregate call within one group."""

    __slots__ = ("func", "distinct", "count", "total", "minimum", "maximum", "seen")

    def __init__(self, func: str, distinct: bool) -> None:
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None
        self.seen: set | None = set() if distinct else None

    def add(self, value: Any) -> None:
        if self.func == "COUNT" and value is _COUNT_STAR:
            self.count += 1
            return
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.func in ("SUM", "AVG"):
            if isinstance(value, EncodedString):
                value = value.lexicon[value]
            numeric = float(value) if not isinstance(value, (int, float)) else value
            self.total = numeric if self.total is None else self.total + numeric
        elif self.func == "MIN":
            from .types import compare

            if self.minimum is None or compare(value, self.minimum) == -1:
                self.minimum = value
        elif self.func == "MAX":
            from .types import compare

            if self.maximum is None or compare(value, self.maximum) == 1:
                self.maximum = value

    def result(self) -> Any:
        if self.func == "COUNT":
            return self.count
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return None if self.total is None else self.total / self.count
        if self.func == "MIN":
            return self.minimum
        if self.func == "MAX":
            return self.maximum
        raise AssertionError(f"unknown aggregate {self.func}")


class _CountStar:
    """Sentinel passed to COUNT(*) accumulators."""


_COUNT_STAR = _CountStar()


def count_star_sentinel() -> Any:
    return _COUNT_STAR
