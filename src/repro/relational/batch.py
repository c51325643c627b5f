"""Vectorized execution: operators over fixed-size row batches.

Operators stream *chunks* (lists of up to :data:`CHUNK_SIZE` row tuples)
instead of single rows, so per-row interpreter work collapses into slice
copies, list comprehensions, and ``map(itemgetter(...), ...)`` — all of
which run inside the interpreter's C loops.

Two kinds of building blocks live here:

* **Batch operators** (``seq_scan_batches``, ``filter_batches``, the
  joins): generator functions over chunk iterators. Guardrails move to
  per-chunk ``budget.tick_batch(len(chunk))`` calls, which count *logical
  rows*, so row budgets and deadlines do not depend on the chunk size.
* **Kernel compilers** (``compile_filter_kernel``,
  ``compile_projection_kernel``): translate a restricted but hot subset of
  expression ASTs — conjunctions/disjunctions of equalities over columns,
  constants, and COALESCE chains, NULL tests, COALESCE projections — into
  a single compiled comprehension, eliminating the per-row closure tree.
  Anything outside the subset returns ``None`` and the caller falls back
  to evaluating the compiled row-wise expression per row *within* the batch,
  so semantics never depend on kernel coverage.

Kernel equality uses Python ``==`` where it provably agrees with SQL ``=``
under WHERE semantics (unknown drops the row): constants are non-NULL by
construction, NULL operands are guarded with ``is not None``, and
dictionary-encoded text is kept distinct from plain ints via ``isinstance``
checks that only run on candidate matches. ``NOT`` is deliberately outside
the subset — negation is where two-valued shortcuts and three-valued logic
part ways.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from . import ast
from .dictionary import EncodedString, StringDictionary
from .errors import PlanError
from .executor import nested_loop_join
from .expressions import Evaluator, Scope
from .index import HashIndex
from .table import Table
from .types import ColumnType

Row = tuple
Chunk = list  # list[Row]
Chunks = Iterator[Chunk]

FilterKernel = Callable[[Chunk], Chunk]
ProjectionKernel = Callable[[list], list]

#: rows per chunk; read at call time, so tests can monkeypatch it to hit
#: chunk-boundary cases (results and tick counts never depend on it)
CHUNK_SIZE = 256


def flatten(chunks: Iterable[Chunk]) -> Iterator[Row]:
    """Stream the rows of a chunk iterator (C-speed chain)."""
    return chain.from_iterable(chunks)


def chunked(rows: Iterable[Row]) -> Chunks:
    """Re-batch a row iterator into chunks of up to :data:`CHUNK_SIZE`."""
    size = CHUNK_SIZE
    chunk: Chunk = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def chunk_list(rows: list) -> Chunks:
    """Slice a materialized row list into chunks (CTE / subquery scans)."""
    size = CHUNK_SIZE
    for start in range(0, len(rows), size):
        yield rows[start:start + size]


# ---------------------------------------------------------------- operators


def seq_scan_batches(table: Table, budget: Any, version: int | None) -> Chunks:
    batches = (
        table.scan_batches(CHUNK_SIZE)
        if version is None
        else chunked(table.scan_at(version))
    )
    tick = budget.tick_batch
    for chunk in batches:
        tick(len(chunk))
        yield chunk


def index_scan_batches(
    index: HashIndex, key: tuple, budget: Any, version: int | None
) -> Chunks:
    for chunk in chunked(index.lookup(key, version)):
        budget.tick_batch(len(chunk))
        yield chunk


def filter_batches(
    chunks: Chunks,
    kernel: FilterKernel | None,
    condition: Evaluator | None,
    budget: Any,
) -> Chunks:
    """Filter whole chunks; compiled kernel when available, else the scalar
    condition applied inside a comprehension (exact three-valued logic)."""
    tick = budget.tick_batch
    if kernel is not None:
        for chunk in chunks:
            tick(len(chunk))
            kept = kernel(chunk)
            if kept:
                yield kept
        return
    assert condition is not None
    for chunk in chunks:
        tick(len(chunk))
        kept = [row for row in chunk if condition(row) is True]
        if kept:
            yield kept


def hash_join_batches(
    left_chunks: Chunks,
    right_chunks: Chunks,
    left_slots: list[int],
    right_slots: list[int],
    right_width: int,
    residual: Evaluator | None,
    outer: bool,
    budget: Any,
) -> Chunks:
    """Batched equi hash join (LEFT OUTER when ``outer``); NULL keys never
    match (SQL equality is unknown on NULL)."""
    tick = budget.tick_batch
    buckets: dict[Any, list[Row]] = {}
    if len(right_slots) == 1:
        slot = right_slots[0]
        for chunk in right_chunks:
            tick(len(chunk))
            for row in chunk:
                key = row[slot]
                if key is not None:
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [row]
                    else:
                        bucket.append(row)
    else:
        for chunk in right_chunks:
            tick(len(chunk))
            for row in chunk:
                key = tuple(row[s] for s in right_slots)
                if not any(value is None for value in key):
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [row]
                    else:
                        bucket.append(row)

    null_pad = (None,) * right_width
    get = buckets.get
    single = left_slots[0] if len(left_slots) == 1 else None
    for chunk in left_chunks:
        tick(len(chunk))
        out: Chunk = []
        for left_row in chunk:
            if single is not None:
                key = left_row[single]
                bucket = get(key) if key is not None else None
            else:
                key = tuple(left_row[s] for s in left_slots)
                bucket = (
                    get(key)
                    if not any(value is None for value in key)
                    else None
                )
            matched = False
            if bucket:
                if residual is None:
                    out.extend(left_row + right_row for right_row in bucket)
                    matched = True
                else:
                    for right_row in bucket:
                        combined = left_row + right_row
                        if residual(combined) is True:
                            matched = True
                            out.append(combined)
            if outer and not matched:
                out.append(left_row + null_pad)
        if out:
            tick(len(out))
            yield out


def index_join_batches(
    left_chunks: Chunks,
    index: HashIndex,
    left_slot: int,
    right_width: int,
    right_filter: Evaluator | None,
    residual: Evaluator | None,
    outer: bool,
    budget: Any,
    version: int | None,
) -> Chunks:
    """Batched index-nested-loop join: probe the right index per left row,
    emitting one output chunk per input chunk.

    The hot path bypasses ``index.lookup`` (a generator paying setup plus a
    per-row visibility check on every probe) and walks the bucket's row ids
    directly. That is only valid reading latest state with no logically
    deleted rows; the check is re-evaluated per input chunk so concurrent
    deletes degrade to the exact path mid-join rather than being missed."""
    tick = budget.tick_batch
    lookup = index.lookup
    table = index.table
    buckets = index._buckets  # intra-package: the probe loop is the hot path
    null_pad = (None,) * right_width
    plain = right_filter is None and residual is None and not outer
    for chunk in left_chunks:
        tick(len(chunk))
        out: Chunk = []
        if version is None and not table.died:
            rows = table.rows
            bucket_get = buckets.get
            probes = 0
            if plain:
                append = out.append
                for left_row in chunk:
                    key = left_row[left_slot]
                    if key is not None:
                        probes += 1
                        bucket = bucket_get((key,))
                        if bucket:
                            for row_id in bucket:
                                right_row = rows[row_id]
                                if right_row is not None:
                                    append(left_row + right_row)
            else:
                for left_row in chunk:
                    key = left_row[left_slot]
                    matched = False
                    if key is not None:
                        probes += 1
                        bucket = bucket_get((key,))
                        if bucket:
                            for row_id in bucket:
                                right_row = rows[row_id]
                                if right_row is None:
                                    continue
                                if (
                                    right_filter is not None
                                    and right_filter(right_row) is not True
                                ):
                                    continue
                                combined = left_row + right_row
                                if residual is None or residual(combined) is True:
                                    matched = True
                                    out.append(combined)
                    if outer and not matched:
                        out.append(left_row + null_pad)
            index.probe_count += probes
        else:
            for left_row in chunk:
                key = left_row[left_slot]
                matched = False
                if key is not None:
                    for right_row in lookup((key,), version):
                        if (
                            right_filter is not None
                            and right_filter(right_row) is not True
                        ):
                            continue
                        combined = left_row + right_row
                        if residual is None or residual(combined) is True:
                            matched = True
                            out.append(combined)
                if outer and not matched:
                    out.append(left_row + null_pad)
        if out:
            tick(len(out))
            yield out


def nested_loop_join_batches(
    left_chunks: Chunks,
    right_chunks_factory: Callable[[], Chunks],
    right_width: int,
    condition: Evaluator | None,
    outer: bool,
    budget: Any,
) -> Chunks:
    """Fallback non-equi join: delegates to the row-wise operator (it is
    the rare path) and re-batches its output."""
    joined = nested_loop_join(
        flatten(left_chunks),
        lambda: flatten(right_chunks_factory()),
        right_width,
        condition,
        outer,
        budget,
    )
    return chunked(joined)


# ------------------------------------------------------------------ kernels

_EVAL_GLOBALS = {"__builtins__": {}, "isinstance": isinstance, "map": map}


def _compile(source: str, bindings: list) -> Any:
    """Evaluate a ``lambda _enc, _c0, ...: <kernel>`` source with constants
    passed as arguments (never interpolated into the source)."""
    factory = eval(source, dict(_EVAL_GLOBALS))  # noqa: S307 - internal codegen
    return factory(EncodedString, *bindings)


def _params(consts: list) -> str:
    return "".join(f", _c{position}" for position in range(len(consts)))


#: provenance tri-state for an equality operand's value space
_TEXT = object()  # only None or EncodedString (an interned TEXT value)
_PLAIN = object()  # never EncodedString (numeric column)
_ANY = object()  # unknown mix: encoded ids and plain values may coexist


class _KernelCtx:
    """Per-compilation state: bound constants plus fresh temp names."""

    __slots__ = ("scope", "dictionary", "types", "consts", "_temps")

    def __init__(
        self,
        scope: Scope,
        dictionary: StringDictionary,
        column_types: list[ColumnType | None] | None,
    ) -> None:
        self.scope = scope
        self.dictionary = dictionary
        self.types = column_types
        self.consts: list = []
        self._temps = 0

    def bind(self, value: Any) -> str:
        self.consts.append(value)
        return f"_c{len(self.consts) - 1}"

    def use(self, src: str, compound: bool) -> tuple[str, str]:
        """(first_use, later_use) for a value source: compound sources
        (COALESCE chains) get walrus-bound to a temp so they evaluate
        once per row even when the leaf mentions them twice."""
        if not compound:
            return src, src
        self._temps += 1
        name = f"_v{self._temps}"
        return f"({name} := {src})", name

    def tri(self, slot: int) -> object:
        affinity = (
            self.types[slot]
            if self.types is not None and slot < len(self.types)
            else None
        )
        if affinity is ColumnType.TEXT:
            return _TEXT
        if affinity is None:
            return _ANY
        return _PLAIN


def compile_filter_kernel(
    expr: ast.Expr,
    scope: Scope,
    dictionary: StringDictionary,
    column_types: list[ColumnType | None] | None = None,
) -> FilterKernel | None:
    """A whole-chunk filter for the supported predicate subset, or None.

    ``column_types`` (aligned with ``scope`` slots) comes from base-table
    schemas or the planner's per-result affinity inference; knowing an
    operand is TEXT allows the tight ``id == id`` comparison because TEXT
    values are always interned. ``None`` entries mean unknown provenance,
    which restricts that slot to the conservative leaf forms.
    """
    ctx = _KernelCtx(scope, dictionary, column_types)
    source = _bool_source(expr, ctx)
    if source is None:
        return None
    code = (
        f"lambda _enc{_params(ctx.consts)}: "
        f"lambda chunk: [r for r in chunk if {source}]"
    )
    return _compile(code, ctx.consts)


def _bool_source(expr: ast.Expr, ctx: _KernelCtx) -> str | None:
    if isinstance(expr, ast.BinOp):
        op = expr.op.upper() if expr.op.isalpha() else expr.op
        if op in ("AND", "OR"):
            left = _bool_source(expr.left, ctx)
            if left is None:
                return None
            right = _bool_source(expr.right, ctx)
            if right is None:
                return None
            joiner = " and " if op == "AND" else " or "
            return f"({left}{joiner}{right})"
        if op == "=":
            return _eq_source(expr.left, expr.right, ctx)
        return None
    if isinstance(expr, ast.IsNull):
        ref = _value_ref(expr.operand, ctx)
        if ref is None:
            return None
        src = ref[0]
        return f"({src} is not None)" if expr.negated else f"({src} is None)"
    return None


def _column_slot(expr: ast.Expr, scope: Scope) -> int | None:
    if not isinstance(expr, ast.Column):
        return None
    try:
        return scope.resolve(expr)
    except PlanError:
        return None


def _value_ref(
    expr: ast.Expr, ctx: _KernelCtx
) -> tuple[str, object, bool] | None:
    """(source, tri-state, compound) for a column or COALESCE-of-columns
    operand; None for anything else."""
    if isinstance(expr, ast.Column):
        slot = _column_slot(expr, ctx.scope)
        if slot is None:
            return None
        return f"r[{slot}]", ctx.tri(slot), False
    if (
        isinstance(expr, ast.FuncCall)
        and expr.name.upper() == "COALESCE"
        and expr.args
    ):
        parts: list[str] = []
        tris: list[object] = []
        for arg in expr.args:
            ref = _value_ref(arg, ctx)
            if ref is None or ref[2]:
                return None  # nested COALESCE: keep codegen single-level
            parts.append(ref[0])
            tris.append(ref[1])
        src = parts[-1]
        for part in reversed(parts[:-1]):
            src = f"({part} if {part} is not None else {src})"
        tri = tris[0] if all(t is tris[0] for t in tris) else _ANY
        return src, tri, True
    return None


def _eq_source(lhs: ast.Expr, rhs: ast.Expr, ctx: _KernelCtx) -> str | None:
    if isinstance(lhs, ast.Const) and not isinstance(rhs, ast.Const):
        lhs, rhs = rhs, lhs
    if isinstance(rhs, ast.Const):
        ref = _value_ref(lhs, ctx)
        if ref is None:
            return None
        src, tri, compound = ref
        value = rhs.value
        if value is None:
            return "False"  # = NULL is unknown: the row is dropped
        if isinstance(value, EncodedString):
            return None  # the parser never produces these; bail defensively
        if isinstance(value, str):
            if tri is _PLAIN:
                return f"({src} == {ctx.bind(value)})"
            if tri is _TEXT:
                encoded = ctx.dictionary.lookup(value)
                if encoded is None:
                    # TEXT values are always interned: an un-interned
                    # constant cannot match any stored value.
                    return "False"
                first, later = ctx.use(src, compound)
                name = ctx.bind(encoded)
                # isinstance only runs on candidate matches (id collisions
                # with plain ints), keeping the common comparison int-fast.
                return f"({first} == {name} and isinstance({later}, _enc))"
            # _ANY: match either the interned id or a plain string, never
            # a numeric id collision.
            encoded = ctx.dictionary.lookup(value)
            enc_name = ctx.bind(encoded if encoded is not None else object())
            raw_name = ctx.bind(value)
            first, later = ctx.use(src, compound)
            return (
                f"(({later} == {enc_name}) if isinstance({first}, _enc)"
                f" else ({later} == {raw_name}))"
            )
        name = ctx.bind(value)
        if tri is _PLAIN:
            return f"({src} == {name})"
        first, later = ctx.use(src, compound)
        return f"({first} == {name} and not isinstance({later}, _enc))"
    left = _value_ref(lhs, ctx)
    right = _value_ref(rhs, ctx)
    if left is None or right is None:
        return None
    l_src, l_tri, l_comp = left
    r_src, r_tri, _ = right
    if l_tri is _ANY or r_tri is _ANY or l_tri is not r_tri:
        # Mixed or unknown provenance: encoded-vs-plain text equality
        # needs the full comparison machinery — scalar path handles it.
        return None
    # Both TEXT (ids or None) or both PLAIN: Python == agrees with SQL =
    # once NULL is guarded. A NULL right side compares unequal anyway.
    l_first, l_later = ctx.use(l_src, l_comp)
    return f"({l_first} is not None and {l_later} == {r_src})"


def compile_projection_kernel(
    item_exprs: list[ast.Expr], scope: Scope
) -> ProjectionKernel | None:
    """A whole-list projection for columns / constants / COALESCE chains.

    Pure computation (no equality), so it is sound for any value mix; falls
    back (None) on anything needing the expression evaluator.
    """
    slots: list[int] = []
    all_columns = True
    for expr in item_exprs:
        if isinstance(expr, ast.Column):
            slot = _column_slot(expr, scope)
            if slot is None:
                return None
            slots.append(slot)
        else:
            all_columns = False
            break
    if all_columns and slots:
        if len(slots) == 1:
            getter = itemgetter(slots[0])
            return lambda rows: [(value,) for value in map(getter, rows)]
        getter = itemgetter(*slots)
        return lambda rows: list(map(getter, rows))

    # Mixed projection (columns, constants, COALESCE chains): extract each
    # output column independently — itemgetter maps and pairwise COALESCE
    # comprehensions are C-driven loops — then recompose rows with zip().
    # This column-at-a-time shape beats a generated row-wise comprehension
    # because per-row work collapses to one zip step instead of N
    # subscript/conditional opcodes inside a tuple display.
    extractors: list[Callable[[list], Any]] = []
    for expr in item_exprs:
        extractor = _column_extractor(expr, scope)
        if extractor is None:
            return None
        extractors.append(extractor)
    if not extractors:
        return None
    if len(extractors) == 1:
        single = extractors[0]
        return lambda rows: [(value,) for value in single(rows)]

    def kernel(rows: list) -> list:
        return list(zip(*[extract(rows) for extract in extractors]))

    return kernel


def _column_extractor(
    expr: ast.Expr, scope: Scope
) -> Callable[[list], Any] | None:
    """rows -> iterable of this expression's values, or None if unsupported.

    Extractors may return lazy iterables (map objects, itertools.repeat);
    the caller recomposes them with zip, which also bounds the infinite
    constant columns."""
    if isinstance(expr, ast.Column):
        slot = _column_slot(expr, scope)
        if slot is None:
            return None
        getter = itemgetter(slot)
        return lambda rows: map(getter, rows)
    if isinstance(expr, ast.Const):
        value = expr.value
        return lambda rows: repeat(value, len(rows))
    if isinstance(expr, ast.FuncCall) and expr.name.upper() == "COALESCE":
        parts = [_column_extractor(arg, scope) for arg in expr.args]
        if not parts or any(part is None for part in parts):
            return None
        folded = parts[-1]
        for part in reversed(parts[:-1]):
            def fold(rows, first=part, rest=folded):
                return [
                    value if value is not None else fallback
                    for value, fallback in zip(first(rows), rest(rows))
                ]
            folded = fold
        return folded
    return None
