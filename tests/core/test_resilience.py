"""Execution guardrails, fault plans, and the interposed backend surface."""

import copy
import inspect
import time

import pytest

from repro import RdfStore
from repro.backends import Backend, MiniRelBackend, SqliteBackend
from repro.core.errors import StoreError
from repro.core.observe import Tracer
from repro.core.resilience import (
    Budget,
    BudgetExceededError,
    ChaosBackend,
    Fault,
    FaultPlan,
    GuardrailError,
    QueryTimeoutError,
    TransientFaultError,
)
from repro.relational import ColumnType
from repro.relational.errors import QueryTimeout

from ..conftest import figure1_graph

ALL_SPO = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"

# A cross product big enough to outlast a tiny deadline on either engine
# (same workload as tests/relational/test_timeout.py).
CROSS_SQL = (
    "SELECT COUNT(*) FROM t a, t b, t c WHERE a.x <> b.x AND b.x <> c.x"
)

BACKENDS = [MiniRelBackend, SqliteBackend]


def _loaded(backend):
    backend.create_table("t", [("x", ColumnType.INTEGER)])
    backend.insert_many("t", [(i,) for i in range(400)])
    return backend


def _store(backend_factory):
    return RdfStore.from_graph(figure1_graph(), backend=backend_factory())


# ------------------------------------------------------------------ guardrails


class TestBudgetGuardrails:
    def test_error_taxonomy(self):
        assert issubclass(QueryTimeoutError, GuardrailError)
        assert issubclass(QueryTimeoutError, StoreError)
        # Existing timeout classification keeps catching the new error.
        assert issubclass(QueryTimeoutError, QueryTimeout)
        assert issubclass(BudgetExceededError, GuardrailError)
        assert issubclass(BudgetExceededError, StoreError)

    @pytest.mark.parametrize("backend_factory", BACKENDS)
    def test_budget_timeout_trips(self, backend_factory):
        backend = _loaded(backend_factory())
        budget = Budget(timeout=0.05)
        start = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            backend.execute(CROSS_SQL, budget=budget)
        assert time.monotonic() - start < 5.0
        assert budget.tripped == "timeout"

    @pytest.mark.parametrize("backend_factory", BACKENDS)
    def test_budget_intermediate_rows_trip(self, backend_factory):
        backend = _loaded(backend_factory())
        budget = Budget(max_intermediate_rows=100)
        with pytest.raises(BudgetExceededError) as excinfo:
            backend.execute(CROSS_SQL, budget=budget)
        assert excinfo.value.limit == 100
        assert budget.tripped == "intermediate"

    @pytest.mark.parametrize("backend_factory", BACKENDS)
    def test_store_max_rows(self, backend_factory):
        store = _store(backend_factory)
        with pytest.raises(BudgetExceededError) as excinfo:
            store.query(ALL_SPO, max_rows=5)
        assert excinfo.value.limit == 5

    @pytest.mark.parametrize("backend_factory", BACKENDS)
    def test_store_timeout_raises_typed_error(self, backend_factory):
        store = _store(backend_factory)
        # A pre-expired deadline over a query heavy enough that both
        # engines reach a deadline check: trips deterministically without
        # depending on wall-clock speed.
        cross = (
            "SELECT ?a ?b ?c ?d WHERE { ?a ?p1 ?o1 . ?b ?p2 ?o2 . "
            "?c ?p3 ?o3 . ?d ?p4 ?o4 }"
        )
        with pytest.raises(QueryTimeoutError):
            store.query(cross, timeout=-1.0)

    @pytest.mark.parametrize("backend_factory", BACKENDS)
    def test_generous_budget_changes_nothing(self, backend_factory):
        store = _store(backend_factory)
        plain = store.query(ALL_SPO)
        guarded = store.query(
            ALL_SPO,
            timeout=30.0,
            max_rows=10_000,
            max_intermediate_rows=10_000_000,
        )
        assert guarded.canonical() == plain.canonical()

    def test_minirel_ticks_count_operator_work(self):
        store = _store(MiniRelBackend)
        budget = Budget(max_intermediate_rows=10_000_000)
        store.engine.query(ALL_SPO, budget=budget)
        assert budget.ticks > 0  # every operator next() ticked the budget

    @pytest.mark.parametrize("backend_factory", BACKENDS)
    def test_profile_records_budget_ticks(self, backend_factory):
        store = _store(backend_factory)
        result = store.query(
            ALL_SPO, max_intermediate_rows=10_000_000, profile=True
        )
        execute_span = result.profile.find("execute")
        assert execute_span is not None
        assert "budget_ticks" in execute_span.attrs

    def test_budget_enforce_output(self):
        budget = Budget(max_rows=3)
        budget.enforce_output(3)  # at the limit: fine
        with pytest.raises(BudgetExceededError):
            budget.enforce_output(4)
        assert budget.tripped == "rows"


# ----------------------------------------------------------------- fault plans


class TestFaultPlan:
    def test_chaos_counts_only_while_armed(self):
        chaos = ChaosBackend(
            MiniRelBackend(), FaultPlan([Fault(op="create_table", at=1)])
        )
        chaos.create_table("t", [("x", ColumnType.INTEGER)])  # disarmed: free
        assert chaos.total_ops == 0
        chaos.arm()
        with pytest.raises(TransientFaultError):
            chaos.create_table("u", [("x", ColumnType.INTEGER)])
        assert chaos.op_counts["create_table"] == 1

    def test_any_op_matches_on_global_count(self):
        chaos = ChaosBackend(
            MiniRelBackend(),
            FaultPlan([Fault(op="any", at=3, kind="crash")]),
            armed=True,
        )
        from repro.core.resilience import SimulatedCrash

        chaos.create_table("t", [("x", ColumnType.INTEGER)])
        chaos.insert_many("t", [(1,)])
        with pytest.raises(SimulatedCrash):
            chaos.execute("SELECT * FROM t")
        assert chaos.total_ops == 3


# ------------------------------------------------- the interposed surface

#: the operations a wrapper may intercept; everything else forwards blind
HOOKED_OPS = {"create_table", "create_index", "insert_many", "execute"}

#: one call per callable ``Backend`` declares, every parameter given a
#: distinguishable value (a member missing here fails the test below)
SURFACE_CALLS = {
    "create_table": {
        "table_name": "t",
        "columns": [("x", ColumnType.INTEGER)],
        "if_not_exists": True,
    },
    "create_index": {"index_name": "i", "table_name": "t", "columns": ["x"]},
    "insert_many": {"table_name": "t", "rows": [(1,), (2,)]},
    "execute": {
        "statement": "SELECT 1",
        "timeout": 1.5,
        "budget": Budget(),
        "snapshot": object(),
        "tracer": Tracer(),
    },
    "begin_write": {},
    "commit_write": {},
    "abort_write": {},
    "open_snapshot": {},
    "table_names": {},
    "row_count": {"table_name": "t"},
    "sql_text": {"statement": object()},
}


def _backend_surface():
    """Every public member ``Backend`` declares. ``name`` is left out: a
    wrapper deliberately reports its own (``chaos(...)``)."""
    return sorted(
        member
        for member in vars(Backend)
        if not member.startswith("_") and member != "name"
    )


def _recording_backend():
    """A backend whose every declared callable records its arguments and
    returns a unique object; plain attributes hold unique sentinels."""
    namespace = {"name": "recording"}
    for member in _backend_surface():
        if not callable(getattr(Backend, member)):
            namespace[member] = object()
            continue

        def method(self, *args, _member=member, **kwargs):
            self.calls.append((_member, args, kwargs))
            return self.results.setdefault(_member, object())

        namespace[member] = method
    recording = type("RecordingBackend", (Backend,), namespace)()
    recording.calls = []
    recording.results = {}
    return recording


def _spy_on_around(wrapper):
    seen = []
    around = wrapper._around

    def spy(op, call):
        seen.append(op)
        return around(op, call)

    wrapper._around = spy
    return seen


@pytest.mark.parametrize("member", _backend_surface())
def test_every_backend_member_reaches_the_inner_backend_once(member):
    """A method added to ``Backend`` fails here until ``BackendInterposer``
    routes it: called through the wrapper it must arrive at the inner
    backend exactly once, arguments intact, through ``_around`` once if it
    is one of the four hooked ops and never otherwise."""
    inner = _recording_backend()
    chaos = ChaosBackend(inner, armed=True)
    hooks = _spy_on_around(chaos)

    if not callable(getattr(Backend, member)):
        assert getattr(chaos, member) is getattr(inner, member)
        assert inner.calls == [] and hooks == []
        return

    assert member in SURFACE_CALLS, f"add a call for Backend.{member}"
    sent = SURFACE_CALLS[member]
    result = getattr(chaos, member)(**sent)

    ((name, args, kwargs),) = inner.calls
    assert name == member
    signature = inspect.signature(getattr(Backend, member))
    if signature.return_annotation != "None":  # annotations are strings
        assert result is inner.results[member]
    received = signature.bind(inner, *args, **kwargs)
    received.arguments.pop("self")
    assert set(received.arguments) == set(sent)
    for parameter, value in sent.items():
        arrived = received.arguments[parameter]
        assert arrived is value or arrived == value, parameter

    expected = [member] if member in HOOKED_OPS else []
    assert hooks == expected
    assert dict(chaos.op_counts) == {op: 1 for op in expected}


@pytest.mark.parametrize("wrap", [ChaosBackend])
def test_wrappers_can_be_copied(wrap):
    """``copy`` probes dunders on an instance whose ``__init__`` never ran;
    ``__getattr__`` must answer AttributeError, not chase ``self.inner``."""
    wrapper = wrap(MiniRelBackend())
    clone = copy.copy(wrapper)
    assert clone.inner is wrapper.inner
    assert clone.db is wrapper.inner.db  # extras still pass through
    with pytest.raises(AttributeError):
        clone.no_such_backend_attribute


@pytest.mark.parametrize("backend_factory", BACKENDS)
def test_profiled_query_through_wrappers_matches_unprofiled(backend_factory):
    """Through an armed fault-injection wrapper with nothing scheduled, the
    traced call runs exactly like the untraced one and the trace reaches
    the inner backend's span."""

    def run(profile):
        chaos = ChaosBackend(backend_factory())
        store = RdfStore.from_graph(figure1_graph(), backend=chaos)
        chaos.arm()
        return chaos, store.query(ALL_SPO, profile=profile)

    chaos_off, plain = run(profile=False)
    chaos_on, profiled = run(profile=True)
    assert profiled.canonical() == plain.canonical()
    assert chaos_on.op_counts["execute"] == chaos_off.op_counts["execute"] == 1

    execute = profiled.profile.find("execute")
    (backend_span,) = execute.children
    inner_name = chaos_on.inner.name
    assert backend_span.name == f"{inner_name}.execute"
    assert backend_span.attrs["rows_out"] == len(plain)
    children = [span.name for span in backend_span.children]
    if inner_name == "sqlite":
        assert children == ["explain-query-plan"]
        assert backend_span.children[0].attrs["plan"]
    else:
        assert children and "explain-query-plan" not in children
        assert all("rows_out" in span.attrs for span in backend_span.children)
