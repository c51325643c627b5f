"""Execution guardrails, retry/backoff, circuit breaking, fault plans."""

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
    CircuitBreaker,
    CircuitOpenError,
    Fault,
    FaultPlan,
    GuardrailError,
    QueryTimeoutError,
    ResilientBackend,
    RetryPolicy,
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


# ------------------------------------------------------------- retry policies


class TestRetryPolicy:
    def test_same_seed_same_schedule(self):
        a = list(RetryPolicy(attempts=6, seed=42).delays())
        b = list(RetryPolicy(attempts=6, seed=42).delays())
        assert a == b
        assert len(a) == 5

    def test_different_seed_different_jitter(self):
        a = list(RetryPolicy(attempts=6, seed=1).delays())
        b = list(RetryPolicy(attempts=6, seed=2).delays())
        assert a != b

    def test_exponential_shape_and_cap(self):
        policy = RetryPolicy(attempts=10, base_delay=0.01, max_delay=0.08, seed=0)
        delays = list(policy.delays())
        # Jitter scales each base delay into [0.5, 1.0) of it.
        for n, delay in enumerate(delays):
            base = min(0.08, 0.01 * 2**n)
            assert base * 0.5 <= delay < base
        assert max(delays) < 0.08

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


# ------------------------------------------------------------ circuit breaker


class TestCircuitBreaker:
    def test_state_machine(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout=10.0, clock=lambda: clock[0]
        )
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock[0] = 9.9
        assert not breaker.allow()
        clock[0] = 10.0  # reset timeout elapsed: one probe allowed
        assert breaker.allow()
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0

    def test_half_open_probe_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        assert breaker.state == "open"
        clock[0] = 5.0
        assert breaker.allow()
        breaker.record_failure()  # the probe fails
        assert breaker.state == "open"
        assert breaker.opened_at == 5.0  # the open window restarted

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # failures were not consecutive


# ----------------------------------------------------- retries over real work


def _chaos_pair(backend_factory, plan, attempts=4, threshold=1000):
    """A ResilientBackend over a ChaosBackend over a real backend."""
    chaos = ChaosBackend(backend_factory(), plan)
    resilient = ResilientBackend(
        chaos,
        retry=RetryPolicy(attempts=attempts, base_delay=0, sleep=lambda s: None),
        breaker=CircuitBreaker(failure_threshold=threshold),
    )
    return chaos, resilient


class TestResilientBackend:
    @pytest.mark.parametrize("backend_factory", BACKENDS)
    def test_transient_faults_are_retried_transparently(self, backend_factory):
        plan = FaultPlan(
            [Fault(op="execute", at=1), Fault(op="execute", at=2)]
        )
        chaos, resilient = _chaos_pair(backend_factory, plan)
        _loaded(resilient)
        chaos.arm()
        columns, rows = resilient.execute("SELECT COUNT(*) FROM t")
        assert rows == [(400,)]
        assert resilient.metrics["retries"] == 2
        assert resilient.metrics["faults"] == 2
        assert len(plan.fired) == 2

    @pytest.mark.parametrize("backend_factory", BACKENDS)
    def test_exhausted_retries_reraise(self, backend_factory):
        plan = FaultPlan([Fault(op="execute", at=n) for n in range(1, 10)])
        chaos, resilient = _chaos_pair(backend_factory, plan, attempts=3)
        _loaded(resilient)
        chaos.arm()
        with pytest.raises(TransientFaultError):
            resilient.execute("SELECT COUNT(*) FROM t")
        assert resilient.metrics["faults"] == 3  # attempts, then gave up

    @pytest.mark.parametrize("backend_factory", BACKENDS)
    def test_breaker_opens_and_short_circuits(self, backend_factory):
        plan = FaultPlan([Fault(op="execute", at=n) for n in range(1, 10)])
        chaos, resilient = _chaos_pair(
            backend_factory, plan, attempts=10, threshold=2
        )
        _loaded(resilient)
        chaos.arm()
        with pytest.raises(CircuitOpenError) as excinfo:
            resilient.execute("SELECT COUNT(*) FROM t")
        assert excinfo.value.state == "open"
        assert excinfo.value.failures == 2
        assert resilient.metrics["breaker_opens"] == 1
        # While open, calls fail fast without touching the backend.
        before = chaos.op_counts["execute"]
        with pytest.raises(CircuitOpenError):
            resilient.execute("SELECT COUNT(*) FROM t")
        assert chaos.op_counts["execute"] == before
        assert resilient.metrics["short_circuits"] == 1

    def test_store_runs_unchanged_over_resilient_chaos(self):
        plan = FaultPlan.random(0, ops=("execute",), rate=0.3)
        chaos = ChaosBackend(MiniRelBackend(), plan)
        resilient = ResilientBackend(
            chaos,
            retry=RetryPolicy(attempts=4, base_delay=0, sleep=lambda s: None),
            breaker=CircuitBreaker(failure_threshold=1000),
        )
        store = RdfStore.from_graph(figure1_graph(), backend=resilient)
        reference = RdfStore.from_graph(figure1_graph())
        chaos.arm()
        for _ in range(20):
            got = store.query(ALL_SPO)
        assert got.canonical() == reference.query(ALL_SPO).canonical()
        assert resilient.metrics["retries"] > 0  # chaos actually fired


# ----------------------------------------------------------------- fault plans


class TestFaultPlan:
    def test_random_is_deterministic(self):
        a = FaultPlan.random(7)._by_op
        b = FaultPlan.random(7)._by_op
        assert a == b
        assert a != FaultPlan.random(8)._by_op

    def test_random_bounds_consecutive_faults(self):
        plan = FaultPlan.random(
            3, ops=("execute",), rate=0.9, max_consecutive=2, horizon=200
        )
        slots = sorted(plan._by_op["execute"])
        run = 1
        for prev, cur in zip(slots, slots[1:]):
            run = run + 1 if cur == prev + 1 else 1
            assert run <= 2

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
    wrapper deliberately reports its own (``resilient(chaos(...))``)."""
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
    routes it: called through both wrappers it must arrive at the inner
    backend exactly once, arguments intact, through ``_around`` once per
    wrapper if it is one of the four hooked ops and never otherwise."""
    inner = _recording_backend()
    chaos = ChaosBackend(inner, armed=True)
    resilient = ResilientBackend(chaos)
    hooks = [_spy_on_around(resilient), _spy_on_around(chaos)]

    if not callable(getattr(Backend, member)):
        assert getattr(resilient, member) is getattr(inner, member)
        assert inner.calls == [] and hooks == [[], []]
        return

    assert member in SURFACE_CALLS, f"add a call for Backend.{member}"
    sent = SURFACE_CALLS[member]
    result = getattr(resilient, member)(**sent)

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
    assert hooks == [expected, expected]
    assert dict(chaos.op_counts) == {op: 1 for op in expected}


@pytest.mark.parametrize("wrap", [ResilientBackend, ChaosBackend])
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
    """One transient fault on the query's execute: the traced call retries
    exactly like the untraced one and the trace shows the whole stack."""

    def run(profile):
        plan = FaultPlan([Fault(op="execute", at=1)])
        chaos, resilient = _chaos_pair(backend_factory, plan)
        store = RdfStore.from_graph(figure1_graph(), backend=resilient)
        chaos.arm()
        return chaos, store.query(ALL_SPO, profile=profile)

    chaos_off, plain = run(profile=False)
    chaos_on, profiled = run(profile=True)
    assert profiled.canonical() == plain.canonical()
    assert chaos_on.op_counts["execute"] == chaos_off.op_counts["execute"] == 2

    execute = profiled.profile.find("execute")
    (resilient_span,) = execute.children
    assert resilient_span.name == "resilient"
    assert resilient_span.attrs["retries"] == 1
    assert resilient_span.attrs["breaker"] == "closed"
    (backend_span,) = resilient_span.children  # the faulted try never ran
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
