#!/usr/bin/env python3
"""CI regression gate over the machine-readable smoke-benchmark metrics.

Reads ``benchmarks/out/results.json`` (written by the benches through
``conftest.record_metric``) and fails when a headline number regresses:

* ``warm_compile_speedup`` — a warm plan-cache hit must still beat a cold
  compile by at least 10× (PR 1 measured ~38×).
* ``profile_off_overhead`` — the tracing subsystem must stay free when
  disabled: under 5% over the hand-inlined pre-instrumentation pipeline.
* ``update_warm_cache_retention`` — queries interleaved inside one write
  transaction must keep hitting the warm plan cache (group commit bumps
  the epoch once); the floor is 90% and the measure is deterministic.
* ``guardrails_off_overhead`` — the execution guardrails (deadline / row
  budgets) must stay free when unset: under 3% over the hand-inlined
  pre-guardrail pipeline.
* ``snapshot_off_overhead`` — the MVCC plumbing (version-aware scans,
  writer-lock fields, epoch-keyed cache probes) must stay free while no
  snapshot is open: under 3% over the hand-inlined pre-MVCC pipeline.
* ``serve_p50_ms`` — the SPARQL protocol endpoint's median request
  latency under concurrent clients stays below a generous ceiling (the
  smoke run is tiny; this catches order-of-magnitude regressions like an
  accidental serialize() per request, not percentage drift).
* ``plan_regret_geomean`` — the cost-based join orderer's chosen plans
  must stay within 1.3× (geomean) of the best enumerated alternative's
  measured work on the plan battery, counted in deterministic
  intermediate-row ticks (measured ~1.0×; the meter cannot flake on
  CI load because it counts rows, not seconds).
* ``wal_flush_overhead`` — the default ``flush`` durability level
  (unbuffered framed writes, crash-safe against process death) must
  cost at most 5% over ``durability=none`` on batched commits; the
  bench takes best-of-three per mode to cancel machine drift.

Stdlib only; exits nonzero with one line per failure.
"""

from __future__ import annotations

import json
import pathlib


#: (key, floor|ceiling, bound, value format, bound format[, value format
#: on the ok line when it differs])
GATES = [
    ("warm_compile_speedup", "floor", 10.0, "{:.1f}x", "{:.0f}x"),
    ("profile_off_overhead", "ceiling", 0.05, "{:.1%}", "{:.0%}"),
    ("update_warm_cache_retention", "floor", 0.9, "{:.0%}", "{:.0%}"),
    ("guardrails_off_overhead", "ceiling", 0.03, "{:.1%}", "{:.0%}"),
    ("snapshot_off_overhead", "ceiling", 0.03, "{:.1%}", "{:.0%}"),
    ("serve_p50_ms", "ceiling", 150.0, "{:.1f} ms", "{:.0f} ms"),
    ("wal_flush_overhead", "ceiling", 0.05, "{:.1%}", "{:.0%}", "{:+.1%}"),
    ("plan_regret_geomean", "ceiling", 1.3, "{:.3f}x", "{:.1f}x"),
]

RESULTS = pathlib.Path(__file__).parent / "out" / "results.json"


def main() -> int:
    if not RESULTS.exists():
        print(f"regression check: {RESULTS} missing — did the benches run?")
        return 1
    metrics = json.loads(RESULTS.read_text())
    failures: list[str] = []

    for key, kind, bound, fmt, bound_fmt, *ok_fmt in GATES:
        value = metrics.get(key)
        shown_bound = bound_fmt.format(bound)
        if value is None:
            failures.append(f"{key} was not recorded")
        elif value < bound if kind == "floor" else value > bound:
            relation = "<" if kind == "floor" else ">"
            failures.append(
                f"{key} {fmt.format(value)} {relation} {shown_bound} {kind}"
            )
        else:
            shown = (ok_fmt[0] if ok_fmt else fmt).format(value)
            print(f"ok: {key} {shown} ({kind} {shown_bound})")

    on_overhead = metrics.get("profile_on_overhead")
    if on_overhead is not None:  # informational, not gated
        print(f"info: profile_on_overhead {on_overhead * 100:.1f}%")

    guard_on = metrics.get("guardrails_on_overhead")
    if guard_on is not None:  # informational, not gated
        print(f"info: guardrails_on_overhead {guard_on * 100:.1f}%")

    batched_speedup = metrics.get("update_batched_speedup")
    if batched_speedup is not None:  # informational, not gated
        print(f"info: update_batched_speedup {batched_speedup:.2f}x")

    wal_overhead = metrics.get("update_wal_overhead")
    if wal_overhead is not None:  # informational, not gated
        print(f"info: update_wal_overhead {wal_overhead * 100:+.1f}%")

    snap_on = metrics.get("snapshot_on_overhead")
    if snap_on is not None:  # informational, not gated
        print(f"info: snapshot_on_overhead {snap_on * 100:+.1f}%")

    serve_p99 = metrics.get("serve_p99_ms")
    if serve_p99 is not None:  # informational, not gated
        print(f"info: serve_p99_ms {serve_p99:.1f} ms")

    serve_qps = metrics.get("serve_throughput_qps")
    if serve_qps is not None:  # informational, not gated
        print(f"info: serve_throughput_qps {serve_qps:.0f}")

    regret_max = metrics.get("plan_regret_max")
    if regret_max is not None:  # informational, not gated
        print(f"info: plan_regret_max {regret_max:.3f}x")

    cost_fraction = metrics.get("plan_cost_fraction")
    if cost_fraction is not None:  # informational, not gated
        print(f"info: plan_cost_fraction {cost_fraction * 100:.0f}%")

    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
