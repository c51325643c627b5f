#!/usr/bin/env python3
"""The repo benchmark: four SPARQL workloads, end to end and layer by layer.

One workload, as the benchmark driver runs it (last stdout line is the
machine-readable result)::

    python3 benchmarks/e2e/run.py --workload lookup --seed 7 --seconds 10 --trace 0

Everything, as a person runs it (each workload in a fresh subprocess,
tracing off; ``--traced`` adds the staged per-layer pass)::

    python3 benchmarks/e2e/run.py --traced [--seed N] [--scale S] [--repeat 2]
                                  [--out BENCH_e2e.json] [--smoke]

See README.md next to this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SCALE = 0.5   # sized to the driver's time cap; 1.0 is ISSUE 11's scale
SMOKE_SCALE = 0.1
WARMUP_S = 2.0


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ------------------------------------------------------------------ unit


def print_untraced(workload: str, args, outcome: dict) -> dict:
    stats, details = outcome["stats"], outcome["details"]
    values = {
        "setup_s": outcome["setup_s"],
        "p50_ms": stats["p50_ms"],
        "qps": stats["qps"],
        "rss_mb": outcome["rss_mb"],
        "store_bytes_per_triple": outcome["store_bytes_per_triple"],
    }
    n = stats["samples"]
    notes = {
        "setup_s": "median of %d set-ups: %s (generate %.2f s and oracle %.2f s "
                   "are the benchmark's own work, not counted)" % (
                       len(outcome["setup_runs_s"]),
                       " ".join(f"{s:.2f}" for s in outcome["setup_runs_s"]),
                       details["generate_s"], details["oracle_s"]),
        "p50_ms": "geometric mean of %d per-query medians; n=%d reads; "
                  "pooled median %.3f" % (
                      len(stats["per_query_ms"]), n, stats["pooled_p50_ms"]),
        "qps": "%.1f s window; sub-windows %.1f..%.1f; whole window %.1f" % (
            stats["window_s"], *stats["sub_qps"], stats["whole_qps"]),
        "rss_mb": "peak RSS of the process holding the store",
        "store_bytes_per_triple": "RSS growth across RdfStore.from_graph / triples",
    }
    print(f"== {workload}: seed {args.seed}, scale {args.scale}, "
          f"{args.seconds:g} s window, {details['clients']} closed-loop "
          f"client(s), {details['triples']} triples, "
          f"{details['distinct_texts']} distinct query texts")
    units = {m["name"]: m["unit"] for m in load_contract()["end_to_end"]}
    for name, value in values.items():
        print(f"{name:<26}{value:>14.4f} {units[name]:<6} {notes[name]}")
    tally = outcome["tally"]
    print("-- details (not gated)")
    print(f"{'p95_ms':<26}{stats['p95_ms']:>14.4f} ms     p50_ms x tail factor "
          "%.3f (mean slowdown in the p90..p99 band; sub-windows %.3f..%.3f); "
          "pooled p95 %.3f" % (
              stats["tail_factor"][1], stats["tail_factor"][0],
              stats["tail_factor"][2], stats["pooled_p95_ms"]))
    print(f"{'pooled_p99_ms':<26}{stats['pooled_p99_ms']:>14.4f} ms     n={n} "
          "(on a shared 2-core box this measures the scheduler)")
    print(f"{'failed_share':<26}{tally.failed / tally.attempted:>14.6f} "
          f"       {tally.failed} failed of {tally.attempted} attempted")
    for key in ("cache_hit_ratio", "update_p50_ms", "update_p95_ms", "updates",
                "acknowledged_writes", "live_bench_entities", "rejected_503"):
        if details.get(key) is not None:
            print(f"{key:<26}{details[key]:>14.4f}")
    print("-- per query: median / p95 ms (n)")
    cells = [f"{name} {entry['p50']:.3f} / {entry['p95']:.3f} ({entry['n']})"
             for name, entry in stats["per_query_ms"].items()]
    for start in range(0, len(cells), 4):
        print("   " + "   ".join(cells[start:start + 4]))
    for mix, (geomean, queries) in stats["mix_p50_ms"].items():
        print(f"   geometric mean of medians, {mix}Q*: {geomean:.3f} ms "
              f"over {queries} queries")
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def print_traced(workload: str, args, outcome: dict) -> dict:
    details = outcome["details"]
    print(f"== {workload} (traced): seed {args.seed}, scale {args.scale}, "
          f"{details['replayed_reads']} replayed reads in rounds of "
          f"{details['round_size']}, {details['compiles']} compiles, "
          f"{details['spans']} spans -> {os.path.relpath(details['trace_file'])}")
    units = {m["name"]: m["unit"] for m in load_contract()["per_layer"]}
    for name, value in outcome["metrics"].items():
        print(f"{name:<38}{value:>16.4f} {units[name]}")
    print("-- share of the staged total per read")
    for layer, share in outcome["shares"].items():
        print(f"   {layer:<22}{share * 100:>7.2f} %")
    rounds = details["coverage_rounds"]
    print(f"-- coverage over {len(rounds)} rounds: min {min(rounds):.3f}, "
          f"max {max(rounds):.3f} [{details['coverage_flag']}]; untraced "
          f"{details['untraced_ms_per_read']:.4f} ms per read")
    print(f"-- compile cross-check (ms per compile): "
          f"{details['compile_crosscheck']}")
    return {name: {"value": value, "unit": units[name]}
            for name, value in outcome["metrics"].items()}


def run_unit(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import loops
    import stages

    warmup = 0.3 if args.smoke else WARMUP_S
    if args.trace:
        outcome = stages.run_traced(
            args.workload, args.seed, args.scale, SRC, OUT, args.smoke)
    elif args.workload == "serve_mixed":
        outcome = loops.run_serve_mixed(
            args.seed, args.scale, args.seconds, warmup, SRC, OUT)
    else:
        outcome = loops.run_in_process(
            args.workload, args.seed, args.scale, args.seconds, warmup)
    tally = outcome["tally"]
    loops.report_failures(tally)
    if outcome.get("setup_failed"):
        print("error: set-up check failed, nothing was measured", file=sys.stderr)
        return 1
    printer = print_traced if args.trace else print_untraced
    metrics = printer(args.workload, args, outcome)
    sys.stdout.flush()
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


# ---------------------------------------------------------- orchestrator


def spawn(workload: str, args, trace: int) -> dict:
    """One workload in a fresh interpreter; returns its result line."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", str(args.scale)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited {done.returncode}")
    return json.loads(lines[-1])


def noise_report(contract: dict, runs: list[dict]) -> list[dict]:
    """Both values of every end-to-end metric of two repeats, their relative
    difference and the bound; pairs outside the bound are unresolved."""
    rows = []
    print("== noise report: repeat 1 vs repeat 2 (same code, same seed)")
    print(f"{'workload':<15}{'metric':<26}{'first':>12}{'second':>12}"
          f"{'diff':>9}{'bound':>8}")
    for workload in [w["name"] for w in contract["workloads"]]:
        first, second = (
            next(r for r in runs
                 if r["workload"] == workload and r["repeat"] == repeat
                 and r["trace"] == 0)["metrics"]
            for repeat in (0, 1))
        for metric in contract["end_to_end"]:
            a = first[metric["name"]]["value"]
            b = second[metric["name"]]["value"]
            diff = abs(a - b) / min(a, b)
            verdict = "" if diff <= metric["bound"] else "  unresolved"
            rows.append({"workload": workload, "metric": metric["name"],
                         "first": a, "second": b, "diff": diff,
                         "bound": metric["bound"], "resolved": not verdict})
            print(f"{workload:<15}{metric['name']:<26}{a:>12.4f}{b:>12.4f}"
                  f"{diff * 100:>8.1f}%{metric['bound'] * 100:>7.0f}%{verdict}")
    return rows


def run_all(args) -> int:
    contract = load_contract()
    workloads = [w["name"] for w in contract["workloads"]]
    runs = []
    for repeat in range(args.repeat):
        # alternate the order so drift over the session hits both ends
        for workload in workloads if repeat % 2 == 0 else reversed(workloads):
            result = spawn(workload, args, 0)
            runs.append({"workload": workload, "repeat": repeat, "trace": 0,
                         **result})
    if args.traced:
        for workload in workloads:
            result = spawn(workload, args, 1)
            runs.append({"workload": workload, "repeat": 0, "trace": 1,
                         **result})
    noise = noise_report(contract, runs) if args.repeat >= 2 else None
    summary = {"benchmark": "benchmarks/e2e", "seed": args.seed,
               "scale": args.scale, "seconds": args.seconds,
               "smoke": args.smoke, "runs": runs, "noise": noise,
               "claim": None}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "runs": len(runs), "claim": None}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[
        "lookup", "analytic", "template_miss", "serve_mixed"],
        help="run this one workload in this process (default: all, "
             "each in a subprocess)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: the staged per-layer pass of --workload")
    parser.add_argument("--scale", type=float, default=None,
                        help=f"dataset scale (default {DEFAULT_SCALE}; 1.0 = "
                             "LUBM 20 universities, SP2Bench 50k, PRBench 60k)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny scale ({SMOKE_SCALE}) and 2 s windows")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add the per-layer pass")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all workloads: run the set N times; 2 prints "
                             "the noise report")
    parser.add_argument("--out", help="all workloads: write the summary JSON here")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = SMOKE_SCALE if args.smoke else DEFAULT_SCALE
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(load_contract()["run_seconds"])
    return run_unit(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
