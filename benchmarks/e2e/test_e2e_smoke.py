"""Smoke test of the e2e benchmark (not part of tier-1: ``testpaths = ["tests"]``).

Run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It runs every workload once at tiny scale, untraced and traced, and checks
the output contract: every name declared in ``BENCHMARK.json`` is printed
with its unit, nothing undeclared is printed, and the span files are
well-formed trees.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_smoke_run_matches_the_contract(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "summary.json"
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--traced", "--out", str(out)],
        capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

    summary = json.loads(out.read_text())
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    declared = {
        0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        1: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    workloads = [w["name"] for w in contract["workloads"]]
    for name in [*workloads, *declared[0], *declared[1]]:
        assert NAME_RE.match(name), name
    assert "setup_s" in declared[0]

    seen = set()
    for run in summary["runs"]:
        seen.add((run["workload"], run["trace"]))
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        printed = {name: entry["unit"] for name, entry in run["metrics"].items()}
        assert printed == declared[run["trace"]], run["workload"]
        for name, entry in run["metrics"].items():
            assert isinstance(entry["value"], (int, float)), name
        if run["trace"] == 0:
            assert all(entry["value"] > 0 for entry in run["metrics"].values())
    assert seen == {(w, t) for w in workloads for t in (0, 1)}

    for workload in workloads:
        spans = [json.loads(line) for line in
                 (HERE / "out" / f"trace-{workload}.jsonl").read_text().splitlines()]
        assert spans
        ids = {span["id"] for span in spans}
        for span in spans:
            assert span["workload"] == workload
            assert span["end"] >= span["start"]
            assert span["parent"] is None or span["parent"] in ids


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lookup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
