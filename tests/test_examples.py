"""The example scripts README cites run to completion."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

EXAMPLES = [
    "quickstart.py",
    "optimizer_anatomy.py",
    "dbpedia_explorer.py",
    "tool_integration.py",
    "store_shootout.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_exits_cleanly(script):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
