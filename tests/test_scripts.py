"""Smoke runs of the experiment scripts at tiny corpus sizes and budgets."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, row_pattern, rows", [
    # one row per stage: environment, activity, and three standing sensor sets
    ("stage_accuracies.py", r"\sacc\s+\d+\.\d\d\s", 5),
    # one row per recipe: A1-A4 and F1-F5
    ("feature_recipe_sweep.py", r"^\s+[AF]\d\s", 9),
])
def test_script_runs(script, row_pattern, rows):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--windows", "4", "--iterations", "300"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    matched = [line for line in proc.stdout.splitlines() if re.search(row_pattern, line)]
    assert len(matched) == rows, proc.stdout
