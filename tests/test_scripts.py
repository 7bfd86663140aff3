"""Smoke runs of the experiment scripts in `scripts/` at their smallest size,
so that a change to the CLI they call cannot break them unseen."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

EXPERIMENTS = [
    ("bench_degenerate.py", ["-n", "6", "-m", "2", "--count", "1"], "Degeneracy summary ("),
    ("bench_algorithms.py", ["--scale", "0.02"], "grouped by n:"),
    ("bench_improvements.py", ["--scale", "0.02"], "Improvement-strategy summary ("),
]


@pytest.mark.parametrize("script, options, header", EXPERIMENTS,
                         ids=[e[0] for e in EXPERIMENTS])
def test_experiment_script_runs_at_its_smallest_size(tmp_path, script, options, header):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), str(tmp_path / "work"), *options],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout
