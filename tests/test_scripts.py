"""Smoke runs of the experiment scripts in `scripts/` at their smallest size,
so that a change to the CLI they call cannot break them unseen."""

import importlib.util
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


# A `perfbench/run.py --toy` output, cut to two solves, the second with a
# FAIL line as the gate prints it.
RECORDED_RUN = """\
context: workload=exact_arith seed=1 seconds=0.0 trace=0 toy=1
context: commit=65b54f83aa3c478afbac33d43f82b99ba582913e source_sha256=293e8c2800e12603
context: nproc=2 cpu='Intel(R) Xeon(R) Processor' python=3.11.7 platform=Linux-x86_64
context: why=all four instance classes solved in exact arithmetic
setup: setup_s=0.038104 import_s=0.036774 generate_s=0.000393 roundtrip_s=0.000895 (median of 9)
passes: 2 untraced; solves per pass: 8; CPU speed samples: 13, fastest 0.636 ms
solve instance                       algorithm flags                arith role      stop              wall_s    fast_s          upper          lower        gap
    0 random_n10_m3_s0_g1            exact     nodup+impext+partext exact measured  gap               0.0048    0.0034    8520.216018    8520.216018  0.000e+00
    1 random_n10_m3_s0_g1            nn        none                 float reference gap               0.0015    0.0010    8520.216018       0.000000          -
      FAIL: lower 2.0 > upper 1.0
metric solve_s_total = 0.01045571245327563 s
metric failed_frac = 0.5 ratio
{"correct": false, "attempted": 2, "failed": 1, "metrics": {"solve_s_total": {"value": 0.01045571245327563, "unit": "s"}}}
"""


def test_bench_record_parses_a_recorded_run():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    doc = bench_record.parse_run_output(RECORDED_RUN)
    assert doc["context"][1] == ("commit=65b54f83aa3c478afbac33d43f82b99ba582913e "
                                 "source_sha256=293e8c2800e12603")
    assert len(doc["context"]) == 4
    first, second = doc["solves"]
    assert first == {"solve": 0, "instance": "random_n10_m3_s0_g1", "algorithm": "exact",
                     "flags": "nodup+impext+partext", "arith": "exact", "role": "measured",
                     "stop": "gap", "wall_s": 0.0048, "fast_s": 0.0034, "upper": 8520.216018,
                     "lower": 8520.216018, "gap": 0.0, "problems": []}
    assert second["gap"] is None and second["problems"] == ["lower 2.0 > upper 1.0"]
    assert doc["result"]["failed"] == 1
    assert doc["result"]["metrics"]["solve_s_total"]["value"] == 0.01045571245327563
    with pytest.raises(ValueError):
        bench_record.parse_run_output("error: no kdcover package under src\n")
