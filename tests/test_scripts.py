"""Smoke runs of each study of `scripts/studies.py` at its smallest size, so
that a change to the CLI it calls cannot break it unseen, and the readers of
`scripts/bench_record.py` and `scripts/bench_trajectory.py`."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

STUDIES = [
    ("degenerate", ["-n", "6", "-m", "2", "--count", "1"], "Degeneracy summary ("),
    ("algorithms", ["--scale", "0.02"], "grouped by n:"),
    ("improvements", ["--scale", "0.02"], "Improvement-strategy summary ("),
]


@pytest.mark.parametrize("study, options, header", STUDIES, ids=[s[0] for s in STUDIES])
def test_experiment_script_runs_at_its_smallest_size(tmp_path, study, options, header):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "studies.py"), study, str(tmp_path / "work"), *options],
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


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_parses_a_recorded_run():
    bench_record = load_script("bench_record")
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


def test_bench_record_compacts_the_passes():
    """Three passes of the recorded run's two solves: one row per instance
    and recipe, with the pass count, the timing medians and minima, the
    first pass's bounds and each distinct FAIL line once."""
    bench_record = load_script("bench_record")
    solves = bench_record.parse_run_output(RECORDED_RUN)["solves"]
    passes = [dict(row, wall_s=row["wall_s"] * k, fast_s=row["fast_s"] * k)
              for k in (3, 1, 2) for row in solves]
    first, second = bench_record.compact_rows(passes)
    assert first == {"instance": "random_n10_m3_s0_g1", "algorithm": "exact",
                     "flags": "nodup+impext+partext", "arith": "exact", "role": "measured",
                     "passes": 3, "wall_s_median": 0.0096, "wall_s_min": 0.0048,
                     "fast_s_median": 0.0068, "fast_s_min": 0.0034, "stop": "gap",
                     "upper": 8520.216018, "lower": 8520.216018, "gap": 0.0, "problems": []}
    assert (second["algorithm"], second["passes"], second["gap"]) == ("nn", 3, None)
    assert second["problems"] == ["lower 2.0 > upper 1.0"]


def test_bench_trajectory_reads_the_committed_recordings(tmp_path):
    """The committed per-solve recordings, and a compact one, whose solve
    count is the sum of its rows' passes."""
    bench_trajectory = load_script("bench_trajectory")
    header, *lines = bench_trajectory.trajectory()
    assert header.split() == ["label", "workload", "commit", "source", "rows", "solves",
                              "solve_s_total"]
    assert len(lines) == len(list(SCRIPTS.parent.glob("BENCH_*.json"))) >= 7
    rows = {tuple(line.split()[:2]): line.split() for line in lines}
    parent = rows["double_filters_parent", "exact_arith"]
    child = rows["double_filters", "exact_arith"]
    assert parent[2] == child[2] == "a0e45c682529"
    assert parent[3:6] == ["0e4bff12f0781c55", "1232", "1232"]
    assert (parent[-1], child[-1]) == ("0.0422", "0.0294")
    for label in ("root_enclosures_parent", "root_enclosures"):
        path = SCRIPTS.parent / f"BENCH_{label}_exact_arith.json"
        assert path.stat().st_size < 50_000
        line = rows[label, "exact_arith"]
        assert int(line[4]) == 16 and int(line[5]) >= 32  # eight instances, two recipes

    doc = load_script("bench_record").parse_run_output(RECORDED_RUN)
    compact = {"workload": "exact_arith", "seed": 1, "label": "toy", "context": doc["context"],
               "rows": load_script("bench_record").compact_rows(doc["solves"] * 3),
               "result": doc["result"]}
    (tmp_path / "BENCH_toy_exact_arith.json").write_text(json.dumps(compact))
    (_, line), = [bench_trajectory.trajectory(tmp_path)]
    assert line.split() == ["toy", "exact_arith", "65b54f83aa3c", "293e8c2800e12603", "2", "6",
                            "0.0105"]
