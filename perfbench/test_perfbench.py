"""Fast self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench -q

Runs every workload shrunk, untraced and traced, and checks that the
gate counts a tampered result as a failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
from workloads import WORKLOAD_NAMES, make_inputs, workload

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _toy_inputs(name: str, seed: int = 1):
    api, _ = run.load_api()
    wl = workload(name, toy=True)
    ids, insts, _, _ = make_inputs(api, wl, seed)
    return api, wl, ids, insts, api.minmax.SolverConfig().target_gap


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_toy_run_prints_every_metric(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--toy"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["trace.layer_sum_err_max"]["value"] <= run.LAYER_SUM_TOL
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_inputs():
    api, wl, _, a, _ = _toy_inputs("exact_arith", seed=5)
    _, _, _, b, _ = _toy_inputs("exact_arith", seed=5)
    _, _, _, c, _ = _toy_inputs("exact_arith", seed=6)
    dump = api.instances.instance_to_json
    assert [dump(i) for i in a] == [dump(i) for i in b]
    assert [dump(i) for i in a] != [dump(i) for i in c]


@pytest.mark.parametrize("name", ["exact_full", "exact_arith"])
def test_symmetry_does_not_change_results(name):
    def outcome(seed):
        api, wl, ids, insts, target = _toy_inputs(name, seed)
        records = run.run_pass(api, wl, ids, insts, target)
        assert not any(r.problems for r in records)
        return [(r.doc["upper"], r.doc["lower"], r.doc["iterations"], r.doc["timeline"])
                for r in records]

    assert outcome(0) == outcome(7)


@pytest.mark.parametrize("tamper", ["lower_above_upper", "gap_above_target"])
def test_gate_counts_tampered_result(tamper):
    api, wl, ids, insts, target = _toy_inputs("exact_full")
    recipe = wl.recipes[0]
    result = run.solve_call(api, insts[0], recipe)()
    clean = run.SolveRecord(0, ids[0], recipe)
    run.check(api, clean, insts[0], result, target)
    assert clean.problems == []

    if tamper == "lower_above_upper":
        bad = dataclasses.replace(result, lower=result.upper * 1.5)
    else:
        lower = result.upper / 2
        bad = dataclasses.replace(result, lower=lower, gap=(result.upper - lower) / lower)
    rec = run.SolveRecord(1, ids[0], recipe)
    run.check(api, rec, insts[0], bad, target)
    assert rec.problems
    assert sum(1 for r in (clean, rec) if r.problems) == 1


def test_cross_check_flags_disjoint_intervals():
    api, wl, ids, insts, target = _toy_inputs("exact_arith")
    one = dataclasses.replace(wl, instances=wl.instances[:1])
    records = run.run_pass(api, one, ids, insts, target)
    assert [r.problems for r in records] == [[], []]
    twin = next(r for r in records if r.recipe.arith == "float")
    twin.doc["lower"] *= 1.1
    twin.doc["upper"] *= 1.1
    gate.apply_cross_checks(records)
    assert [bool(r.problems) for r in records] == [True, False]


def test_fails_without_package_source():
    """A directory holding only BENCHMARK.json and perfbench/ has no src/."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_arith", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
