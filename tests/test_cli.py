import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from kdcover import certificate, cli
from kdcover.certificate import result_segments, result_to_json
from kdcover.cli import (
    ALGORITHMS,
    CSV_FIELDS,
    EXIT_CHECK,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    flags_label,
    main,
    parse_flags,
)
from kdcover.geometry import MovingInstance, Point2, Trajectory, squared_distance_poly
from kdcover.instances import GenParams, generate, read_instance, write_instance
from kdcover.kinetic import ImprovementFlags
from kdcover.minmax import SolverConfig, fixed_nn_baseline, solve_minmax


def run(argv):
    return main([str(a) for a in argv])


def gen_one(tmp_path, name="inst", n=10, m=3, seed=5, klass="random"):
    out = tmp_path / name
    assert run(["gen", "--class", klass, "-n", n, "-m", m, "--seed", seed, "-o", out]) == EXIT_OK
    files = [p for p in out.iterdir() if p.name != "manifest.json"]
    assert len(files) == 1
    return out, files[0]


def test_flags_round_trip():
    for flags in (
        ImprovementFlags(),
        ImprovementFlags(no_dup=True),
        ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True),
    ):
        assert parse_flags(flags_label(flags)) == flags


def test_gen_invalid_params(tmp_path):
    code = run(["gen", "-n", 5, "-m", 1, "--len-min", 60, "--len-max", 50,
                "-o", tmp_path / "x"])
    assert code == EXIT_USAGE


def test_gen_set_schedule(tmp_path):
    out = tmp_path / "set"
    assert run(["gen", "--set", "fix_m", "--scale", 0.2, "--seed", 1, "-o", out]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    ns = sorted({e["n"] for e in manifest["instances"]})
    assert ns == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert {e["m"] for e in manifest["instances"]} == {5}
    assert len(manifest["instances"]) == 100
    out = tmp_path / "fix_n"
    assert run(["gen", "--set", "fix_n", "--scale", 0.02, "--seed", 1, "-o", out]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert {(e["n"], e["m"]) for e in manifest["instances"]} == {(10, 1)}
    assert len(manifest["instances"]) == 100


def test_solve_check_render_cycle(tmp_path):
    _, inst_path = gen_one(tmp_path)
    result = tmp_path / "r.json"
    assert run(["solve", inst_path, "--algo", "exact", "--flags", "nodup,impext,partext",
                "-o", result]) == EXIT_OK
    assert run(["check", result, inst_path]) == EXIT_OK

    doc = json.loads(result.read_text())
    assert doc["gap"] is not None and doc["gap"] <= 1e-4
    assert doc["upper"] >= doc["lower"]

    # tampering with a coefficient must fail the check, naming the segment
    doc["timeline"]["segments"][0]["objective"][2] += 5.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["check", bad, inst_path]) == EXIT_CHECK

    svg_dir = tmp_path / "svg"
    assert run(["render", inst_path, "--result", result,
                "--times", "0.25,0.5,0.75", "-o", svg_dir]) == EXIT_OK
    files = sorted(p.name for p in svg_dir.iterdir())
    assert len(files) == 3
    text = (svg_dir / files[0]).read_text()
    assert text.startswith("<svg") and "polygon" in text and "circle" in text

    assert run(["render", inst_path, "--times", "1.5", "-o", svg_dir]) == EXIT_USAGE


def test_solve_nn_reports_unavailable_gap(tmp_path):
    _, inst_path = gen_one(tmp_path)
    result = tmp_path / "nn.json"
    assert run(["solve", inst_path, "--algo", "nn", "-o", result]) == EXIT_OK
    doc = json.loads(result.read_text())
    assert doc["lower"] == 0.0 and doc["gap"] is None


def test_solve_fixed_nn(tmp_path):
    _, inst_path = gen_one(tmp_path)
    result = tmp_path / "f.json"
    assert run(["solve", inst_path, "--algo", "fixed_nn", "--k", 10, "-o", result]) == EXIT_OK
    doc = json.loads(result.read_text())
    assert doc["iterations"] == 11
    assert run(["check", result, inst_path]) == EXIT_OK


def test_solve_rejects_bad_solver_options(tmp_path, capsys):
    _, inst_path = gen_one(tmp_path)
    result = tmp_path / "r.json"
    for bad in (["--gap", -1], ["--gap", "nan"], ["--algo", "fixed_nn", "--k", 0],
                ["--time-limit", 0], ["--time-limit", -5], ["--time-limit", "nan"]):
        capsys.readouterr()
        assert run(["solve", inst_path, "-o", result] + bad) == EXIT_USAGE, bad
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, bad
        assert not result.exists(), bad


def test_bench_rejects_bad_solver_options(tmp_path):
    out, _ = gen_one(tmp_path)
    csv_path = tmp_path / "b.csv"
    for bad in (["--gap", -1], ["--algos", "fixed_nn", "--k", 0], ["--time-limit", 0],
                ["--time-limit", -5], ["--time-limit", "nan"]):
        assert run(["bench", out / "manifest.json", "-o", csv_path] + bad) == EXIT_USAGE, bad
        assert not csv_path.exists(), bad


def test_bench_rejects_unknown_algorithms_and_flag_combos(tmp_path, capsys):
    out, _ = gen_one(tmp_path)
    csv_path = tmp_path / "b.csv"
    for bad in (["--algos", "foo"], ["--algos", "nn,foo"], ["--flag-combos", "nodup;bogus"],
                ["--flag-combos", "impext+bogus"]):
        capsys.readouterr()
        assert run(["bench", out / "manifest.json", "-o", csv_path] + bad) == EXIT_USAGE, bad
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, bad
        assert not csv_path.exists(), bad


def test_bench_takes_only_the_solver_options_it_uses(tmp_path):
    out, _ = gen_one(tmp_path)
    for dead in (["--flags", "nodup"], ["--algo=nn", "--flags=nodup"], ["--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(["bench", out / "manifest.json", "-o", tmp_path / "b.csv"] + dead)
        assert exc.value.code == EXIT_USAGE, dead
    assert not (tmp_path / "b.csv").exists()


def test_check_mismatched_pair(tmp_path):
    _, inst_a = gen_one(tmp_path, name="a", seed=1)
    _, inst_b = gen_one(tmp_path, name="b", seed=2)
    result = tmp_path / "r.json"
    assert run(["solve", inst_a, "-o", result]) == EXIT_OK
    assert run(["check", result, inst_b]) == EXIT_USAGE
    assert run(["render", inst_b, "--result", result, "-o", tmp_path / "svg"]) == EXIT_USAGE


def test_result_timeline_round_trips_through_moves():
    """Every kind of result, the exact-arithmetic one with `QuadraticNumber`
    times, reads back as its timeline, times through `float`."""
    moved = 0
    for _, algorithm, flags, result in valid_results():
        doc = json.loads(result_to_json("x", algorithm, flags, {}, result))
        segs = result.timeline.segments
        assert [(s.t_start, s.t_end, s.assignment, s.supports) for s in result_segments(doc)] == [
            (float(s.t_start), float(s.t_end), s.assignment, s.supports) for s in segs
        ], algorithm
        # Only the objects that change station are stored after the first segment.
        stored = doc["timeline"]["segments"]
        assert stored[0]["moves"] == []
        for prev, seg, raw in zip(segs, segs[1:], stored[1:]):
            changed = [j for j, (a, b) in enumerate(zip(prev.assignment, seg.assignment))
                       if a != b]
            assert [j for j, _ in raw["moves"]] == changed, algorithm
            moved += bool(changed)
    assert moved > 5


def test_check_rejects_nonpositive_samples(tmp_path):
    _, inst_path = gen_one(tmp_path)
    result = tmp_path / "r.json"
    assert run(["solve", inst_path, "--algo", "nn", "-o", result]) == EXIT_OK
    # Make the result infeasible: move every object to the next station,
    # whose radius stays that of its old support.
    doc = json.loads(result.read_text())
    tl = doc["timeline"]
    m = len(tl["segments"][0]["supports"])
    tl["assignment"] = [(s + 1) % m for s in tl["assignment"]]
    for seg in tl["segments"]:
        seg["moves"] = [[j, (s + 1) % m] for j, s in seg["moves"]]
    result.write_text(json.dumps(doc))
    assert run(["check", result, inst_path]) == EXIT_CHECK
    # The check takes no sample count: argparse rejects the option.
    with pytest.raises(SystemExit) as exc:
        run(["check", result, inst_path, "--samples", 0])
    assert exc.value.code == 2


def test_bench_matrix_and_reproducibility(tmp_path):
    out = tmp_path / "set"
    assert run(["gen", "--class", "random", "-n", 12, "-m", 3, "--seed", 3, "-o", out]) == EXIT_OK
    csv_a = tmp_path / "a.csv"
    args = ["bench", out / "manifest.json", "--algos", "exact,nn,fixed_nn",
            "--flag-combos", "all", "-o", csv_a]
    assert run(args) == EXIT_OK
    rows = list(csv.DictReader(csv_a.open()))
    assert list(rows[0].keys()) == CSV_FIELDS
    assert len(rows) == 8 + 1 + 1
    exact_uppers = {r["upper"] for r in rows if r["algorithm"] == "exact"}
    assert len(exact_uppers) == 1
    for r in rows:
        total = float(r["time_total_s"])
        parts = float(r["time_static_s"]) + float(r["time_extend_merge_s"])
        assert parts <= total * 1.05 + 1e-6

    csv_b = tmp_path / "b.csv"
    assert run(["bench", out / "manifest.json", "--algos", "exact,nn,fixed_nn",
                "--flag-combos", "all", "-o", csv_b]) == EXIT_OK
    rows_b = list(csv.DictReader(csv_b.open()))
    keys = ("instance_id", "algorithm", "flags", "upper", "lower", "gap", "iterations")
    assert [{k: r[k] for k in keys} for r in rows] == [{k: r[k] for k in keys} for r in rows_b]


def test_solve_timeout_exit_still_writes_result(tmp_path):
    _, inst_path = gen_one(tmp_path, n=40, m=5, seed=8)
    result = tmp_path / "t.json"
    code = run(["solve", inst_path, "--algo", "exact", "--time-limit", "1e-9",
                "-o", result])
    assert code == 3
    doc = json.loads(result.read_text())
    assert doc["timed_out"] is True
    assert doc["timeline"]["segments"]  # best-effort timeline still present


def far_station_instance(tmp_path):
    """Station 1 at 1e13: station 0's support changes at t ~ 7e-13, which
    float mode's absolute event-time tolerance merges into t = 0."""
    inst = MovingInstance((Point2(0.0, 0.0), Point2(1e13, 0.0)),
                          (Trajectory(Point2(0.0, 0.0), Point2(1e13, 1.0)),
                           Trajectory(Point2(5.0, 5.0), Point2(6.0, 6.0))))
    path = tmp_path / "far.json"
    write_instance(path, inst)
    return path


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_solve_fails_a_result_that_check_rejects(tmp_path, capsys, algo):
    inst_path = far_station_instance(tmp_path)
    result = tmp_path / "r.json"
    assert run(["solve", inst_path, "--algo", algo, "-o", result]) == EXIT_CHECK
    assert "FAIL: infeasible" in capsys.readouterr().out
    assert json.loads(result.read_text())["timeline"]["segments"]  # still written
    assert run(["check", result, inst_path]) == EXIT_CHECK


def test_solve_exact_arith_certifies_the_far_station(tmp_path, capsys):
    inst_path = far_station_instance(tmp_path)
    result = tmp_path / "r.json"
    assert run(["solve", inst_path, "--exact-arith", "-o", result]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    assert run(["check", result, inst_path]) == EXIT_OK


def test_bench_empty_manifest(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"format": "kdc-manifest", "version": 1, "instances": []}))
    out = tmp_path / "empty.csv"
    assert run(["bench", manifest, "-o", out]) == EXIT_OK
    rows = out.read_text().strip().splitlines()
    assert rows == [",".join(CSV_FIELDS)]


def solved_pair(tmp_path, n=8, m=2, seed=0):
    """An instance file, its exact solve's result file and the parsed result."""
    _, inst_path = gen_one(tmp_path, n=n, m=m, seed=seed)
    result = tmp_path / "r.json"
    assert run(["solve", inst_path, "-o", result]) == EXIT_OK
    assert run(["check", result, inst_path]) == EXIT_OK
    return inst_path, result, json.loads(result.read_text())


def check_tampered(tmp_path, inst_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return run(["check", bad, inst_path])


def test_check_rejects_an_assignment_without_every_object(tmp_path):
    inst_path, _, doc = solved_pair(tmp_path)
    doc["timeline"]["assignment"].pop()
    assert check_tampered(tmp_path, inst_path, doc) == EXIT_CHECK


def test_check_rejects_a_support_from_another_station(tmp_path):
    """Station 0's support is replaced by the object of station 1 farthest
    from station 0, which inflates its radius without changing the stored
    objective."""
    inst_path, _, doc = solved_pair(tmp_path)
    inst = read_instance(inst_path)
    tampered = 0
    for seg, raw in zip(result_segments(doc), doc["timeline"]["segments"]):
        others = [j for j, s in enumerate(seg.assignment) if s == 1]
        if seg.supports[0] is None or not others:
            continue
        tm = 0.5 * (seg.t_start + seg.t_end)
        raw["supports"][0] = max(
            others, key=lambda j: squared_distance_poly(inst.stations[0], inst.objects[j])(tm))
        tampered += 1
    assert tampered
    assert check_tampered(tmp_path, inst_path, doc) == EXIT_CHECK


def test_check_derives_the_gap_again_from_the_bounds(tmp_path):
    inst_path, _, doc = solved_pair(tmp_path, n=20, m=3)
    for stored in (doc["gap"] + 0.25, None):
        assert check_tampered(tmp_path, inst_path, dict(doc, gap=stored)) == EXIT_CHECK, stored
    # A gap that is neither null nor a number makes a malformed result.
    assert check_tampered(tmp_path, inst_path, dict(doc, gap="0")) == EXIT_IO
    # A weaker lower bound under the stored, certified gap.
    assert check_tampered(tmp_path, inst_path, dict(doc, lower=0.8 * doc["lower"])) == EXIT_CHECK
    assert check_tampered(tmp_path, inst_path, dict(doc, lower=2 * doc["upper"])) == EXIT_CHECK
    nn = solve_minmax(read_instance(inst_path), SolverConfig(static_backend="nn"))
    nn_doc = json.loads(result_to_json(doc["instance_id"], "nn", ImprovementFlags(), {}, nn))
    assert nn_doc["gap"] is None
    assert check_tampered(tmp_path, inst_path, nn_doc) == EXIT_OK
    assert check_tampered(tmp_path, inst_path, dict(nn_doc, gap=0.0)) == EXIT_CHECK


def drop_timeline(doc):
    del doc["timeline"]


def move_unknown_object(doc):
    doc["timeline"]["segments"][1]["moves"].append([len(doc["timeline"]["assignment"]), 0])


def support_unknown_object(doc):
    doc["timeline"]["segments"][0]["supports"][0] = len(doc["timeline"]["assignment"])


def assign_unknown_station(doc):
    doc["timeline"]["assignment"][0] = len(doc["timeline"]["segments"][0]["supports"])


def assign_a_list(doc):
    doc["timeline"]["assignment"][0] = [0]


def move_to_a_list(doc):
    doc["timeline"]["segments"][1]["moves"].append([0, [0]])


def spell_a_time(doc):
    doc["timeline"]["segments"][0]["t_start"] = "zero"


def times_as_text(doc):
    for seg in doc["timeline"]["segments"]:
        seg["t_start"], seg["t_end"] = repr(seg["t_start"]), repr(seg["t_end"])


def objective_as_text(doc):
    for seg in doc["timeline"]["segments"]:
        seg["objective"] = [repr(c) for c in seg["objective"]]


def start_at_false(doc):
    doc["timeline"]["segments"][0]["t_start"] = False


def spell_the_upper_bound(doc):
    doc["upper"] = "big"


def upper_as_true(doc):
    doc["upper"] = True


def lower_as_true(doc):
    doc["lower"] = True


def gap_as_true(doc):
    doc["gap"] = True


def claim_another_format(doc):
    doc["format"] = "kdc-instance"


def empty_the_timeline(doc):
    doc["timeline"]["segments"] = []


def end_past_the_horizon(doc):
    doc["timeline"]["segments"][-1]["t_end"] = 2.0


def repeat_the_first_segment(doc):
    segments = doc["timeline"]["segments"]
    segments.insert(0, dict(segments[0]))


def run_a_segment_backwards(doc):
    """The first segment [a, b] split into [a, x], [x, y], [y, b] with y < x:
    each segment starts where the last one ended, but the middle one runs
    back in time."""
    first = doc["timeline"]["segments"][0]
    a, b = first["t_start"], first["t_end"]
    x, y = a + 0.6 * (b - a), a + 0.3 * (b - a)
    pieces = [dict(first, t_start=s, t_end=e) for s, e in ((a, x), (x, y), (y, b))]
    pieces[1]["moves"] = pieces[2]["moves"] = []
    doc["timeline"]["segments"][:1] = pieces


@pytest.mark.parametrize("tamper, code", [
    (drop_timeline, EXIT_IO),
    (move_unknown_object, EXIT_IO),
    (assign_a_list, EXIT_IO),
    (move_to_a_list, EXIT_IO),
    (spell_a_time, EXIT_IO),
    (times_as_text, EXIT_IO),
    (objective_as_text, EXIT_IO),
    (start_at_false, EXIT_IO),
    (spell_the_upper_bound, EXIT_IO),
    (upper_as_true, EXIT_IO),
    (lower_as_true, EXIT_IO),
    (gap_as_true, EXIT_IO),
    (claim_another_format, EXIT_IO),
    (support_unknown_object, EXIT_CHECK),
    (assign_unknown_station, EXIT_CHECK),
    (empty_the_timeline, EXIT_CHECK),
    (end_past_the_horizon, EXIT_CHECK),
    (repeat_the_first_segment, EXIT_CHECK),
    (run_a_segment_backwards, EXIT_CHECK),
])
def test_check_reports_malformed_results_without_traceback(tmp_path, capsys, tamper, code):
    inst_path, _, doc = solved_pair(tmp_path)
    tamper(doc)
    capsys.readouterr()
    assert check_tampered(tmp_path, inst_path, doc) == code
    out = capsys.readouterr()
    if code == EXIT_IO:
        assert out.err.startswith("cannot read inputs:")
        assert len(out.err.strip().splitlines()) == 1
    else:
        assert out.out.startswith("FAIL:")


def support_a_negative_index(doc):
    doc["timeline"]["segments"][0]["supports"][0] = -1


def support_one_station_too_many(doc):
    doc["timeline"]["segments"][0]["supports"].append(None)


def support_by_name(doc):
    doc["timeline"]["segments"][0]["supports"][0] = "0"


@pytest.mark.parametrize("tamper", [support_unknown_object, support_a_negative_index,
                                    support_one_station_too_many, support_by_name])
def test_render_reports_supports_that_index_nothing(tmp_path, capsys, tamper):
    inst_path, result, doc = solved_pair(tmp_path)
    tamper(doc)
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["render", inst_path, "--result", result, "-o", tmp_path / "svg"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("cannot read inputs:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "svg").exists()


def test_bench_writes_a_failed_row_for_a_missing_instance(tmp_path):
    out, _ = gen_one(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    missing = dict(manifest["instances"][0], id="gone", path="gone.json")
    manifest["instances"].append(missing)
    (out / "manifest.json").write_text(json.dumps(manifest))
    csv_path = tmp_path / "b.csv"
    assert run(["bench", out / "manifest.json", "--algos", "nn", "-o", csv_path]) == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[2] == (f"gone,{missing['n']},{missing['m']},{missing['seed']},random,nn,none,"
                        "nan,nan,nan,0,0,0.000000,0.000000,0.000000,true")


def test_render_rejects_non_numeric_times(tmp_path, capsys):
    _, inst_path = gen_one(tmp_path)
    capsys.readouterr()
    assert run(["render", inst_path, "--times", "abc", "-o", tmp_path / "svg"]) == EXIT_USAGE
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("field, value", [
    ("upper", math.inf), ("upper", -math.inf), ("upper", math.nan), ("lower", -math.inf),
])
def test_check_rejects_bounds_that_are_not_finite(tmp_path, capsys, field, value):
    """An nn result stores no gap (its lower bound is 0), and neither does
    the same result with one bound made infinite or NaN."""
    _, inst_path = gen_one(tmp_path, n=20, m=3)
    result = tmp_path / "nn.json"
    assert run(["solve", inst_path, "--algo", "nn", "-o", result]) == EXIT_OK
    doc = json.loads(result.read_text())
    assert doc["gap"] is None
    capsys.readouterr()
    assert check_tampered(tmp_path, inst_path, dict(doc, **{field: value})) == EXIT_CHECK
    assert capsys.readouterr().out.startswith("FAIL: stored bounds are not finite")


def assert_one_error_line(capsys, code, expected):
    assert code == expected
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_gen_and_render_report_an_output_path_that_is_a_file(tmp_path, capsys):
    _, inst_path = gen_one(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    capsys.readouterr()
    assert_one_error_line(capsys, run(["gen", "-o", taken]), EXIT_IO)
    assert_one_error_line(capsys, run(["render", inst_path, "-o", taken]), EXIT_IO)
    missing = tmp_path / "missing" / "r.json"
    assert_one_error_line(capsys, run(["solve", inst_path, "-o", missing]), EXIT_IO)


@pytest.mark.parametrize("manifest", [
    [],
    {"instances": {}},
    {"instances": ["a.json"]},
    "drop_id",
])
def test_bench_rejects_a_malformed_manifest_before_solving(tmp_path, capsys, manifest):
    out, _ = gen_one(tmp_path)
    if manifest == "drop_id":
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["instances"].append(dict(manifest["instances"][0]))
        del manifest["instances"][1]["id"]
    path = out / "bad.json"
    path.write_text(json.dumps(manifest))
    csv_path = tmp_path / "b.csv"
    capsys.readouterr()
    assert_one_error_line(capsys, run(["bench", path, "-o", csv_path]), EXIT_IO)
    assert not csv_path.exists()


@pytest.mark.parametrize("scale", ["inf", "nan", -1, 0])
def test_gen_rejects_a_scale_that_is_not_finite_and_positive(tmp_path, capsys, scale):
    out = tmp_path / "set"
    assert_one_error_line(capsys, run(["gen", "--set", "fix", "--scale", scale, "-o", out]),
                          EXIT_USAGE)
    assert not out.exists()


def test_gen_reports_lengths_no_trajectory_can_take(tmp_path, capsys):
    """Valid lengths, but a trajectory of 141 inside a 100 x 100 canvas
    must run corner to corner, which resampling does not find."""
    code = run(["gen", "-n", 5, "-m", 1, "--len-min", 141, "--len-max", 141.4,
                "-o", tmp_path / "x"])
    assert_one_error_line(capsys, code, EXIT_USAGE)


def test_gen_manifest_names_the_set_only_for_a_set(tmp_path):
    out, _ = gen_one(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == ["format", "version", "instances"]
    assert [e["id"] for e in manifest["instances"]] == ["random_n10_m3_s5"]
    out = tmp_path / "set"
    assert run(["gen", "--set", "fix", "--scale", 0.1, "--seed", 2, "-o", out]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == ["format", "version", "set", "scale", "instances"]
    assert (manifest["set"], manifest["scale"]) == ("fix", 0.1)
    assert [e["seed"] for e in manifest["instances"]] == list(range(2, 27))


def test_bench_opens_its_output_before_solving(tmp_path, capsys, monkeypatch):
    from kdcover import cli

    out, _ = gen_one(tmp_path)
    solve, calls = cli.run_algorithm, []
    monkeypatch.setattr(cli, "run_algorithm", lambda *a: calls.append(a) or solve(*a))
    csv_path = tmp_path / "missing" / "b.csv"
    capsys.readouterr()
    assert_one_error_line(capsys, run(["bench", out / "manifest.json", "-o", csv_path]), EXIT_IO)
    assert calls == []
    assert run(["bench", out / "manifest.json", "--algos", "nn", "-o", tmp_path / "b.csv"]) \
        == EXIT_OK
    assert len(calls) == 1


def test_solve_opens_its_output_before_solving(tmp_path, capsys, monkeypatch):
    from kdcover import cli

    _, inst_path = gen_one(tmp_path)
    solve, calls = cli.run_algorithm, []
    monkeypatch.setattr(cli, "run_algorithm", lambda *a: calls.append(a) or solve(*a))
    capsys.readouterr()
    missing = tmp_path / "missing" / "r.json"
    assert_one_error_line(capsys, run(["solve", inst_path, "--algo", "nn", "-o", missing]),
                          EXIT_IO)
    assert calls == []
    assert run(["solve", inst_path, "--algo", "nn", "-o", tmp_path / "r.json"]) == EXIT_OK
    assert len(calls) == 1


def test_bench_keeps_the_rows_of_an_interrupted_run(tmp_path, monkeypatch):
    from kdcover import cli

    out, _ = gen_one(tmp_path)
    solve, calls = cli.run_algorithm, []

    def interrupted_at_the_second_cell(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return solve(*args)

    monkeypatch.setattr(cli, "run_algorithm", interrupted_at_the_second_cell)
    csv_path = tmp_path / "b.csv"
    with pytest.raises(KeyboardInterrupt):
        run(["bench", out / "manifest.json", "--algos", "nn,fixed_nn", "-o", csv_path])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert [line.split(",")[5] for line in lines[1:]] == ["nn"]


@pytest.mark.parametrize("field, value", [
    ("metadata", ["x"]), ("canvas", ["5"]), ("stations", []),
    ("stations", [["0.0", "0.0"], ["1e+200", "0.0"], ["0.0", "0.0"]]),
])
def test_a_malformed_instance_file_is_an_io_error(tmp_path, capsys, field, value):
    _, inst_path = gen_one(tmp_path)
    result = tmp_path / "r.json"
    assert run(["solve", inst_path, "--algo", "nn", "-o", result]) == EXIT_OK
    doc = json.loads(inst_path.read_text())
    inst_path.write_text(json.dumps(dict(doc, **{field: value})))
    capsys.readouterr()
    assert_one_error_line(capsys, run(["solve", inst_path, "-o", tmp_path / "x.json"]), EXIT_IO)
    assert_one_error_line(capsys, run(["check", result, inst_path]), EXIT_IO)
    assert_one_error_line(capsys, run(["render", inst_path, "-o", tmp_path / "svg"]), EXIT_IO)
    assert not (tmp_path / "x.json").exists()


def test_module_entry_point_and_a_light_import(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "gen"
    proc = subprocess.run([sys.executable, "-m", "kdcover", "gen", "-n", "4", "-m", "2",
                           "-o", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads((out / "manifest.json").read_text())["instances"][0]["n"] == 4
    # Every command imports kdcover.cli; no process pool rides along.
    probe = ("import sys, kdcover.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_solves_and_checks_with_the_standard_library_alone():
    # The package is pure standard library: with scipy and numpy blocked
    # from import it still imports, solves and verifies its own result.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = textwrap.dedent("""\
        import json, sys
        sys.modules["scipy"] = sys.modules["numpy"] = None
        import kdcover
        from kdcover import cli
        from kdcover.instances import GenParams, generate
        from kdcover.kinetic import ImprovementFlags
        instance = generate(GenParams(n=12, m=3, seed=1))
        flags = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)
        result = kdcover.solve_minmax(instance, kdcover.SolverConfig(flags=flags))
        doc = json.loads(cli.result_to_json("probe", "exact", flags, {}, result))
        print(result.stats.stop_reason, cli.verify_result(doc, instance, 200))
    """)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["gap", "[]"]


# -- the checker against the code it replaced ------------------------------------


def reference_result_to_json(instance_id, algorithm, flags, config, result):
    """The writer as first written: the whole document through
    `json.dumps(doc, indent=2)`, each move found by a scan over every object."""
    tl = result.timeline
    doc = {
        "format": certificate.RESULT_FORMAT,
        "version": certificate.RESULT_VERSION,
        "instance_id": instance_id,
        "algorithm": algorithm,
        "flags": {field: getattr(flags, field) for field in cli.FLAG_FIELDS.values()},
        "config": config,
        "upper": result.upper,
        "lower": result.lower,
        "gap": None if math.isinf(result.gap) else result.gap,
        "iterations": result.iterations,
        "timed_out": result.timed_out,
        "stats": {
            "time_static_s": result.stats.time_static,
            "time_extend_merge_s": result.stats.time_extend_merge,
            "time_total_s": result.stats.time_total,
            "static_solves": result.stats.static_solves,
            "events_processed": result.stats.events_processed,
            "stop_reason": result.stats.stop_reason,
        },
        "timeline": {
            "value": float(tl.value),
            "assignment": list(tl.segments[0].assignment),
            "segments": [
                {
                    "t_start": float(seg.t_start),
                    "t_end": float(seg.t_end),
                    "moves": [
                        [j, s] for j, (p, s) in enumerate(zip(prev.assignment, seg.assignment))
                        if p != s
                    ],
                    "supports": list(seg.supports),
                    "objective": [float(seg.poly.a), float(seg.poly.b), float(seg.poly.c)],
                }
                for prev, seg in zip(tl.segments[:1] + tl.segments[:-1], tl.segments)
            ],
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def valid_results():
    """(instance, algorithm, flags, result) of nn with every flag, fixed_nn,
    exact and exact-arithmetic solves."""
    inst = generate(GenParams(n=30, m=4, seed=3))
    small = generate(GenParams(n=10, m=3, seed=2))
    flags = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)
    return [
        (inst, "nn", flags, solve_minmax(inst, SolverConfig(static_backend="nn", flags=flags))),
        (inst, "fixed_nn", ImprovementFlags(), fixed_nn_baseline(inst, k=10)),
        (inst, "exact", flags, solve_minmax(inst, SolverConfig(flags=flags))),
        (small, "exact", flags, solve_minmax(small, SolverConfig(flags=flags,
                                                                 exact_arithmetic=True))),
    ]


def test_result_file_holds_the_reference_document_one_segment_per_line():
    for inst, algorithm, flags, result in valid_results():
        text = result_to_json("x", algorithm, flags, {"k": 1}, result)
        want = reference_result_to_json("x", algorithm, flags, {"k": 1}, result)
        doc = json.loads(text)
        assert doc == json.loads(want)
        lines = text.splitlines()
        start = lines.index('    "segments": [')
        assert lines[:start + 1] == want.splitlines()[:start + 1]  # the header as indented
        count = len(result.timeline.segments)
        assert [json.loads(line.rstrip(",")) for line in lines[start + 1:start + 1 + count]] \
            == doc["timeline"]["segments"]
        assert lines[start + 1 + count:] == ["    ]", "  }", "}"] and text.endswith("}\n")
        assert len(text) < len(want)


def tie_instance(swap):
    """Station 0 holds objects a and b: a runs (-2, 3) -> (2, 3) and b sits
    at (0, 3), so a is farther except at t = 1/2, where they tie; station 1
    holds one object.  With `swap` b comes first, and the lowest index at
    the tie is not the support."""
    a = Trajectory(Point2(-2, 3), Point2(2, 3))
    b = Trajectory(Point2(0, 3), Point2(0, 3))
    return MovingInstance((Point2(0, 0), Point2(20, 0)),
                          (b, a) if swap else (a, b),
                          (Trajectory(Point2(18, 0), Point2(18, 2)),))


def test_verify_passes_valid_results_and_a_midpoint_tie():
    for inst, algorithm, flags, result in valid_results():
        doc = json.loads(result_to_json("x", algorithm, flags, {}, result))
        for instance in (inst, inst.as_exact()):
            assert cli.verify_result(doc, instance) == [], algorithm
    for swap in (False, True):
        inst = tie_instance(swap)
        result = solve_minmax(inst, SolverConfig(static_backend="nn"))
        doc = json.loads(result_to_json("tie", "nn", ImprovementFlags(), {}, result))
        seg = result_segments(doc)[0]
        assert 0.5 * (seg.t_start + seg.t_end) == 0.5 and seg.assignment[:2] == (0, 0)
        # The stored support ties with the other member at the midpoint;
        # with b first it is not the lowest index there, and passes too.
        assert cli.verify_result(doc, inst) == []


def shift_to_the_next_station(doc):
    tl = doc["timeline"]
    m = len(tl["segments"][0]["supports"])
    tl["assignment"] = [(s + 1) % m for s in tl["assignment"]]
    for seg in tl["segments"]:
        seg["moves"] = [[j, (s + 1) % m] for j, s in seg["moves"]]


def bump_a_coefficient(doc):
    doc["timeline"]["segments"][0]["objective"][2] += 5.0


def support_from_the_other_station(doc):
    """Station 0's support, in each segment without moves, replaced by the
    last object that the first assignment puts on station 1."""
    for raw in doc["timeline"]["segments"]:
        others = [j for j, s in enumerate(doc["timeline"]["assignment"]) if s == 1]
        if raw["supports"][0] is not None and others and not raw["moves"]:
            raw["supports"][0] = others[-1]


EXISTING_TAMPERS = [
    drop_timeline, move_unknown_object, assign_a_list, move_to_a_list, spell_a_time,
    spell_the_upper_bound, claim_another_format, support_unknown_object,
    assign_unknown_station, empty_the_timeline, end_past_the_horizon,
    repeat_the_first_segment, run_a_segment_backwards, support_a_negative_index,
    support_one_station_too_many, support_by_name, shift_to_the_next_station,
    bump_a_coefficient, support_from_the_other_station,
    lambda doc: doc.update(gap=doc["gap"] + 0.25), lambda doc: doc.update(gap=None),
    lambda doc: doc.update(lower=0.8 * doc["lower"]),
    lambda doc: doc.update(lower=2 * doc["upper"]),
    lambda doc: doc.update(upper=math.inf), lambda doc: doc.update(upper=math.nan),
    lambda doc: doc.update(lower=-math.inf),
]


def test_every_tamper_keeps_its_verdict(tmp_path):
    """Each tamper on `solved_pair`'s result keeps the verdict that
    `verify_result` gave it with the sampled check and the midpoint derive:
    the tampers in `raises` raise FormatError; `claim_another_format` passes,
    because the format tag is `load_result`'s to check; every other tamper
    is reported as a problem."""
    raises = {drop_timeline, move_unknown_object, assign_a_list, move_to_a_list, spell_a_time,
              spell_the_upper_bound, drop_value, value_as_text, value_true,
              station_one_as_true, move_true_in_place, upper_as_true, lower_as_true,
              gap_as_true}
    inst_path, _, clean = solved_pair(tmp_path)
    inst = read_instance(inst_path)
    for tamper in EXISTING_TAMPERS + NEW_TAMPERS:
        doc = json.loads(json.dumps(clean))
        tamper(doc)
        if tamper in raises:
            with pytest.raises(cli.FormatError):
                cli.verify_result(doc, inst)
        elif tamper is claim_another_format:
            assert cli.verify_result(doc, inst) == [], tamper
        else:
            assert cli.verify_result(doc, inst) != [], tamper


# -- values that are not finite, the stored peak value, booleans ------------------


def nan_objective(doc):
    doc["timeline"]["segments"][0]["objective"] = [math.nan] * 3


def inf_constant(doc):
    doc["timeline"]["segments"][-1]["objective"][2] = math.inf


def minus_inf_constant(doc):
    doc["timeline"]["segments"][-1]["objective"][2] = -math.inf


def value_one(doc):
    doc["timeline"]["value"] = 1.0


def value_inf(doc):
    doc["timeline"]["value"] = math.inf


def value_nan(doc):
    doc["timeline"]["value"] = math.nan


def drop_value(doc):
    del doc["timeline"]["value"]


def value_as_text(doc):
    doc["timeline"]["value"] = str(doc["timeline"]["value"])


def value_true(doc):
    doc["timeline"]["value"] = True


def station_one_as_true(doc):
    tl = doc["timeline"]
    tl["assignment"] = [True if s == 1 else s for s in tl["assignment"]]
    for seg in tl["segments"]:
        seg["moves"] = [[j, True if s == 1 else s] for j, s in seg["moves"]]


def move_true_in_place(doc):
    """A move of object `true` to the station that object 1 holds."""
    station = result_segments(doc)[1].assignment[1]
    doc["timeline"]["segments"][1]["moves"].append([True, station])


def supports_as_booleans(doc):
    for seg in doc["timeline"]["segments"]:
        seg["supports"] = [{0: False, 1: True}.get(sup, sup) for sup in seg["supports"]]


def shift_a_support_change_earlier(doc):
    """The first support change whose two segments are longer than 1e-4,
    moved 1e-4 earlier: the new support sets the radius before it is the
    farthest member."""
    segments = doc["timeline"]["segments"]
    for prev, seg in zip(segments, segments[1:]):
        if prev["supports"] != seg["supports"] and not seg["moves"] \
                and min(prev["t_end"] - prev["t_start"], seg["t_end"] - seg["t_start"]) > 1e-4:
            prev["t_end"] -= 1e-4
            seg["t_start"] -= 1e-4
            return
    raise AssertionError("no support change to shift")


NEW_TAMPERS = [nan_objective, inf_constant, minus_inf_constant, value_one, value_inf,
               value_nan, drop_value, value_as_text, value_true, station_one_as_true,
               move_true_in_place, supports_as_booleans, upper_as_true, lower_as_true,
               gap_as_true]


@pytest.fixture(scope="module")
def nn_pair(tmp_path_factory):
    """An nn result with every flag, whose moves hold station 1, and its
    instance."""
    tmp_path = tmp_path_factory.mktemp("nn")
    _, inst_path = gen_one(tmp_path, n=30, m=4, seed=3)
    result = tmp_path / "r.json"
    assert run(["solve", inst_path, "--algo", "nn", "--flags", "nodup,impext,partext",
                "-o", result]) == EXIT_OK
    assert run(["check", result, inst_path]) == EXIT_OK
    doc = json.loads(result.read_text())
    segments = doc["timeline"]["segments"]
    assert any(s == 1 for seg in segments for _, s in seg["moves"])
    return inst_path, doc


@pytest.mark.parametrize("tamper, code, message", [
    (nan_objective, EXIT_CHECK, "FAIL: segment 0: objective is not finite"),
    (inf_constant, EXIT_CHECK, "segment {last}: objective is not finite"),
    (minus_inf_constant, EXIT_CHECK, "segment {last}: objective is not finite"),
    (value_one, EXIT_CHECK, "FAIL: stored timeline value 1.0 != timeline peak"),
    (value_inf, EXIT_CHECK, "FAIL: stored timeline value inf != timeline peak"),
    (value_nan, EXIT_CHECK, "FAIL: stored timeline value nan != timeline peak"),
    (drop_value, EXIT_IO, "cannot read inputs: malformed timeline: value None"),
    (value_as_text, EXIT_IO, "cannot read inputs: malformed timeline: value '"),
    (value_true, EXIT_IO, "cannot read inputs: malformed timeline: value True"),
    (station_one_as_true, EXIT_IO, "cannot read inputs: malformed timeline: TypeError"),
    (move_true_in_place, EXIT_IO, "cannot read inputs: malformed timeline: IndexError"),
    (shift_a_support_change_earlier, EXIT_CHECK, "infeasible: violation"),
])
def test_check_fails_what_it_used_to_pass(tmp_path, capsys, nn_pair, tamper, code, message):
    inst_path, clean = nn_pair
    doc = json.loads(json.dumps(clean))
    tamper(doc)
    capsys.readouterr()
    assert check_tampered(tmp_path, inst_path, doc) == code
    out = capsys.readouterr()
    message = message.format(last=len(doc["timeline"]["segments"]) - 1)
    assert message in (out.out if code == EXIT_CHECK else out.err)


HUGE = 10 ** 400  # an int that JSON holds and a double does not


def huge_t_start(doc):
    doc["timeline"]["segments"][0]["t_start"] = HUGE


@pytest.mark.parametrize("tamper, code, message", [
    (lambda doc: doc.update(upper=HUGE), EXIT_CHECK, "FAIL: stored bounds are not finite"),
    (lambda doc: doc.update(lower=HUGE), EXIT_CHECK, "FAIL: stored bounds are not finite"),
    (lambda doc: doc.update(lower=-HUGE), EXIT_CHECK, "FAIL: stored bounds are not finite"),
    (lambda doc: doc["timeline"].update(value=HUGE), EXIT_CHECK,
     f"FAIL: stored timeline value {HUGE} != timeline peak"),
    (lambda doc: doc.update(gap=HUGE), EXIT_CHECK, f"FAIL: stored gap {HUGE} != gap "),
    (huge_t_start, EXIT_IO, "cannot read inputs: malformed timeline: OverflowError"),
], ids=["upper", "lower", "-lower", "value", "gap", "t_start"])
def test_check_fails_integers_beyond_the_float_range(tmp_path, capsys, tamper, code, message):
    inst_path, _, clean = solved_pair(tmp_path)
    assert clean["gap"] is not None
    doc = json.loads(json.dumps(clean))
    tamper(doc)
    capsys.readouterr()
    assert check_tampered(tmp_path, inst_path, doc) == code
    out = capsys.readouterr()
    assert (out.out if code == EXIT_CHECK else out.err).startswith(message)


def test_check_fails_supports_written_as_booleans(tmp_path, capsys):
    inst_path, _, doc = solved_pair(tmp_path)
    assert {0, 1} <= {sup for seg in doc["timeline"]["segments"] for sup in seg["supports"]}
    supports_as_booleans(doc)
    capsys.readouterr()
    assert check_tampered(tmp_path, inst_path, doc) == EXIT_CHECK
    assert "assignment or supports do not fit" in capsys.readouterr().out



# 5000 digits, past the length Python's int parser takes; `json.dumps`
# cannot write it either, so it is spliced into the text.
LONG = "9" * 5000


def with_long_integer(doc):
    return json.dumps(doc).replace('"LONG"', LONG)


def test_check_reports_integers_too_long_to_parse(tmp_path, capsys, nn_pair):
    """`json` raises a plain ValueError on an integer longer than Python's
    int conversion limit, not a JSONDecodeError; each file is malformed."""
    inst_path, clean = nn_pair
    doc = json.loads(json.dumps(clean))
    doc["upper"] = "LONG"
    bad = tmp_path / "bad.json"
    bad.write_text(with_long_integer(doc))
    capsys.readouterr()
    assert run(["check", bad, inst_path]) == EXIT_IO
    assert capsys.readouterr().err.startswith("cannot read inputs: not valid JSON:")

    result = tmp_path / "r.json"
    result.write_text(json.dumps(clean))
    instance = json.loads(inst_path.read_text())
    instance["objects"][0]["start"][0] = "LONG"
    long_inst = tmp_path / "long.json"
    long_inst.write_text(with_long_integer(instance))
    assert run(["check", result, long_inst]) == EXIT_IO
    assert capsys.readouterr().err.startswith("cannot read inputs: not valid JSON:")


def test_bench_reports_a_manifest_integer_too_long_to_parse(tmp_path, capsys):
    out, _ = gen_one(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["instances"][0]["seed"] = "LONG"
    path = out / "long.json"
    path.write_text(with_long_integer(manifest))
    csv_path = tmp_path / "b.csv"
    capsys.readouterr()
    assert_one_error_line(capsys, run(["bench", path, "-o", csv_path]), EXIT_IO)
    assert not csv_path.exists()
