import csv
import json
import math

import pytest

from kdcover.cli import (
    CSV_FIELDS,
    EXIT_CHECK,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    flags_label,
    main,
    parse_flags,
    result_segments,
    result_to_json,
)
from kdcover.geometry import squared_distance_poly
from kdcover.instances import GenParams, generate, read_instance
from kdcover.kinetic import ImprovementFlags
from kdcover.minmax import SolverConfig, solve_minmax


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
                ["--time-limit", -5], ["--time-limit", "nan"], ["--jobs", 0], ["--jobs", -1]):
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
    for dead in (["--flags", "nodup"], ["--algo=nn", "--flags=nodup"]):
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


def test_result_timeline_round_trips_through_moves():
    inst = generate(GenParams(n=60, m=6, seed=4))
    flags = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)
    result = solve_minmax(inst, SolverConfig(static_backend="nn", flags=flags))
    doc = json.loads(result_to_json("x", "nn", flags, {}, result))
    segs = result.timeline.segments
    assert len(segs) > 5
    assert [(s.t_start, s.t_end, s.assignment, s.supports) for s in result_segments(doc)] == [
        (s.t_start, s.t_end, s.assignment, s.supports) for s in segs
    ]
    # Only the objects that change station are stored after the first segment.
    stored = doc["timeline"]["segments"]
    assert stored[0]["moves"] == []
    for prev, seg, raw in zip(segs, segs[1:], stored[1:]):
        changed = [j for j, (a, b) in enumerate(zip(prev.assignment, seg.assignment)) if a != b]
        assert [j for j, _ in raw["moves"]] == changed


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
    for samples in (0, -3):
        assert run(["check", result, inst_path, "--samples", samples]) == EXIT_USAGE


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
    for stored in (doc["gap"] + 0.25, None, "0"):
        assert check_tampered(tmp_path, inst_path, dict(doc, gap=stored)) == EXIT_CHECK, stored
    # A weaker lower bound under the stored, certified gap.
    assert check_tampered(tmp_path, inst_path, dict(doc, lower=0.8 * doc["lower"])) == EXIT_CHECK
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


def spell_a_time(doc):
    doc["timeline"]["segments"][0]["t_start"] = "zero"


def spell_the_upper_bound(doc):
    doc["upper"] = "big"


@pytest.mark.parametrize("tamper, code", [
    (drop_timeline, EXIT_IO),
    (move_unknown_object, EXIT_IO),
    (spell_a_time, EXIT_IO),
    (spell_the_upper_bound, EXIT_IO),
    (support_unknown_object, EXIT_CHECK),
    (assign_unknown_station, EXIT_CHECK),
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
