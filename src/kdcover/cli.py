"""Command line interface: gen, solve, bench, check, render.

Result files are written, read and checked by `certificate`.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path

from .certificate import _is_index, load_result, result_segments, result_to_json, verify_result
from .geometry import MovingInstance, squared_distance_poly
from .instances import (
    CLASSES,
    FormatError,
    GenerationError,
    GenParams,
    generate,
    parse_json,
    read_instance,
    write_instance,
)
from .kinetic import ImprovementFlags
from .minmax import KineticResult, SolverConfig, fixed_nn_baseline, solve_minmax

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_CHECK = 4
EXIT_IO = 5

ALGORITHMS = ("exact", "nn", "fixed_nn")

CSV_FIELDS = [
    "instance_id",
    "n",
    "m",
    "seed",
    "class",
    "algorithm",
    "flags",
    "upper",
    "lower",
    "gap",
    "iterations",
    "static_solves",
    "time_static_s",
    "time_extend_merge_s",
    "time_total_s",
    "timed_out",
]

# Desk-scale default: the full-size benchmark schedules times this factor.
DEFAULT_SCALE = 0.2

# Command-line label of each improvement flag -> its ImprovementFlags field.
FLAG_FIELDS = {"nodup": "no_dup", "impext": "imp_ext", "partext": "part_ext"}

# The manifest entry fields `bench` reads.
MANIFEST_FIELDS = ("id", "path", "n", "m", "seed", "class")


def flags_label(flags: ImprovementFlags) -> str:
    return "+".join(label for label, field in FLAG_FIELDS.items()
                    if getattr(flags, field)) or "none"


def parse_flags(text: str) -> ImprovementFlags:
    if not text or text == "none":
        return ImprovementFlags()
    values = {}
    for token in text.replace("+", ",").split(","):
        token = token.strip().lower()
        if token not in FLAG_FIELDS:
            raise argparse.ArgumentTypeError(f"unknown flag {token!r}")
        values[FLAG_FIELDS[token]] = True
    return ImprovementFlags(**values)


# -- gen ---------------------------------------------------------------------


def _schedule(set_name: str, scale: float):
    """Benchmark set schedules, scaled.  Yields (n, m, count)."""
    def sc(v):
        return max(1, round(v * scale))

    if set_name == "fix":
        yield sc(500), sc(25), 25
    elif set_name == "fix_n":
        for m in range(5, 51, 5):
            yield sc(500), sc(m), 10
    elif set_name == "fix_m":
        for n in range(50, 501, 50):
            yield sc(n), sc(25), 10
    else:
        raise ValueError(f"unknown set {set_name!r}")


def cmd_gen(args) -> int:
    """Write the instances of a benchmark set, or one instance (a one-entry
    schedule named after its class), and their manifest."""
    if not (math.isfinite(args.scale) and args.scale > 0):
        print(f"--scale must be finite and positive, got {args.scale}", file=sys.stderr)
        return EXIT_USAGE
    if args.set:
        prefix, schedule = args.set, _schedule(args.set, args.scale)
    else:
        prefix, schedule = args.instance_class, [(args.n, args.m, 1)]
    out = Path(args.output)
    entries = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        sizes = [(n, m) for n, m, count in schedule for _ in range(count)]
        for seed, (n, m) in enumerate(sizes, start=args.seed):
            params = GenParams(
                n=n, m=m, seed=seed,
                len_min=args.len_min, len_max=args.len_max,
                instance_class=args.instance_class,
            )
            inst = generate(params)
            name = f"{prefix}_n{n}_m{m}_s{seed}"
            inst.metadata["id"] = name
            write_instance(out / f"{name}.json", inst)
            entries.append({"id": name, "path": f"{name}.json", "n": n, "m": m,
                            "seed": seed, "class": args.instance_class})
        manifest = {"format": "kdc-manifest", "version": 1,
                    **({"set": args.set, "scale": args.scale} if args.set else {}),
                    "instances": entries}
        with open(out / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except (ValueError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(entries)} instance(s) + manifest.json to {out}")
    return EXIT_OK


# -- solve -------------------------------------------------------------------


def _instance_id(path, instance: MovingInstance) -> str:
    return str(instance.metadata.get("id", Path(path).stem))


def _other_instance(doc, path, instance: MovingInstance) -> str | None:
    """The usage error when the result is for another instance, or None."""
    instance_id = _instance_id(path, instance)
    if doc["instance_id"] != instance_id:
        return f"result is for {doc['instance_id']!r}, instance is {instance_id!r}"
    return None


def solver_options_error(args) -> str | None:
    """The usage error in the solver options, or None.  Checked before any
    solve, so that a bad option fails at once rather than in a solver."""
    if args.k < 1:
        return f"--k must be at least 1, got {args.k}"
    for option, field, value in (("--gap", "target_gap", args.gap),
                                 ("--time-limit", "time_limit", args.time_limit)):
        try:
            SolverConfig(**{field: value})
        except ValueError as exc:
            return f"{option}: {exc}"
    return None


def run_algorithm(instance: MovingInstance, algorithm: str, flags: ImprovementFlags,
                  args) -> KineticResult:
    if algorithm == "fixed_nn":
        return fixed_nn_baseline(instance, k=args.k, exact_arithmetic=args.exact_arith)
    config = SolverConfig(
        static_backend="nn" if algorithm == "nn" else "exact",
        flags=flags,
        target_gap=args.gap,
        time_limit=args.time_limit,
        exact_arithmetic=args.exact_arith,
    )
    return solve_minmax(instance, config)


def cmd_solve(args) -> int:
    problem = solver_options_error(args)
    if problem:
        print(problem, file=sys.stderr)
        return EXIT_USAGE
    try:
        instance = read_instance(args.instance)
    except (OSError, FormatError) as exc:
        print(f"cannot read instance: {exc}", file=sys.stderr)
        return EXIT_IO
    flags = args.flags
    instance_id = _instance_id(args.instance, instance)
    config = {
        "target_gap": args.gap,
        "time_limit": args.time_limit,
        "exact_arithmetic": args.exact_arith,
        "k": args.k,
    }
    out = args.output or (Path(args.instance).with_suffix("").name + ".result.json")
    try:
        # Open the output first, so that an unwritable path costs no solve.
        with open(out, "w", encoding="utf-8") as fh:
            result = run_algorithm(instance, args.algo, flags, args)
            text = result_to_json(instance_id, args.algo, flags, config, result)
            fh.write(text)
    except OSError as exc:
        print(f"cannot write result: {exc}", file=sys.stderr)
        return EXIT_IO
    gap_text = "unavailable" if math.isinf(result.gap) else f"{result.gap:.3e}"
    print(
        f"{instance_id}: algo={args.algo} flags={flags_label(flags)} "
        f"upper={result.upper:.6f} lower={result.lower:.6f} gap={gap_text} "
        f"iters={result.iterations} segments={len(result.timeline.segments)} "
        f"time={result.stats.time_total:.2f}s -> {out}"
    )
    # A result that `check` would reject is a failed solve, timed out or not.
    problems = verify_result(parse_json(text), instance)
    if problems:
        _print_problems(problems)
        return EXIT_CHECK
    return EXIT_TIMEOUT if result.timed_out else EXIT_OK


# -- bench -------------------------------------------------------------------


def _bench_cell(manifest_dir: Path, entry: dict, algorithm: str, flag_text: str, args) -> dict:
    """One CSV row, keyed by CSV_FIELDS."""
    row = {
        "instance_id": entry["id"], "n": entry["n"], "m": entry["m"], "seed": entry["seed"],
        "class": entry["class"], "algorithm": algorithm, "flags": flag_text,
    }
    try:
        instance = read_instance(manifest_dir / entry["path"])
        result = run_algorithm(instance, algorithm, parse_flags(flag_text), args)
    except Exception as exc:  # partial failures become rows, the run continues
        print(f"bench cell failed ({entry['id']}, {algorithm}, {flag_text}): {exc}",
              file=sys.stderr)
        return {**row, "upper": "nan", "lower": "nan", "gap": "nan", "iterations": 0,
                "static_solves": 0, "time_static_s": "0.000000",
                "time_extend_merge_s": "0.000000", "time_total_s": "0.000000",
                "timed_out": "true"}
    stats = result.stats
    return {
        **row,
        "upper": repr(result.upper),
        "lower": repr(result.lower),
        "gap": "inf" if math.isinf(result.gap) else repr(result.gap),
        "iterations": result.iterations,
        "static_solves": stats.static_solves,
        "time_static_s": f"{stats.time_static:.6f}",
        "time_extend_merge_s": f"{stats.time_extend_merge:.6f}",
        "time_total_s": f"{stats.time_total:.6f}",
        "timed_out": str(result.timed_out).lower(),
    }


def manifest_entries(manifest) -> list[dict]:
    """The manifest's instance entries.  Raises FormatError when the manifest
    is not an object, its `instances` not a list, or an entry lacks a field
    that `bench` reads."""
    entries = manifest.get("instances", []) if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise FormatError("not a kdc-manifest object with an instances list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not all(key in entry for key in MANIFEST_FIELDS):
            raise FormatError(f"instance entry {i} lacks one of {', '.join(MANIFEST_FIELDS)}")
    return entries


def bench_matrix(args) -> tuple[list[str], list[str]]:
    """The algorithms and flag combinations of a bench run.  Raises
    ValueError naming the first unknown algorithm or flag."""
    algorithms = args.algos.split(",")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"--algos: unknown algorithm {algorithm!r} "
                             f"(choose from {', '.join(ALGORITHMS)})")
    if args.flag_combos == "all":
        return algorithms, [
            flags_label(ImprovementFlags(**dict(zip(FLAG_FIELDS.values(), values))))
            for values in itertools.product((False, True), repeat=len(FLAG_FIELDS))
        ]
    combos = args.flag_combos.split(";")
    for combo in combos:
        try:
            parse_flags(combo)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"--flag-combos: {exc}") from None
    return algorithms, combos


def cmd_bench(args) -> int:
    problem = solver_options_error(args)
    if problem is None:
        try:
            algorithms, combos = bench_matrix(args)
        except ValueError as exc:
            problem = str(exc)
    if problem:
        print(problem, file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            entries = manifest_entries(parse_json(fh.read()))
    except (OSError, FormatError) as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_IO
    manifest_dir = Path(args.manifest).parent
    # Open the output first, so that an unwritable path costs no solve.
    try:
        fh = open(args.output, "w", encoding="utf-8", newline="")
    except OSError as exc:
        print(f"cannot write CSV: {exc}", file=sys.stderr)
        return EXIT_IO
    rows = 0
    try:
        with fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            # One cell at a time, so that no cell's times include another's;
            # each row is written as it is made, so an interrupted run keeps
            # the cells it finished.
            for entry in entries:
                for algorithm in algorithms:
                    for flag_text in combos if algorithm == "exact" else ["none"]:
                        row = _bench_cell(manifest_dir, entry, algorithm, flag_text, args)
                        writer.writerow(row)
                        fh.flush()
                        rows += 1
    except OSError as exc:
        print(f"cannot write CSV: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {rows} bench rows to {args.output}")
    return EXIT_OK


# -- check -------------------------------------------------------------------


def _print_problems(problems: list[str]) -> None:
    """The `FAIL:` lines of a verification: the first problem, then the rest
    indented."""
    print(f"FAIL: {problems[0]}")
    for extra in problems[1:]:
        print(f"      {extra}")


def cmd_check(args) -> int:
    try:
        doc = load_result(args.result)
        instance = read_instance(args.instance)
        mismatch = _other_instance(doc, args.instance, instance)
        if mismatch:
            print(mismatch, file=sys.stderr)
            return EXIT_USAGE
        problems = verify_result(doc, instance)
    except (OSError, FormatError) as exc:
        print(f"cannot read inputs: {exc}", file=sys.stderr)
        return EXIT_IO
    if problems:
        _print_problems(problems)
        return EXIT_CHECK
    print(f"PASS: {doc['instance_id']} ({len(doc['timeline']['segments'])} segments)")
    return EXIT_OK


# -- render ------------------------------------------------------------------


def render_svg(instance: MovingInstance, segments, t: float, size: int = 640) -> str:
    """One SVG snapshot: trajectories dotted, objects as dots, stations as
    triangles (solid green when their radius is zero), active disks shaded."""
    canvas = instance.canvas or (100.0, 100.0)
    w, h = float(canvas[0]), float(canvas[1])
    margin = 0.05 * max(w, h, 1.0)
    scale = size / (max(w, h) + 2 * margin)

    def sx(x):
        return (float(x) + margin) * scale

    def sy(y):
        return (h + margin - float(y)) * scale  # flip so +y points up

    width = (w + 2 * margin) * scale
    height = (h + 2 * margin) * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<rect x="{sx(0):.2f}" y="{sy(h):.2f}" width="{w * scale:.2f}" '
        f'height="{h * scale:.2f}" fill="white" stroke="#999"/>',
    ]
    radius = [0.0] * instance.m
    if segments and instance.n:
        k = 0
        while k + 1 < len(segments) and float(segments[k].t_end) < t:
            k += 1
        seg = segments[k]
        for s, sup in enumerate(seg.supports):
            if sup is not None:
                p = squared_distance_poly(instance.stations[s], instance.objects[sup])
                radius[s] = math.sqrt(max(float(p(t)), 0.0))
    for s, st in enumerate(instance.stations):
        if radius[s] > 0:
            parts.append(
                f'<circle cx="{sx(st.x):.2f}" cy="{sy(st.y):.2f}" '
                f'r="{radius[s] * scale:.2f}" fill="steelblue" fill-opacity="0.15" '
                f'stroke="steelblue"/>'
            )
    for obj in instance.objects:
        parts.append(
            f'<line x1="{sx(obj.start.x):.2f}" y1="{sy(obj.start.y):.2f}" '
            f'x2="{sx(obj.end.x):.2f}" y2="{sy(obj.end.y):.2f}" '
            f'stroke="#bbb" stroke-dasharray="3,3"/>'
        )
    for obj in instance.objects:
        pos = obj.at(t)
        parts.append(
            f'<circle cx="{sx(pos.x):.2f}" cy="{sy(pos.y):.2f}" r="3" fill="black"/>'
        )
    tri = 6.0
    for s, st in enumerate(instance.stations):
        x, y = sx(st.x), sy(st.y)
        fill = "green" if radius[s] == 0.0 else "none"
        parts.append(
            f'<polygon points="{x:.2f},{y - tri:.2f} {x - tri:.2f},{y + tri:.2f} '
            f'{x + tri:.2f},{y + tri:.2f}" fill="{fill}" stroke="green" '
            f'stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_render(args) -> int:
    try:
        instance = read_instance(args.instance)
        doc = load_result(args.result) if args.result else None
        mismatch = _other_instance(doc, args.instance, instance) if doc else None
        if mismatch:
            print(mismatch, file=sys.stderr)
            return EXIT_USAGE
        segments = result_segments(doc) if doc else []
        for i, seg in enumerate(segments):
            if len(seg.supports) != instance.m or not all(
                    sup is None or _is_index(sup, instance.n) for sup in seg.supports):
                raise FormatError(f"segment {i}: supports do not fit the instance")
    except (OSError, FormatError) as exc:
        print(f"cannot read inputs: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        times = [float(tok) for tok in args.times.split(",")]
    except ValueError:
        print(f"--times: expected comma-separated numbers, got {args.times!r}", file=sys.stderr)
        return EXIT_USAGE
    for t in times:
        if not (0.0 <= t <= 1.0):
            print(f"time {t} outside [0, 1]", file=sys.stderr)
            return EXIT_USAGE
    stem = Path(args.instance).stem
    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for t in times:
            svg = render_svg(instance, segments, t)
            path = out_dir / f"{stem}_t{t:g}.svg"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(svg)
            print(f"wrote {path}")
    except OSError as exc:
        print(f"cannot write renders: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def _add_solver_options(p: argparse.ArgumentParser):
    """The options `solve` and `bench` share; `solve` adds --algo and --flags,
    `bench` its matrix of --algos and --flag-combos."""
    p.add_argument("--gap", type=float, default=1e-4, help="target optimality gap")
    p.add_argument("--time-limit", dest="time_limit", type=float, default=600.0)
    p.add_argument("--exact-arith", dest="exact_arith", action="store_true")
    p.add_argument("--k", type=int, default=10, help="fixed_nn interval count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdcover",
        description="Kinetic disk covering: certified min-max radius schedules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate instances")
    g.add_argument("--set", choices=["fix", "fix_n", "fix_m"], default=None)
    g.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                   help="scale factor for the benchmark schedules (1 for full size)")
    g.add_argument("--class", dest="instance_class", default="random",
                   choices=CLASSES)
    g.add_argument("-n", type=int, default=50)
    g.add_argument("-m", type=int, default=5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--len-min", dest="len_min", type=float, default=25.0)
    g.add_argument("--len-max", dest="len_max", type=float, default=50.0)
    g.add_argument("-o", "--output", default="instances")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve one instance")
    s.add_argument("instance")
    s.add_argument("-o", "--output", default=None)
    s.add_argument("--algo", choices=ALGORITHMS, default="exact")
    s.add_argument("--flags", type=parse_flags, default=ImprovementFlags(),
                   help="comma list of nodup,impext,partext")
    _add_solver_options(s)
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="run a benchmark matrix over a manifest")
    b.add_argument("manifest")
    b.add_argument("-o", "--output", default="bench.csv")
    b.add_argument("--algos", default="exact", help="comma list of exact,nn,fixed_nn")
    b.add_argument("--flag-combos", dest="flag_combos", default="none",
                   help="'all' for the 8 improvement combinations, or ';'-separated labels")
    _add_solver_options(b)
    b.set_defaults(func=cmd_bench)

    c = sub.add_parser("check", help="verify a result file against its instance")
    c.add_argument("result")
    c.add_argument("instance")
    c.set_defaults(func=cmd_check)

    r = sub.add_parser("render", help="render SVG snapshots")
    r.add_argument("instance")
    r.add_argument("--result", default=None)
    r.add_argument("--times", default="0.25,0.5,0.75")
    r.add_argument("-o", "--output", default="renders")
    r.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
