"""Desk-scale benchmark studies, each a `kdcover bench` matrix summarized as
a table of medians: `algorithms` (exact vs nn vs fixed_nn on the scaled
`fix_m` and `fix_n` sets), `improvements` (exact under all 8 improvement-flag
combinations on the scaled `fix` set) and `degenerate` (exact with every
flag on the four instance classes, in float and in exact arithmetic).

Usage: python scripts/studies.py algorithms|improvements [workdir] [--scale 0.2]
       python scripts/studies.py degenerate [workdir] [-n 100] [-m 10] [--count 5]
"""

import argparse
import csv
import statistics
import sys
from collections import defaultdict
from operator import itemgetter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kdcover.cli import main as kdcover, write_instances
from kdcover.instances import CLASSES, GenParams

ALL_FLAGS = "nodup+impext+partext"


def instances(inst_dir: Path, params=(), set_name: str | None = None, scale: float = 1.0) -> Path:
    """Write a study's instances and their manifest to inst_dir, and return
    the manifest's path: the benchmark set that `kdcover gen --set SET_NAME
    --scale SCALE` makes, or else one instance per GenParams."""
    if set_name:
        if kdcover(["gen", "--set", set_name, "--scale", str(scale), "-o", str(inst_dir)]):
            sys.exit(f"kdcover gen --set {set_name} failed")
    else:
        write_instances(inst_dir, params)
    return inst_dir / "manifest.json"


def bench(manifest: Path, out_csv: Path, algos: str, combos: str, *options: str) -> list[dict]:
    """The rows of `kdcover bench` over the manifest, written to out_csv."""
    if kdcover(["bench", str(manifest), "--algos", algos, "--flag-combos", combos,
                *options, "-o", str(out_csv)]):
        sys.exit(f"kdcover bench {manifest} failed")
    with out_csv.open() as fh:
        return list(csv.DictReader(fh))


def by_group(rows, key, column: str) -> dict:
    """The float values of one CSV column, listed by key(row)."""
    groups = defaultdict(list)
    for row in rows:
        groups[key(row)].append(float(row[column]))
    return groups


def algorithms(workdir: Path, args) -> None:
    for set_name, group_key in (("fix_m", "n"), ("fix_n", "m")):
        out_csv = workdir / f"algos_{set_name}.csv"
        manifest = instances(workdir / f"instances_{set_name}", set_name=set_name, scale=args.scale)
        rows = bench(manifest, out_csv, "exact,nn,fixed_nn", ALL_FLAGS)
        ref = {row["instance_id"]: float(row["upper"])
               for row in rows if row["algorithm"] == "exact"}
        key = itemgetter(group_key, "algorithm")
        times = by_group(rows, key, "time_total_s")
        ratios = by_group([{**row, "ratio": float(row["upper"]) / ref[row["instance_id"]]}
                           for row in rows if ref.get(row["instance_id"], 0) > 0], key, "ratio")
        print(f"\n{out_csv} grouped by {group_key}:")
        print(f"{group_key:>5} | median time (s) exact / nn / fixed_nn | median upper ratio nn / fixed_nn")
        for size in sorted({size for size, _ in times}, key=int):
            cols = " / ".join(f"{statistics.median(times[size, a]):.3f}"
                              for a in ("exact", "nn", "fixed_nn"))
            ratio = " / ".join(f"{statistics.median(ratios[size, a]):.3f}"
                               for a in ("nn", "fixed_nn"))
            print(f"{size:>5} | {cols:<36} | {ratio}")


def improvements(workdir: Path, args) -> None:
    out_csv = workdir / "improvements.csv"
    rows = bench(instances(workdir / "instances_fix", set_name="fix", scale=args.scale),
                 out_csv, "exact", "all")
    static, extend, total = (by_group(rows, itemgetter("flags"), column) for column in
                             ("time_static_s", "time_extend_merge_s", "time_total_s"))
    print(f"\nImprovement-strategy summary ({out_csv}):")
    print(f"{'flags':<24}{'median static':>14}{'median extend':>15}{'median total':>14}")
    for flags in sorted(total, key=lambda flags: sum(total[flags])):
        print(f"{flags:<24}"
              f"{statistics.median(static[flags]):>13.4f}s"
              f"{statistics.median(extend[flags]):>14.4f}s"
              f"{statistics.median(total[flags]):>13.4f}s")


def degenerate(workdir: Path, args) -> None:
    manifest = instances(workdir / "instances", [
        GenParams(n=args.n, m=args.m, seed=seed, instance_class=klass)
        for klass in CLASSES for seed in range(args.count)])
    times = {  # arithmetic -> class -> wall times
        arith: by_group(bench(manifest, workdir / f"degenerate_{arith}.csv", "exact", ALL_FLAGS,
                              *extra), itemgetter("class"), "time_total_s")
        for arith, extra in (("float", []), ("exact", ["--exact-arith"]))}
    print(f"\nDegeneracy summary ({workdir}), n={args.n} m={args.m}, "
          f"{args.count} instances per class:")
    print(f"{'class':<12}{'float med':>10}{'max':>9}{'exact med':>11}{'max':>9}{'exact/float':>13}")
    for klass in sorted(times["float"], key=lambda k: statistics.median(times["float"][k])):
        fl, ex = statistics.median(times["float"][klass]), statistics.median(times["exact"][klass])
        ratio = f"{ex / fl:.1f}x" if fl > 0 else "-"
        print(f"{klass:<12}{fl:>9.3f}s{max(times['float'][klass]):>8.3f}s"
              f"{ex:>10.3f}s{max(times['exact'][klass]):>8.3f}s{ratio:>13}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="study", required=True)
    for study, workdir in ((algorithms, "algos"), (improvements, "improvements"),
                           (degenerate, "degenerate")):
        p = sub.add_parser(study.__name__)
        p.add_argument("workdir", nargs="?", default=f"experiments/{workdir}")
        p.set_defaults(run=study)
        if study is degenerate:
            p.add_argument("-n", type=int, default=100)
            p.add_argument("-m", type=int, default=10)
            p.add_argument("--count", type=int, default=5)
        else:
            p.add_argument("--scale", type=float, default=0.2)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    args.run(workdir, args)


if __name__ == "__main__":
    main()
