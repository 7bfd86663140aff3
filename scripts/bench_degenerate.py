"""Degeneracy study at desk scale: random vs structured trajectory classes.

Solves the exact algorithm, with every improvement flag, on matched-size
instance sets of the four classes (random, same_slope, same_start,
same_end), once in float and once in exact arithmetic (`kdcover bench
--exact-arith`), and reports per class the median and largest wall time of
each and the ratio of the exact median to the float one.

Usage: python scripts/bench_degenerate.py [workdir] [-n 100] [-m 10] [--count 5]
"""

import argparse
import csv
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kdcover.cli import main as kdcover
from kdcover.instances import GenParams, generate, write_instance


def run(workdir: Path, n: int, m: int, count: int) -> None:
    inst_dir = workdir / "instances"
    inst_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for klass in ("random", "same_slope", "same_start", "same_end"):
        for seed in range(count):
            inst = generate(GenParams(n=n, m=m, seed=seed, instance_class=klass))
            name = f"{klass}_n{n}_m{m}_s{seed}"
            inst.metadata["id"] = name
            write_instance(inst_dir / f"{name}.json", inst)
            entries.append({"id": name, "path": f"{name}.json", "n": n, "m": m,
                            "seed": seed, "class": klass})
    manifest = inst_dir / "manifest.json"
    manifest.write_text(json.dumps(
        {"format": "kdc-manifest", "version": 1, "instances": entries}, indent=2))

    times = {}  # arithmetic -> class -> wall times
    for arith, extra in (("float", []), ("exact", ["--exact-arith"])):
        out_csv = workdir / f"degenerate_{arith}.csv"
        assert kdcover(["bench", str(manifest), "--algos", "exact",
                        "--flag-combos", "nodup+impext+partext",
                        *extra, "-o", str(out_csv)]) == 0
        per_class = times[arith] = defaultdict(list)
        with out_csv.open() as fh:
            for row in csv.DictReader(fh):
                per_class[row["class"]].append(float(row["time_total_s"]))

    print(f"\nDegeneracy summary ({workdir}), n={n} m={m}, {count} instances per class:")
    print(f"{'class':<12}{'float med':>10}{'max':>9}{'exact med':>11}{'max':>9}{'exact/float':>13}")
    for klass in sorted(times["float"], key=lambda k: statistics.median(times["float"][k])):
        fl, ex = statistics.median(times["float"][klass]), statistics.median(times["exact"][klass])
        ratio = f"{ex / fl:.1f}x" if fl > 0 else "-"
        print(f"{klass:<12}{fl:>9.3f}s{max(times['float'][klass]):>8.3f}s"
              f"{ex:>10.3f}s{max(times['exact'][klass]):>8.3f}s{ratio:>13}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir", nargs="?", default="experiments/degenerate")
    parser.add_argument("-n", type=int, default=100)
    parser.add_argument("-m", type=int, default=10)
    parser.add_argument("--count", type=int, default=5)
    args = parser.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    run(workdir, args.n, args.m, args.count)
