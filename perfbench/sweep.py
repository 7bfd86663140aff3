"""Run one workload over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workload exact_full --seeds 1-10 [--trace 1] [--out FILE]

Each seed is one `run.py` process, run one after the other.  For every
metric the summary gives the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    failures = 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            failures += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            continue
        result = json.loads(last)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name, vals in values.items():
        if not vals:
            continue
        s = summarize(vals)
        s["bound"] = bounds[name]
        summary[name] = s
        bound = bounds[name]
        verdict = "" if bound is None else (
            "ok" if s["spread"] < bound / 3 else "WITHIN BOUND" if s["spread"] <= bound else "TOO WIDE")
        print(f"{name:<32} median={s['median']:<12.6g} q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} "
              f"spread={s['spread']:.4f} bound={bound} {verdict}")
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seeds": args.seeds,
             "failures": failures, "metrics": summary}, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
