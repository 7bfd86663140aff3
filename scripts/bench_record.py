"""Record one benchmark run as `BENCH_<label>_<workload>.json`.

Runs `perfbench/run.py --workload W --seed S --seconds 20 --trace 0` as a
subprocess and writes, at the repository root, its `context:` lines
(commit, source digest, CPU, Python), one compact row per instance and
recipe, and its final JSON object of metrics.  A row holds the pass count,
the median and minimum `wall_s` and `fast_s` over the passes, the first
pass's stop reason, upper, lower and gap, and every distinct `FAIL:` line.
The commit line names the checkout's HEAD, so a recording made before its
tree is committed names the parent commit; the source digest names the
tree.

Usage: python scripts/bench_record.py --workload W --seed S --label L
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 20

# Per-solve table columns read as floats; "-" stands for none.
FLOAT_COLUMNS = ("wall_s", "fast_s", "upper", "lower", "gap")
# The columns that name an instance and recipe, and the timed ones.
KEY_COLUMNS = ("instance", "algorithm", "flags", "arith", "role")
TIMED_COLUMNS = ("wall_s", "fast_s")


def _cell(column: str, text: str):
    if text == "-":
        return None
    if column == "solve":
        return int(text)
    return float(text) if column in FLOAT_COLUMNS else text


def parse_run_output(text: str) -> dict:
    """The `context:` lines, the per-solve table (one dict per row, with
    the `FAIL:` lines under a row as its `problems`) and the final JSON
    object of a `perfbench/run.py` output.  Raises ValueError when the
    output has no table or does not end in a JSON object."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("empty benchmark output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise ValueError("the benchmark output does not end in a JSON object")
    context = [line[len("context: "):] for line in lines if line.startswith("context: ")]
    split = [line.split() for line in lines]
    start = next((i for i, fields in enumerate(split) if fields[:2] == ["solve", "instance"]),
                 None)
    if start is None:
        raise ValueError("no per-solve table in the benchmark output")
    header = split[start]
    rows = []
    for line, fields in zip(lines[start + 1:], split[start + 1:]):
        if fields[:1] == ["FAIL:"] and rows:
            rows[-1]["problems"].append(line.strip()[len("FAIL: "):])
        elif len(fields) == len(header) and fields[0].isdigit():
            rows.append({**{c: _cell(c, v) for c, v in zip(header, fields)}, "problems": []})
        else:
            break  # the table ends at the first metric line
    return {"context": context, "solves": rows, "result": result}


def compact_rows(solves: list[dict]) -> list[dict]:
    """One row per instance and recipe, in order of first appearance."""
    groups: dict = {}
    for row in solves:
        groups.setdefault(tuple(row[c] for c in KEY_COLUMNS), []).append(row)
    out = []
    for key, rows in groups.items():
        first = rows[0]
        compact = {**dict(zip(KEY_COLUMNS, key)), "passes": len(rows)}
        for column in TIMED_COLUMNS:
            times = [row[column] for row in rows if row[column] is not None]
            compact[f"{column}_median"] = statistics.median(times) if times else None
            compact[f"{column}_min"] = min(times, default=None)
        compact.update({c: first[c] for c in ("stop", "upper", "lower", "gap")})
        compact["problems"] = list(dict.fromkeys(p for row in rows for p in row["problems"]))
        out.append(compact)
    return out


def record(workload: str, seed: int, label: str) -> Path:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    try:
        doc = parse_run_output(proc.stdout)
    except ValueError as exc:
        raise SystemExit(f"benchmark run failed (exit {proc.returncode}): {exc}") from None
    out = ROOT / f"BENCH_{label}_{workload}.json"
    out.write_text(json.dumps({"workload": workload, "seed": seed, "label": label,
                               "context": doc["context"], "rows": compact_rows(doc["solves"]),
                               "result": doc["result"]}, indent=1) + "\n")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    out = record(args.workload, args.seed, args.label)
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
