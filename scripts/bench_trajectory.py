"""Print the benchmark trajectory: one line per `BENCH_*.json` recording at
the repository root (as `bench_record.py` writes them), with its label,
workload, commit (12 characters), source digest, stored row count, solve
count, `solve_s_total` and `check_s` in seconds ("-" for a recording
without `check_s`).  It reads both forms of a recording:
one row per solve (`solves`), and one row per instance and recipe with its
pass count (`rows`).

Usage: python scripts/bench_trajectory.py
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def trajectory(root: Path = ROOT) -> list[str]:
    """The header and one line per recording, in file-name order."""
    lines = [f"{'label':<24}{'workload':<16}{'commit':<14}{'source':<18}{'rows':>6}"
             f"{'solves':>8}{'solve_s_total':>15}{'check_s':>10}"]
    for path in sorted(root.glob("BENCH_*.json")):
        doc = json.loads(path.read_text())
        fields = dict(item.split("=", 1) for line in doc["context"] for item in line.split()
                      if item.startswith(("commit=", "source_sha256=")))
        metrics = doc["result"]["metrics"]
        total = metrics["solve_s_total"]["value"]
        check = f"{metrics['check_s']['value']:.4f}" if "check_s" in metrics else "-"
        rows = doc["rows"] if "rows" in doc else doc["solves"]
        solves = sum(row.get("passes", 1) for row in rows)
        lines.append(f"{doc['label']:<24}{doc['workload']:<16}{fields['commit'][:12]:<14}"
                     f"{fields['source_sha256']:<18}{len(rows):>6}{solves:>8}{total:>15.4f}"
                     f"{check:>10}")
    return lines


if __name__ == "__main__":
    print("\n".join(trajectory()))
