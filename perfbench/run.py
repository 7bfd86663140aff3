"""kdcover benchmark: one workload, one seed, closed loop.

    python3 perfbench/run.py --workload exact_full --seed 1 --seconds 30 --trace 0

Runs the package from this checkout's `src/` through its public API: it
generates the workload's instances from the seed, round-trips them through
the instance JSON format, solves them one at a time (no threads, no
workers), checks every result, and prints the run context, a per-solve
table and every metric by name and unit.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, from untraced solves.
With --trace 1 the run makes one untraced pass and one traced pass and
reports the per-layer metrics of the traced pass, the tracing overhead
against the untraced pass, and writes the spans to
.perfbench_out/trace_<workload>_seed<seed>.jsonl.

A run warms up on a toy-size pass, then repeats whole passes over the
workload while another pass fits in --seconds, and always makes at least
the workload's `min_passes`.  Each solve's time is its fastest over the
passes, and each check is repeated `check_repeats` times back to back
per pass and counts the mean.  Exit status: 0 when every
check passed, 1 when any solve failed the gate, 2 when the package
source is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import gate
import tracer as tracing
from speed import REFERENCE_S, SpeedSampler
from workloads import WORKLOAD_NAMES, Recipe, make_inputs, workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SAMPLES = 1000  # feasibility samples per check, as `kdcover check` defaults
SETUP_REPEATS = 9  # set-ups per run: one before the first solve, then one after each solve
LAYER_SUM_TOL = 0.05
FIXED_NN_K = 10
MODULES = ("geometry", "exactarith", "static_cover", "kinetic", "envelope",
           "minmax", "instances", "cli")


class SourceMissing(RuntimeError):
    """The checkout has no importable kdcover package under src/."""


@dataclass
class SolveRecord:
    solve_id: int
    instance: str
    recipe: Recipe
    wall_s: float = 0.0
    span: tuple[float, float] | None = None
    doc: dict | None = None
    checks: list[tuple[float, float, float]] = field(default_factory=list)  # (start, json done, end)
    json_s: float = 0.0  # mean time per check, set by apply_speed
    verify_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    counts: Counter | None = None
    scale: float = 1.0  # wall time -> time at the reference CPU speed

    @property
    def factor(self) -> float:
        """Speed factor for the solve's times; 1 for a solve stopped by the
        time limit, whose length the wall-clock limit sets."""
        return 1.0 if self.stop == "time_limit" else self.scale

    @property
    def solve_s(self) -> float:
        return self.wall_s * self.factor

    @property
    def check_s(self) -> float:
        return self.json_s + self.verify_s

    @property
    def stop(self) -> str:
        return self.doc["stats"]["stop_reason"] if self.doc else "error"

    @property
    def gap(self) -> float:
        g = self.doc["gap"]
        return math.inf if g is None else g


# -- set-up --------------------------------------------------------------------


def _package_modules() -> list[str]:
    return [n for n in sys.modules if n == "kdcover" or n.startswith("kdcover.")]


def load_api():
    """Import kdcover from this checkout's src/, dropping any cached copy so
    every call pays the full import.  Returns (api, seconds)."""
    src = ROOT / "src"
    if not (src / "kdcover" / "__init__.py").is_file():
        raise SourceMissing(f"no kdcover package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in _package_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    t0 = perf_counter()
    pkg = importlib.import_module("kdcover")
    mods = {m: importlib.import_module(f"kdcover.{m}") for m in MODULES}
    elapsed = perf_counter() - t0
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SourceMissing(f"kdcover imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**mods), elapsed


def set_up(wl, seed: int):
    """A fresh import plus input generation and round trip.  Returns
    (api, ids, instances, (start, end, import_s, generate_s, roundtrip_s))."""
    start = perf_counter()
    api, import_s = load_api()
    ids, insts, gen_s, rt_s = make_inputs(api, wl, seed)
    return api, ids, insts, (start, perf_counter(), import_s, gen_s, rt_s)


def resample_set_up(wl, seed: int):
    """Time one more set-up, then put back the modules the solves use."""
    saved = {name: sys.modules[name] for name in _package_modules()}
    try:
        return set_up(wl, seed)[3]
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()


def setup_medians(samples, sp: SpeedSampler) -> dict:
    """Median set-up times, each sample at the reference CPU speed."""
    parts = []
    for start, end, *raw in samples:
        k = sp.scale(start, end)
        parts.append([sum(raw) * k] + [v * k for v in raw])
    names = ("setup_s", "import_s", "generate_s", "roundtrip_s")
    return {name: statistics.median(p[i] for p in parts) for i, name in enumerate(names)}


# -- solving and checking --------------------------------------------------------


def solve_call(api, instance, recipe: Recipe, backend=None):
    """Zero-argument callable running one solve through the public API."""
    exact = recipe.arith == "exact"
    if recipe.algorithm == "fixed_nn":
        return lambda: api.minmax.fixed_nn_baseline(instance, k=FIXED_NN_K, exact_arithmetic=exact)
    config = api.minmax.SolverConfig(
        static_backend="nn" if recipe.algorithm == "nn" else "exact",
        flags=api.cli.parse_flags(recipe.flags),
        time_limit=recipe.time_limit,
        exact_arithmetic=exact,
        backend=backend,
    )
    return lambda: api.minmax.solve_minmax(instance, config)


def check(api, rec: SolveRecord, instance, result, target_gap: float,
          repeats: int = 1) -> None:
    """JSON round trip plus verify_result (timed as check_s, `repeats`
    times), then the gate."""
    flags = api.cli.parse_flags(rec.recipe.flags)
    config = {"arith": rec.recipe.arith, "time_limit": rec.recipe.time_limit}
    for _ in range(repeats):
        t0 = perf_counter()
        text = api.cli.result_to_json(rec.instance, rec.recipe.algorithm, flags, config, result)
        doc = json.loads(text)
        t1 = perf_counter()
        problems = api.cli.verify_result(doc, instance, SAMPLES)
        t2 = perf_counter()
        rec.checks.append((t0, t1, t2))
    rec.doc = doc
    rec.problems += problems + gate.result_problems(doc, rec.recipe.algorithm, target_gap)


def run_pass(api, wl, ids, insts, target_gap, first_id=0, tr=None,
             after_solve=None) -> list[SolveRecord]:
    """Solve and check every (instance, recipe) of the workload once,
    calling after_solve() between solves."""
    records = []
    for k, (i, recipe) in enumerate(wl.solves()):
        rec = SolveRecord(first_id + k, ids[i], recipe)
        records.append(rec)
        try:
            if tr is None:
                call = solve_call(api, insts[i], recipe)
                t0 = perf_counter()
                result = call()
                rec.span = (t0, perf_counter())
            else:
                backend = tracing.TracedBackend(api.static_cover.BranchBoundBackend(), tr)
                call = solve_call(api, insts[i], recipe, backend)
                with tracing.installed(tr, api):
                    result, rec.counts, rec.span = tr.run_solve(rec.solve_id, call)
            rec.wall_s = rec.span[1] - rec.span[0]
            check(api, rec, insts[i], result, target_gap, wl.check_repeats)
        except Exception as exc:  # a failed solve is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            rec.problems.append(f"raised {type(exc).__name__}: {exc}")
        if after_solve is not None:
            after_solve()
    gate.apply_cross_checks(records)
    return records


def apply_speed(records, sp: SpeedSampler) -> None:
    """Set each record's solve factor from the CPU speed during its solve,
    and its check times to the mean of its back-to-back checks, scaled by
    the CPU speed over all of them (one check can be shorter than the
    sampling interval)."""
    for r in records:
        if r.span is not None:
            r.scale = sp.scale(*r.span)
        if r.checks:
            k = sp.scale(r.checks[0][0], r.checks[-1][2]) / len(r.checks)
            r.json_s = k * sum(t1 - t0 for t0, t1, _ in r.checks)
            r.verify_s = k * sum(t2 - t1 for _, t1, t2 in r.checks)


# -- metrics ---------------------------------------------------------------------


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(passes, setup_s: float, rss_mb: float, target_gap: float) -> dict:
    """Timings from each solve's fastest pass; quality as the median over passes.

    Every pass makes the same solves in the same order, so solve k of each
    pass is one repeat of the same work, and its time is the smallest over
    the passes (run-to-run noise only ever slows work down).  Timings cover
    the measured solves (not the float reference twins of exact_arith);
    quality and check cost cover every result.  gap_max floors each gap at
    the target, and is the target when a workload has no exact-algorithm
    solve; certified_frac is then 1 (no solve missed).
    """
    first = passes[0]
    best = [min(recs[k].solve_s for recs in passes) for k in range(len(first))]
    measured = [t for t, r in zip(best, first) if r.recipe.role == "measured"]
    check_s = sum(
        min(recs[k].check_s for recs in passes)
        for k in range(len(first)) if first[k].doc is not None
    )
    rows = []
    for recs in passes:
        done = [r for r in recs if r.doc is not None]
        exact = [r for r in done if r.recipe.algorithm == "exact"]
        rows.append({
            "gap_max": max([target_gap] + [r.gap for r in exact]),
            "certified_frac": (
                sum(r.stop == "gap" for r in exact) / len(exact) if exact else 1.0
            ),
            "peak_area_geomean": _geomean(r.doc["upper"] for r in done) if done else math.nan,
        })
    med = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    return {
        "solve_s_total": (sum(measured), "s"),
        "solve_s_p50": (statistics.median(measured), "s"),
        "solve_s_max": (max(measured), "s"),
        "gap_max": (med["gap_max"], "ratio"),
        "certified_frac": (med["certified_frac"], "ratio"),
        "peak_area_geomean": (med["peak_area_geomean"], "area"),
        "check_s": (check_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def layer_check(recs, layers) -> float:
    """Largest relative difference between a traced solve's wall time and
    the sum of its layer self times; adds a problem above LAYER_SUM_TOL."""
    worst = 0.0
    for r in recs:
        if r.counts is None:
            continue
        total = sum(layers.get(r.solve_id, {}).values())
        err = abs(total - r.wall_s) / r.wall_s
        worst = max(worst, err)
        if err > LAYER_SUM_TOL:
            r.problems.append(
                f"layer times sum to {total:.6f} s, traced wall {r.wall_s:.6f} s"
            )
    return worst


def per_layer(recs, layers, setup_times, overhead: float, err_max: float) -> dict:
    counts = Counter()
    times = Counter()
    minmax_iters = resolves = merges = kept = generated = 0
    for r in recs:
        if r.counts is None:
            continue
        counts.update(r.counts)
        for name, value in layers.get(r.solve_id, {}).items():
            times[name] += value * r.factor
        if r.recipe.algorithm != "fixed_nn" and r.doc is not None:
            minmax_iters += r.doc["iterations"]
            resolves += r.doc["stats"]["static_solves"] - 1
            merges += r.counts["envelope.merge_calls"]
        if "partext" in r.recipe.flags:
            kept += r.counts["envelope.part_segments_in"]
            generated += r.counts["kinetic.iter_segments"]
    s, c, x = "s", "count", "ratio"
    out = {name: (times[name], s) for name in (
        "static_cover.search_s", "static_cover.enumerate_s",
        "static_cover.reconstruct_s", "static_cover.nn_s",
        "kinetic.extend_s", "kinetic.dedup_s", "envelope.merge_s", "minmax.self_s",
    )}
    for name in (
        "static_cover.candidates", "static_cover.solves", "static_cover.timed_out_solves",
        "kinetic.extend_calls", "kinetic.segments", "envelope.merge_calls",
        "envelope.segments_out", "geometry.roots_calls", "geometry.compare_calls",
        "exactarith.compare_calls",
    ):
        out[name] = (counts[name], c)
    out["minmax.iterations"] = (minmax_iters, c)
    out["minmax.improve_ratio"] = (merges / resolves if resolves else 0.0, x)
    out["minmax.partext_kept_ratio"] = (kept / generated if generated else 0.0, x)
    out["instances.generate_s"] = (setup_times["generate_s"], s)
    out["instances.roundtrip_s"] = (setup_times["roundtrip_s"], s)
    out["cli.result_json_s"] = (sum(r.json_s for r in recs), s)
    out["cli.verify_s"] = (sum(r.verify_s for r in recs), s)
    out["trace.overhead_frac"] = (overhead, x)
    out["trace.layer_sum_err_max"] = (err_max, x)
    return out


# -- reporting -------------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kdcover").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_context(args, wl) -> None:
    print(f"context: workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} toy={int(args.toy)}")
    print(f"context: commit={_commit()} source_sha256={_source_digest()}")
    print(f"context: nproc={os.cpu_count()} cpu={_cpu_model()!r} "
          f"python={platform.python_version()} platform={platform.platform()}")
    print(f"context: why={wl.why}")


def print_table(records) -> None:
    """One row per solve; wall_s is the raw wall time, fast_s the solve's
    time at the reference CPU speed (what the metrics use)."""
    print(f"{'solve':>5} {'instance':<30} {'algorithm':<9} {'flags':<20} {'arith':<5} "
          f"{'role':<9} {'stop':<14} {'wall_s':>9} {'fast_s':>9} {'upper':>14} "
          f"{'lower':>14} {'gap':>10}")
    for r in records:
        upper = f"{r.doc['upper']:.6f}" if r.doc else "-"
        lower = f"{r.doc['lower']:.6f}" if r.doc else "-"
        gap = f"{r.gap:.3e}" if r.doc and r.doc["gap"] is not None else "-"
        print(f"{r.solve_id:>5} {r.instance:<30} {r.recipe.algorithm:<9} {r.recipe.flags:<20} "
              f"{r.recipe.arith:<5} {r.recipe.role:<9} {r.stop:<14} {r.wall_s:>9.4f} "
              f"{r.solve_s:>9.4f} {upper:>14} {lower:>14} {gap:>10}")
        for p in r.problems:
            print(f"      FAIL: {p}")


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")


# -- main ------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="shrink every instance (self-test sizes)")
    return p.parse_args(argv)


def warm_up(api, wl, seed: int, target_gap: float) -> None:
    """One pass over the toy version of the workload, neither timed nor
    counted, so that the first timed solve pays no first-call costs."""
    toy = workload(wl.name, toy=True)
    ids, insts, _, _ = make_inputs(api, toy, seed)
    run_pass(api, toy, ids, insts, target_gap)


def measure(args, wl):
    """Set up, warm up, then run the passes (and the traced pass with
    --trace 1).  Returns (setup samples, untraced passes, traced records,
    tracer, target gap)."""
    api, ids, insts, first_setup = set_up(wl, args.seed)
    target_gap = api.minmax.SolverConfig().target_gap
    print_context(args, wl)
    warm_up(api, wl, args.seed, target_gap)

    # Set-up is sampled between solves, so its median spans the whole run.
    setup_samples = [first_setup]

    def sample_set_up():
        if len(setup_samples) < SETUP_REPEATS:
            setup_samples.append(resample_set_up(wl, args.seed))

    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(api, wl, ids, insts, target_gap,
                               first_id=sum(map(len, passes)), after_solve=sample_set_up))
        last = perf_counter() - t0
        if args.trace:
            break
        if len(passes) >= wl.min_passes and perf_counter() - start + last > args.seconds:
            break
    traced, tr = [], None
    if args.trace:
        tr = tracing.Tracer()
        first_id = sum(map(len, passes))
        traced = run_pass(api, wl, ids, insts, target_gap, first_id=first_id, tr=tr)
    return setup_samples, passes, traced, tr, target_gap


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workload(args.workload, toy=args.toy)
    try:
        with SpeedSampler() as sp:
            setup_samples, passes, traced, tr, target_gap = measure(args, wl)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    untraced = [r for recs in passes for r in recs]
    records = untraced + traced
    apply_speed(records, sp)
    setup_times = setup_medians(setup_samples, sp)
    print("setup: " + " ".join(f"{k}={v:.6f}" for k, v in setup_times.items())
          + f" (median of {len(setup_samples)})")

    if args.trace:
        layers = tr.layer_times()
        err_max = layer_check(traced, layers)
        overhead = sum(r.solve_s for r in traced) / sum(r.solve_s for r in passes[0]) - 1.0
        metrics = per_layer(traced, layers, setup_times, overhead, err_max)
        suffix = "_toy" if args.toy else ""
        path = OUT_DIR / f"trace_{wl.name}_seed{args.seed}{suffix}.jsonl"
        tr.write_jsonl(path)
        print(f"trace: {len(tr.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(passes, setup_times["setup_s"], rss_mb, target_gap)

    failed = sum(1 for r in records if r.problems)
    print(f"passes: {len(passes)} untraced{' + 1 traced' if args.trace else ''}; "
          f"solves per pass: {len(passes[0])}; "
          f"CPU speed samples: {len(sp.durations)}, fastest {min(sp.durations) * 1e3:.3f} ms, "
          f"median {statistics.median(sp.durations) * 1e3:.3f} ms, "
          f"reference {REFERENCE_S * 1e3:.3f} ms")
    print_table(records)
    print_metrics(metrics)
    measured = sum(1 for r in untraced if r.recipe.role == "measured")
    print(f"note solve_s_p50 is over {measured} measured solves")
    print(f"metric failed_frac = {failed / len(records)!r} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
