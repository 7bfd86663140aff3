"""Spans and counters around the layers' public functions.

Nothing here edits the package: while `installed()` is active, the names
`kdcover.minmax` imported from the other layers are replaced by wrappers,
as are `kinetic.dedup_improve`, the `quadratic_roots` and
`compare_event_times` bound in `kinetic`, `envelope` and `minmax`, and
`QuadraticNumber.compare`.  The stationary search is timed through a
delegating `SolverConfig.backend`.  Spans stay in memory as tuples
(name, start, end, parent, solve) and are written as JSONL at the end.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Span name -> per-layer metric that receives the span's self time.
LAYER_OF_SPAN = {
    "minmax.solve": "minmax.self_s",
    "static_cover.enumerate": "static_cover.enumerate_s",
    "static_cover.solve_exact": "static_cover.reconstruct_s",
    "static_cover.search": "static_cover.search_s",
    "static_cover.nn": "static_cover.nn_s",
    "kinetic.extend": "kinetic.extend_s",
    "kinetic.dedup": "kinetic.dedup_s",
    "envelope.merge": "envelope.merge_s",
}


class Tracer:
    """In-memory span log plus per-solve counters."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list = []
        self.stack: list[int] = []
        self.solve = -1
        self.counts: Counter = Counter()

    def run_solve(self, solve_id: int, fn):
        """Call fn() as solve `solve_id` under a root span; returns
        (result, counters of this solve, (start, end) around the call)."""
        self.solve = solve_id
        self.counts.clear()
        root = self.timed("minmax.solve", fn)
        t0 = perf_counter()
        out = root()
        t1 = perf_counter()
        self.solve = -1
        return out, Counter(self.counts), (t0, t1)

    def timed(self, name: str, fn, after=None):
        """Wrap fn so each call is a span; after(args, result) may count."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.solve)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed_generator(self, name: str, fn):
        """Wrap a generator function: each step is its own span, so time the
        consumer spends between steps is not charged to the generator."""
        timed_next = self.timed(name, next)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["kinetic.extend_calls"] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        seg = timed_next(inner)
                    except StopIteration:
                        return
                    counts["kinetic.segments"] += 1
                    counts["kinetic.iter_segments"] += 1
                    yield seg
            finally:
                inner.close()

        return wrapper

    # -- derived numbers ----------------------------------------------------

    def layer_times(self) -> dict[int, dict[str, float]]:
        """Self time per layer metric, per solve: a span's duration minus
        the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for idx, (name, start, end, _, solve) in enumerate(self.spans):
            layer = LAYER_OF_SPAN[name]
            per = out.setdefault(solve, dict.fromkeys(LAYER_OF_SPAN.values(), 0.0))
            per[layer] += end - start - child[idx]
        return out

    def write_jsonl(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, solve) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "solve": solve, "name": name, "parent": parent,
                    "start": start - self.t0, "end": end - self.t0,
                }) + "\n")


class TracedBackend:
    """Delegating stationary backend whose solve() is one span."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.solve = tracer.timed("static_cover.search", inner.solve)


@contextmanager
def installed(tracer: Tracer, api):
    """Replace the layer entry points with traced wrappers; restore on exit."""
    saved = []

    def patch(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    counts = tracer.counts
    mm, kin, env = api.minmax, api.kinetic, api.envelope

    def after_enumerate(args, out):
        counts["static_cover.candidates"] += len(out)

    def after_solve_exact(args, out):
        counts["static_cover.solves"] += 1
        if out.timed_out:
            counts["static_cover.timed_out_solves"] += 1

    def after_extend(args, out):
        counts["kinetic.extend_calls"] += 1
        counts["kinetic.segments"] += len(out)

    def after_merge(args, out):
        counts["envelope.merge_calls"] += 1
        counts["envelope.segments_out"] += len(out.segments)
        counts["envelope.part_segments_in"] += len(args[1].segments)

    patch(mm, "enumerate_candidates",
          tracer.timed("static_cover.enumerate", mm.enumerate_candidates, after_enumerate))
    patch(mm, "solve_exact",
          tracer.timed("static_cover.solve_exact", mm.solve_exact, after_solve_exact))
    patch(mm, "nn_heuristic", tracer.timed("static_cover.nn", mm.nn_heuristic))
    patch(mm, "extend", tracer.timed("kinetic.extend", mm.extend, after_extend))
    patch(mm, "iter_extend", tracer.timed_generator("kinetic.extend", mm.iter_extend))
    for attr in ("merge_lower_envelope", "merge_partial"):
        patch(mm, attr, tracer.timed("envelope.merge", getattr(mm, attr), after_merge))
    patch(kin, "dedup_improve", tracer.timed("kinetic.dedup", kin.dedup_improve))
    for mod in (mm, kin, env):
        patch(mod, "quadratic_roots",
              tracer.counted("geometry.roots_calls", mod.quadratic_roots))
        patch(mod, "compare_event_times",
              tracer.counted("geometry.compare_calls", mod.compare_event_times))
    qn = api.exactarith.QuadraticNumber
    patch(qn, "compare", tracer.counted("exactarith.compare_calls", qn.compare))
    try:
        yield
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)
