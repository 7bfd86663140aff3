"""Iterative min-max solver for the kinetic disk covering problem.

Seed with a stationary solution at t=0, extend it over the horizon, then
repeat: locate the peak of the incumbent timeline, solve the stationary
problem there, extend the improvement in both directions and fold it in
via the lower envelope.  Each time is solved once.  The stationary solver's
certified bounds at every solved time are themselves lower bounds on the
min-max optimum, so the loop carries a certificate: it stops when the
relative gap reaches the target, when every candidate peak has been solved,
or at the time limit.  A peak's solve only has to answer whether the peak
can come down to the loop's lower bound, so it runs at the target gap but
may stop at the first cover costing no more than that bound.

`solve_minmax` and the FixedNN baseline `fixed_nn_baseline` differ only in
where they anchor: both run through one harness (`_Harness`) that holds the
horizon, clock and `SolveStats` and does the timed stationary solve, the
timed extend-and-merge and the result assembly.

Timeline polynomials store area / pi (sums of squared support radii);
`KineticResult.upper` and `.lower` carry the pi factor.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from fractions import Fraction

from .envelope import (
    SolutionTimeline,
    TimelineSegment,
    argmax_timeline,
    merge_lower_envelope,
    merge_partial,
)
from .geometry import MovingInstance, compare_event_times, quadratic_roots, sign_ahead
from .kinetic import ImprovementFlags, extend, iter_extend
from .static_cover import (
    SolverBackend,
    enumerate_candidates,
    nn_heuristic,
    ratio_gap,
    solve_exact,
)

__all__ = [
    "SolverConfig",
    "SolveStats",
    "KineticResult",
    "solve_minmax",
    "fixed_nn_baseline",
]

# Safety stop for the min-max loop; a solve that reaches it reports the
# stop reason "iteration_cap".
ITERATION_CAP = 100_000


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one min-max solve.

    static_backend is the stationary solver ("exact" or "nn"), flags the
    kinetic improvements, backend the exact solves' `SolverBackend` (None:
    the built-in branch and bound; the benchmark's tracer and the tests
    pass their own), target_gap (>= 0) the overall gap to certify, at which
    every exact stationary solve runs, and time_limit (> 0, math.inf for
    none) the wall time in seconds; exact_arithmetic solves in rationals.
    """

    static_backend: str = "exact"
    flags: ImprovementFlags = ImprovementFlags()
    target_gap: float = 1e-4
    time_limit: float = 600.0
    exact_arithmetic: bool = False
    backend: SolverBackend | None = None

    def __post_init__(self):
        if not self.target_gap >= 0:
            raise ValueError(f"need target_gap >= 0, got {self.target_gap!r}")
        if not self.time_limit > 0:
            raise ValueError(f"need time_limit > 0, got {self.time_limit!r}")
        if self.static_backend not in ("exact", "nn"):
            raise ValueError(f"unknown static backend {self.static_backend!r}")


@dataclass
class SolveStats:
    time_static: float = 0.0
    time_extend_merge: float = 0.0
    time_total: float = 0.0
    static_solves: int = 0
    events_processed: int = 0
    stop_reason: str = ""


@dataclass(frozen=True)
class KineticResult:
    """Solution timeline with certified bounds.

    upper = pi * peak of the timeline objective; lower = pi * best
    stationary lower bound seen; gap = (upper - lower) / lower.
    `timed_out` is true when the loop stopped at its time limit.
    """

    timeline: SolutionTimeline
    upper: float
    lower: float
    gap: float
    iterations: int
    stats: SolveStats

    @property
    def timed_out(self) -> bool:
        return self.stats.stop_reason == "time_limit"


def _extension(assignment, anchor, t_lo, t_hi, flags, instance, incumbent=None):
    """Segments of the fixed-assignment extension over [t_lo, t_hi],
    backward from the anchor and then forward.  Given an incumbent, each
    direction stops at its first crossing with it (the part_ext strategy)."""
    segs = []
    for direction, name, end in ((-1, "backward", t_lo), (+1, "forward", t_hi)):
        if compare_event_times(anchor, end) * direction >= 0:
            continue
        if incumbent is None:
            segs += extend(assignment, anchor, name, end, flags, instance)
        else:
            part = iter_extend(assignment, anchor, name, end, flags, instance)
            segs += _until_crossing(part, incumbent, direction)[::direction]
    return segs


def _until_crossing(segments, incumbent: SolutionTimeline, direction: int):
    """Extension `segments`, read in travel order, up to the first one that
    rises to meet the incumbent; that one is cut at the crossing.

    A crossing is a root of the difference, not at the segment's near end,
    ahead of which the difference is positive; an identical overlap cuts at
    its near end.  One cursor passes over each incumbent segment once per
    sweep.
    """
    pieces = incumbent.segments[::direction]

    def ends(s):  # (near, far) in travel order
        return (s.t_start, s.t_end)[::direction]

    def ahead(x, y):
        return compare_event_times(x, y) * direction > 0

    kept: list[TimelineSegment] = []
    k = 0
    for seg in segments:
        lo, hi = seg.t_start, seg.t_end
        near, far = ends(seg)
        while k < len(pieces) and not ahead(ends(pieces[k])[1], near):
            k += 1
        cut = None
        j = k
        while cut is None and j < len(pieces) and ahead(far, ends(pieces[j])[0]):
            piece = pieces[j]
            j += 1
            a = lo if compare_event_times(piece.t_start, lo) < 0 else piece.t_start
            b = hi if compare_event_times(piece.t_end, hi) > 0 else piece.t_end
            if compare_event_times(a, b) >= 0:
                continue
            diff = seg.poly - piece.poly
            if diff.is_zero:
                cut = a if direction > 0 else b
            else:
                roots = quadratic_roots(diff, a, b)
                cut = next((root for root in roots[::direction]
                            if sign_ahead(diff, root, direction) > 0
                            and compare_event_times(root, near) != 0), None)
        if cut is None:
            kept.append(seg)
            continue
        if ahead(cut, near):
            kept.append(TimelineSegment(*(near, cut)[::direction], seg.assignment, seg.supports,
                                        seg.poly))
        break
    return kept


class _Harness:
    """One solve: the work instance, the horizon's ends t0 and t1 (exact
    rationals or floats), the clock and the `SolveStats`.  Each step looks
    the layer routines up in this module when it runs, so a wrapper bound
    over one of them (as the benchmark's tracer binds) sees every call."""

    def __init__(self, instance: MovingInstance, config: SolverConfig):
        self.began = _time.perf_counter()
        self.config = config
        self.stats = SolveStats()
        if config.exact_arithmetic:
            self.work, self.t0, self.t1 = instance.as_exact(), Fraction(0), Fraction(1)
        else:
            self.work, self.t0, self.t1 = instance, 0.0, 1.0

    def remaining(self) -> float:
        return self.config.time_limit - (_time.perf_counter() - self.began)

    def static(self, t, cutoff=None):
        """The configured stationary solver's solution at time t."""
        tick = _time.perf_counter()
        if self.config.static_backend == "exact":
            sol = solve_exact(
                enumerate_candidates(self.work, t),
                target_gap=self.config.target_gap,
                # At most half of what is left, so that one hard stationary
                # solve cannot end the loop.
                time_limit=max(self.remaining() / 2, 0.001),
                backend=self.config.backend,
                cutoff=cutoff,
            )
        else:
            sol = nn_heuristic(self.work, t)
        self.stats.time_static += _time.perf_counter() - tick
        self.stats.static_solves += 1
        return sol

    def extend_merge(self, assignment, anchor, timeline, merge):
        """`timeline` with the extension of `assignment` from `anchor` folded
        in by `merge` (the extension alone when `timeline` is None); with
        part_ext on, the extension is cut where it meets `timeline`."""
        tick = _time.perf_counter()
        segs = _extension(assignment, anchor, self.t0, self.t1, self.config.flags, self.work,
                          timeline if self.config.flags.part_ext else None)
        self.stats.events_processed += max(len(segs) - 1, 0)
        if segs:
            part = SolutionTimeline(tuple(segs))
            timeline = part if timeline is None else merge(timeline, part)
        self.stats.time_extend_merge += _time.perf_counter() - tick
        return timeline

    def result(self, timeline, lower_sum, iterations: int, stop: str) -> KineticResult:
        """The result, its lower bound clamped to the upper."""
        upper = math.pi * float(timeline.value)
        lower = min(math.pi * float(lower_sum), upper)
        self.stats.stop_reason = stop
        self.stats.time_total = _time.perf_counter() - self.began
        return KineticResult(timeline, upper, lower, ratio_gap(upper, lower), iterations,
                             self.stats)


def solve_minmax(instance: MovingInstance, config: SolverConfig = SolverConfig()) -> KineticResult:
    """Run the iterative min-max algorithm; see the module docstring.

    With the exact backend every stationary solve, the seed at t=0
    included, runs at `config.target_gap`.  Each peak's solve also gets the
    loop's current lower bound as its cutoff, so it may stop at the first
    cover costing no more than that bound; the seed gets no cutoff.  A
    solved time is never solved again: a second solve at the same gap
    cannot tighten it, and a time that stopped at the cutoff stays at or
    below the lower bound, which only rises.  The
    stop reason is "gap" at the target, "no_improvement" once every segment
    endpoint of the incumbent has been solved, "time_limit" or
    "iteration_cap".  With the "nn" backend the loop stops ("no_improvement")
    at the first peak the heuristic does not improve.
    """
    run = _Harness(instance, config)
    use_ip = config.static_backend == "exact"
    seed = run.static(run.t0)
    lower_sum = seed.lower_radius_sq
    timeline = run.extend_merge(seed.assignment, run.t0, None, merge_partial)

    # Times already solved, which a re-solve cannot improve: each was solved
    # to the target gap or to a cover at or below the lower bound.
    excluded: list[object] = [run.t0] if use_ip else []
    iterations = 0

    while True:
        iterations += 1
        gap = ratio_gap(math.pi * float(timeline.value), math.pi * float(lower_sum))
        if gap <= config.target_gap:
            stop = "gap"
            break
        if run.remaining() <= 0:
            stop = "time_limit"
            break
        if iterations > ITERATION_CAP:
            stop = "iteration_cap"
            break

        t_star, cur = argmax_timeline(timeline, excluded)
        if t_star is None:
            stop = "no_improvement"
            break
        sol = run.static(t_star, cutoff=lower_sum)
        if use_ip:
            excluded.append(t_star)
        if sol.lower_radius_sq > lower_sum:
            lower_sum = sol.lower_radius_sq
        improving = sol.total_radius_sq < cur and not math.isclose(
            float(sol.total_radius_sq), float(cur), rel_tol=1e-12, abs_tol=1e-15
        )
        if improving:
            new_timeline = run.extend_merge(sol.assignment, t_star, timeline, merge_partial)
            # An extension that collapsed against the incumbent is no gain.
            if new_timeline is not timeline:
                timeline = new_timeline
                continue
        if not use_ip:
            stop = "no_improvement"
            break

    return run.result(timeline, lower_sum, iterations, stop)


def fixed_nn_baseline(
    instance: MovingInstance, k: int = 10, exact_arithmetic: bool = False
) -> KineticResult:
    """Nearest-neighbor solutions at k+1 evenly spaced times, each extended
    over the whole horizon with no improvement flags, folded together by the
    lower envelope.  Provides no lower bound."""
    if k < 1:
        raise ValueError("k must be >= 1")
    run = _Harness(instance, SolverConfig(static_backend="nn", time_limit=math.inf,
                                          exact_arithmetic=exact_arithmetic))
    timeline = None
    for i in range(k + 1):
        anchor = run.t1 * i / k
        sol = run.static(anchor)
        timeline = run.extend_merge(sol.assignment, anchor, timeline, merge_lower_envelope)
    return run.result(timeline, 0, k + 1, "baseline")
