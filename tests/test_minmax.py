import hashlib
import json
import math
from fractions import Fraction

import pytest

from conftest import assert_timelines_agree, random_instance, random_sizes
from kdcover import cli, minmax
from kdcover.certificate import check_feasible
from kdcover.envelope import SolutionTimeline, TimelineSegment, timeline_cost
from kdcover.geometry import (
    MovingInstance,
    Point2,
    QuadraticPoly,
    Trajectory,
    compare_event_times,
)
from kdcover.instances import GenParams, generate
from kdcover.kinetic import ImprovementFlags
from kdcover.minmax import (
    SolverConfig,
    fixed_nn_baseline,
    solve_minmax,
)
from kdcover.static_cover import (
    BranchBoundBackend,
    SolverBackend,
    brute_force_cover,
    enumerate_candidates,
    ratio_gap,
)

ALL_FLAGS = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)


def crossing_instance():
    return MovingInstance(
        (Point2(0.0, 0.0), Point2(10.0, 0.0)),
        (Trajectory(Point2(2.0, 0.0), Point2(8.0, 0.0)),),
    )


def test_single_station_diagonal_object():
    inst = MovingInstance((Point2(0.0, 0.0),), (Trajectory(Point2(1.0, 0.0), Point2(0.0, 1.0)),))
    res = solve_minmax(inst)
    assert res.upper == pytest.approx(math.pi, rel=1e-12)
    assert res.gap == pytest.approx(0.0, abs=1e-12)
    # objective is pi*(2t^2 - 2t + 1): interior minimum, endpoint peaks
    assert timeline_cost(res.timeline, 0.5) == pytest.approx(0.5)


def test_stationary_object_single_iteration():
    inst = MovingInstance((Point2(0.0, 0.0),), (Trajectory(Point2(3.0, 0.0), Point2(3.0, 0.0)),))
    res = solve_minmax(inst)
    assert res.upper == pytest.approx(9 * math.pi)
    assert res.iterations == 1
    assert res.gap == 0.0


def test_crossing_instance_hits_25_pi():
    for flags in (ImprovementFlags(), ALL_FLAGS):
        res = solve_minmax(crossing_instance(), SolverConfig(flags=flags))
        assert res.upper == pytest.approx(25 * math.pi, rel=1e-9)
        assert res.gap <= 1e-4


def test_crossing_instance_exact_arithmetic():
    res = solve_minmax(crossing_instance(), SolverConfig(exact_arithmetic=True))
    assert res.upper == pytest.approx(25 * math.pi, rel=1e-12)
    assert res.gap == 0.0


@pytest.mark.parametrize("backend", ["exact", "nn"])
def test_exact_arithmetic_solves_a_station_at_1e100(backend):
    """Event times whose first float bracket lies beyond the float range,
    though they fit, still convert: the solve returns and its result,
    written and read back, passes the checker."""
    inst = MovingInstance((Point2(0.0, 0.0), Point2(1e100, 0.0)),
                          (Trajectory(Point2(0.0, 0.0), Point2(1e100, 1.0)),
                           Trajectory(Point2(5.0, 5.0), Point2(6.0, 6.0))))
    res = solve_minmax(inst, SolverConfig(static_backend=backend, exact_arithmetic=True))
    assert res.upper == pytest.approx(7.853981633974482e+199, rel=1e-12)
    assert check_feasible(res.timeline.segments, inst).ok
    doc = json.loads(cli.result_to_json("far", backend, ImprovementFlags(), {}, res))
    assert cli.verify_result(doc, inst) == []


def test_config_validation():
    for gap in (-1e-3, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(target_gap=gap)
    assert SolverConfig(target_gap=0.1).target_gap == 0.1
    for limit in (0.0, -5.0, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(time_limit=limit)
    assert SolverConfig(time_limit=math.inf).time_limit == math.inf
    with pytest.raises(ValueError):
        SolverConfig(static_backend="magic")


def test_bounds_monotone_over_iterations(monkeypatch):
    # The loop passes each iteration's (upper, lower) to `ratio_gap`, and
    # the result's bounds once more after the loop.
    history = []

    def recording_gap(upper, lower):
        history.append((upper, lower))
        return ratio_gap(upper, lower)

    monkeypatch.setattr(minmax, "ratio_gap", recording_gap)
    for seed in range(6):
        inst = random_instance(25, 4, seed)
        history.clear()
        res = solve_minmax(inst, SolverConfig(flags=ALL_FLAGS))
        assert len(history) == res.iterations + 1, seed
        uppers = [u for u, _ in history[:-1]]
        lowers = [l for _, l in history[:-1]]
        assert all(a >= b - 1e-9 for a, b in zip(uppers, uppers[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(lowers, lowers[1:]))
        assert res.upper >= res.lower - 1e-9


def test_result_timeline_feasible():
    for seed in range(6):
        n, m = random_sizes(seed, 30, 5)
        inst = random_instance(n, m, seed)
        res = solve_minmax(inst)
        report = check_feasible(res.timeline.segments, inst)
        assert report.ok, (seed, report)
        lo, hi = res.timeline.span
        assert lo == 0.0 and hi == 1.0


def test_flag_combinations_agree_within_gaps():
    for seed in range(5):
        inst = random_instance(20, 4, seed)
        results = []
        for nd in (False, True):
            for ie in (False, True):
                for pe in (False, True):
                    cfg = SolverConfig(flags=ImprovementFlags(nd, ie, pe))
                    results.append(solve_minmax(inst, cfg))
        uppers = [r.upper for r in results]
        gmax = max(r.gap for r in results)
        assert max(uppers) <= min(uppers) * (1 + 2 * gmax + 1e-9)
        # every certified lower stays below every upper
        assert max(r.lower for r in results) <= min(uppers) * (1 + 1e-9)


def test_nn_backend_terminates_without_bound():
    for seed in range(4):
        inst = random_instance(20, 4, seed)
        res = solve_minmax(inst, SolverConfig(static_backend="nn"))
        assert res.lower == 0.0
        assert math.isinf(res.gap) or res.upper == 0.0
        assert res.stats.stop_reason in ("no_improvement", "gap")
        assert check_feasible(res.timeline.segments, inst).ok
        exact = solve_minmax(inst)
        assert res.upper >= exact.upper - 1e-9 * exact.upper


def test_fixed_nn_baseline():
    stationary = MovingInstance(
        (Point2(0.0, 0.0),), (Trajectory(Point2(3.0, 0.0), Point2(3.0, 0.0)),)
    )
    base = fixed_nn_baseline(stationary)
    ref = solve_minmax(stationary)
    assert base.upper == pytest.approx(ref.upper)
    assert base.lower == 0.0
    assert base.iterations == 11

    k1 = fixed_nn_baseline(crossing_instance(), k=1)
    assert k1.iterations == 2
    assert k1.upper >= 25 * math.pi - 1e-9

    with pytest.raises(ValueError):
        fixed_nn_baseline(stationary, k=0)


def test_fixed_nn_dominates_exact():
    for seed in range(8):
        n, m = random_sizes(seed, 20, 4)
        inst = random_instance(n, m, seed)
        exact = solve_minmax(inst)
        base = fixed_nn_baseline(inst)
        assert base.upper >= exact.upper - 1e-9 * exact.upper
        assert check_feasible(base.timeline.segments, inst).ok


def test_grid_sandwich_small():
    for seed in range(4):
        n, m = random_sizes(seed, 10, 3)
        inst = random_instance(n, m, seed)
        res = solve_minmax(inst, SolverConfig(target_gap=0.0))
        grid_max = 0.0
        for i in range(50):
            t = i / 49
            sol = brute_force_cover(enumerate_candidates(inst, t))
            grid_max = max(grid_max, math.pi * float(sol.total_radius_sq))
        assert grid_max <= res.upper * (1 + 1e-9)


def test_gap_zero_terminates_small():
    for seed in range(4):
        n, m = random_sizes(seed, 10, 3)
        inst = random_instance(n, m, seed)
        res = solve_minmax(inst, SolverConfig(target_gap=0.0, flags=ALL_FLAGS))
        assert res.stats.stop_reason in ("gap", "no_improvement")
        assert res.gap <= 1e-9 or res.stats.stop_reason == "no_improvement"


def test_time_limit_marks_timeout():
    inst = random_instance(60, 8, 1)
    res = solve_minmax(inst, SolverConfig(time_limit=1e-6))
    assert res.timed_out
    assert res.stats.stop_reason == "time_limit"
    assert res.upper >= res.lower


class RecordingBackend(SolverBackend):
    """Branch and bound that records the gap, time limit and cutoff of every
    call and the lower bound it returned."""

    def __init__(self):
        self.target_gaps = []
        self.time_limits = []
        self.cutoffs = []
        self.lowers = []

    def solve(self, candidates, target_gap, time_limit, cutoff=None):
        self.target_gaps.append(target_gap)
        self.time_limits.append(time_limit)
        self.cutoffs.append(cutoff)
        selected, lower, stop = BranchBoundBackend().solve(
            candidates, target_gap, time_limit, cutoff)
        self.lowers.append(lower)
        return selected, lower, stop


def test_each_peak_solved_once_at_the_target_gap(monkeypatch):
    solved_at = []

    def recording_enumerate(instance, t):
        solved_at.append(t)
        return enumerate_candidates(instance, t)

    monkeypatch.setattr(minmax, "enumerate_candidates", recording_enumerate)
    for seed in range(8):
        for gap in (1e-4, 0.0):
            solved_at.clear()
            backend = RecordingBackend()
            cfg = SolverConfig(flags=ALL_FLAGS, target_gap=gap, backend=backend)
            res = solve_minmax(random_instance(30, 5, seed), cfg)
            assert backend.target_gaps == [gap] * res.stats.static_solves, seed
            assert len(solved_at) == res.stats.static_solves, seed
            for i, t in enumerate(solved_at):
                assert all(compare_event_times(t, u) != 0 for u in solved_at[:i]), (seed, t)


def test_peak_solves_get_the_loop_lower_bound_as_cutoff():
    for seed in range(8):
        for exact in (False, True):
            backend = RecordingBackend()
            cfg = SolverConfig(flags=ALL_FLAGS, exact_arithmetic=exact, backend=backend)
            res = solve_minmax(random_instance(30, 5, seed), cfg)
            assert backend.cutoffs[0] is None, seed
            lower_sum = backend.lowers[0]
            for cutoff, lower in zip(backend.cutoffs[1:], backend.lowers[1:]):
                assert cutoff == lower_sum and type(cutoff) is type(lower_sum), seed
                lower_sum = max(lower_sum, lower)
            assert res.lower == pytest.approx(math.pi * float(lower_sum), rel=1e-12)


def test_static_solve_gets_at_most_half_the_remaining_time():
    backend = RecordingBackend()
    cfg = SolverConfig(flags=ALL_FLAGS, time_limit=60.0, backend=backend)
    res = solve_minmax(random_instance(30, 5, 2), cfg)
    assert res.stats.static_solves == len(backend.time_limits) >= 2
    assert backend.time_limits[0] <= cfg.time_limit / 2
    assert all(a >= b for a, b in zip(backend.time_limits, backend.time_limits[1:]))


def test_determinism():
    inst = random_instance(30, 5, 9)
    cfg = SolverConfig(flags=ALL_FLAGS)
    a = solve_minmax(inst, cfg)
    b = solve_minmax(inst, cfg)
    assert (a.upper, a.lower, a.gap, a.iterations) == (b.upper, b.lower, b.gap, b.iterations)
    assert [(s.t_start, s.t_end, s.assignment) for s in a.timeline.segments] == [
        (s.t_start, s.t_end, s.assignment) for s in b.timeline.segments
    ]


def test_empty_instance():
    inst = MovingInstance((Point2(0.0, 0.0),), ())
    res = solve_minmax(inst)
    assert (res.upper, res.lower, res.gap) == (0.0, 0.0, 0.0)
    base = fixed_nn_baseline(inst)
    assert base.upper == 0.0


def test_exact_arithmetic_agrees_with_float_on_degenerates():
    for klass in ("same_start", "same_end", "same_slope"):
        inst = generate(GenParams(n=6, m=2, seed=3, instance_class=klass))
        exact = solve_minmax(inst, SolverConfig(exact_arithmetic=True, flags=ALL_FLAGS))
        ref = solve_minmax(inst, SolverConfig(flags=ALL_FLAGS))
        assert exact.upper == pytest.approx(ref.upper, rel=1e-6)
        assert check_feasible(exact.timeline.segments, inst).ok


def test_float_and_exact_arithmetic_timelines_agree():
    """With every flag, the kinetic layer makes the same decisions in float
    and exact arithmetic: equal segments, assignments and supports, and
    boundaries within 1e-9, on every class, seed and algorithm."""
    for klass in ("random", "same_slope", "same_start", "same_end"):
        for seed in range(6):
            inst = generate(GenParams(n=40, m=6, seed=seed, instance_class=klass))
            for backend in ("exact", "nn"):
                got, want = (
                    solve_minmax(inst, SolverConfig(static_backend=backend, flags=ALL_FLAGS,
                                                    exact_arithmetic=exact)).timeline.segments
                    for exact in (False, True))
                assert_timelines_agree(got, want, (klass, seed, backend))


def timeline_digest(timeline):
    h = hashlib.sha256()
    for seg in timeline.segments:
        h.update(repr((seg.t_start, seg.t_end, seg.assignment, seg.supports, seg.poly)).encode())
    return len(timeline.segments), h.hexdigest()[:16]


# (segment count, digest of every segment's bounds, assignment, supports and
# objective) of n=40, m=6, seed 0 solves, keyed by (class, arithmetic,
# algorithm, flags).  Pinned from the solver that merged full-span and
# partial extensions by separate routines; the float rows with every flag
# from the dedup step that reads the distance polynomials.
PINNED_SOLVES = {
    ('random', 'float', 'exact', 'none'): (5, '602828c05dc83d79'),
    ('random', 'float', 'exact', 'partext'): (5, '602828c05dc83d79'),
    ('random', 'float', 'exact', 'all'): (8, 'd6bd246a5610340d'),
    ('random', 'float', 'nn', 'none'): (9, '9756626c603df523'),
    ('random', 'float', 'nn', 'partext'): (9, '9756626c603df523'),
    ('random', 'float', 'nn', 'all'): (10, 'e4e93a6a1230198e'),
    ('random', 'float', 'fixed_nn', 'none'): (23, 'd3eb8356bbd5774e'),
    ('random', 'exact', 'exact', 'none'): (5, 'b3bac14e484993e0'),
    ('random', 'exact', 'exact', 'partext'): (5, 'b3bac14e484993e0'),
    ('random', 'exact', 'exact', 'all'): (8, '6bd0b384a6e3c006'),
    ('random', 'exact', 'nn', 'none'): (9, '42c60526829717df'),
    ('random', 'exact', 'nn', 'partext'): (9, '42c60526829717df'),
    ('random', 'exact', 'nn', 'all'): (10, 'b50d7fdf8c301a1a'),
    ('random', 'exact', 'fixed_nn', 'none'): (23, '427ff412c0ca387b'),
    ('same_slope', 'float', 'exact', 'none'): (9, '9706425a485666ce'),
    ('same_slope', 'float', 'exact', 'partext'): (9, '9706425a485666ce'),
    ('same_slope', 'float', 'exact', 'all'): (20, '8cd428bd44701abb'),
    ('same_slope', 'float', 'nn', 'none'): (8, 'be962eb7131c6ab3'),
    ('same_slope', 'float', 'nn', 'partext'): (8, 'be962eb7131c6ab3'),
    ('same_slope', 'float', 'nn', 'all'): (20, '90d509b7e388add2'),
    ('same_slope', 'float', 'fixed_nn', 'none'): (15, '788ebd8f47991de3'),
    ('same_slope', 'exact', 'exact', 'none'): (9, 'd58fcb58200404ee'),
    ('same_slope', 'exact', 'exact', 'partext'): (9, 'd58fcb58200404ee'),
    ('same_slope', 'exact', 'exact', 'all'): (20, '3040d8b496093f74'),
    ('same_slope', 'exact', 'nn', 'none'): (8, '5d74bbfeeb6bcd00'),
    ('same_slope', 'exact', 'nn', 'partext'): (8, '5d74bbfeeb6bcd00'),
    ('same_slope', 'exact', 'nn', 'all'): (20, 'f04c89ffce8fbb7c'),
    ('same_slope', 'exact', 'fixed_nn', 'none'): (15, '42503c74740d704e'),
    ('same_start', 'float', 'exact', 'none'): (1, '13eae303b544f8e4'),
    ('same_start', 'float', 'exact', 'partext'): (1, '13eae303b544f8e4'),
    ('same_start', 'float', 'exact', 'all'): (1, '13eae303b544f8e4'),
    ('same_start', 'float', 'nn', 'none'): (1, '13eae303b544f8e4'),
    ('same_start', 'float', 'nn', 'partext'): (1, '13eae303b544f8e4'),
    ('same_start', 'float', 'nn', 'all'): (1, '13eae303b544f8e4'),
    ('same_start', 'float', 'fixed_nn', 'none'): (1, '13eae303b544f8e4'),
    ('same_start', 'exact', 'exact', 'none'): (1, '56da7aecdaafe7ed'),
    ('same_start', 'exact', 'exact', 'partext'): (1, '56da7aecdaafe7ed'),
    ('same_start', 'exact', 'exact', 'all'): (1, '56da7aecdaafe7ed'),
    ('same_start', 'exact', 'nn', 'none'): (1, '56da7aecdaafe7ed'),
    ('same_start', 'exact', 'nn', 'partext'): (1, '56da7aecdaafe7ed'),
    ('same_start', 'exact', 'nn', 'all'): (1, '56da7aecdaafe7ed'),
    ('same_start', 'exact', 'fixed_nn', 'none'): (1, '56da7aecdaafe7ed'),
    ('same_end', 'float', 'exact', 'none'): (1, '1812e9eacc87f504'),
    ('same_end', 'float', 'exact', 'partext'): (1, '1812e9eacc87f504'),
    ('same_end', 'float', 'exact', 'all'): (1, '1812e9eacc87f504'),
    ('same_end', 'float', 'nn', 'none'): (1, '1812e9eacc87f504'),
    ('same_end', 'float', 'nn', 'partext'): (1, '1812e9eacc87f504'),
    ('same_end', 'float', 'nn', 'all'): (1, '1812e9eacc87f504'),
    ('same_end', 'float', 'fixed_nn', 'none'): (1, '1812e9eacc87f504'),
    ('same_end', 'exact', 'exact', 'none'): (1, 'cf08b3e50515937b'),
    ('same_end', 'exact', 'exact', 'partext'): (1, 'cf08b3e50515937b'),
    ('same_end', 'exact', 'exact', 'all'): (1, 'cf08b3e50515937b'),
    ('same_end', 'exact', 'nn', 'none'): (1, 'cf08b3e50515937b'),
    ('same_end', 'exact', 'nn', 'partext'): (1, 'cf08b3e50515937b'),
    ('same_end', 'exact', 'nn', 'all'): (1, 'cf08b3e50515937b'),
    ('same_end', 'exact', 'fixed_nn', 'none'): (1, 'cf08b3e50515937b'),
}

PIN_FLAGS = {"none": ImprovementFlags(), "partext": ImprovementFlags(part_ext=True),
             "all": ALL_FLAGS}


def test_solve_timelines_pinned():
    for klass in ("random", "same_slope", "same_start", "same_end"):
        inst = generate(GenParams(n=40, m=6, seed=0, instance_class=klass))
        for exact, arith in ((False, "float"), (True, "exact")):
            for backend in ("exact", "nn"):
                for name, flags in PIN_FLAGS.items():
                    cfg = SolverConfig(static_backend=backend, flags=flags, exact_arithmetic=exact)
                    got = timeline_digest(solve_minmax(inst, cfg).timeline)
                    assert got == PINNED_SOLVES[(klass, arith, backend, name)], (klass, arith, backend, name)
            got = timeline_digest(fixed_nn_baseline(inst, exact_arithmetic=exact).timeline)
            assert got == PINNED_SOLVES[(klass, arith, "fixed_nn", "none")], (klass, arith)


def test_partial_extension_walks_the_incumbent_once(monkeypatch):
    """part_ext cuts each extension sweep where it meets the incumbent.  The
    comparisons it makes must stay linear in the incumbent's segments plus
    the extension segments it reads, not their product."""
    calls = [0]
    budget = [0]
    active = [False]
    compare = minmax.compare_event_times
    iter_extend = minmax.iter_extend
    extension = minmax._extension

    def counted_compare(a, b):
        calls[0] += active[0]
        return compare(a, b)

    def counted_iter_extend(*args):
        for seg in iter_extend(*args):
            budget[0] += active[0]
            yield seg

    def measured_extension(*args):
        incumbent = next((a for a in args if isinstance(a, SolutionTimeline)), None)
        if incumbent is None:  # a full extension, not cut by part_ext
            return extension(*args)
        budget[0] += 2 * len(incumbent.segments)  # one sweep each way
        active[0] = True
        try:
            return extension(*args)
        finally:
            active[0] = False

    monkeypatch.setattr(minmax, "compare_event_times", counted_compare)
    monkeypatch.setattr(minmax, "iter_extend", counted_iter_extend)
    monkeypatch.setattr(minmax, "_extension", measured_extension)
    inst = generate(GenParams(n=500, m=25, seed=0))
    res = solve_minmax(inst, SolverConfig(static_backend="nn", flags=ALL_FLAGS))
    assert len(res.timeline.segments) == 581
    assert budget[0] > 1000
    assert calls[0] <= 4 * budget[0], (calls[0], budget[0])


def piece(t0, t1, coefs, tag=0):
    """A hand-built float timeline segment with objective a t^2 + b t + c."""
    return TimelineSegment(t0, t1, (tag,), (0,), QuadraticPoly(*map(float, coefs)))


def ends(segments):
    return [(s.t_start, s.t_end) for s in segments]


def cut(segments, incumbent, direction):
    """`_until_crossing` on segments listed by time, read in travel order."""
    return minmax._until_crossing(segments[::direction], SolutionTimeline(incumbent), direction)


# The incumbent is 1 throughout, in two pieces.
FLAT = [piece(0.0, 0.4, (0, 0, 1), 1), piece(0.4, 1.0, (0, 0, 1), 2)]


def test_until_crossing_cuts_at_the_root_each_way():
    rising = [piece(0.0, 0.25, (0, 0, 0.5)), piece(0.25, 1.0, (0, 2, 0))]  # 2t meets 1 at 1/2
    assert ends(cut(rising, FLAT, +1)) == [(0.0, 0.25), (0.25, 0.5)]
    falling = [piece(0.0, 0.75, (0, -2, 2)), piece(0.75, 1.0, (0, 0, 0.5))]  # 2 - 2t
    assert ends(cut(falling, FLAT, -1)) == [(0.75, 1.0), (0.5, 0.75)]


def test_until_crossing_takes_no_root_at_the_near_end():
    # 2t and 3 - 2t leave the incumbent at their near ends, so neither is cut.
    assert ends(cut([piece(0.5, 1.0, (0, 2, 0))], FLAT, +1)) == [(0.5, 1.0)]
    assert ends(cut([piece(0.0, 1.0, (0, -2, 3))], FLAT, -1)) == [(0.0, 1.0)]


def test_until_crossing_cuts_an_identical_overlap_at_its_near_end():
    stepped = [piece(0.0, 0.5, (0, 0, 2), 1), piece(0.5, 1.0, (0, 0, 1), 2)]
    level = [piece(0.0, 0.25, (0, 0, 0.5)), piece(0.25, 1.0, (0, 0, 1))]
    assert ends(cut(level, stepped, +1)) == [(0.0, 0.25), (0.25, 0.5)]
    stepped = [piece(0.0, 0.5, (0, 0, 1), 1), piece(0.5, 1.0, (0, 0, 2), 2)]
    level = [piece(0.0, 0.75, (0, 0, 1)), piece(0.75, 1.0, (0, 0, 0.5))]
    assert ends(cut(level, stepped, -1)) == [(0.75, 1.0), (0.5, 0.75)]
    # Identical from the segment's own near end: none of it is kept.
    level = [piece(0.0, 0.25, (0, 0, 0.5)), piece(0.25, 1.0, (0, 0, 1))]
    assert ends(cut(level, FLAT, +1)) == [(0.0, 0.25)]


def test_until_crossing_keeps_an_extension_below_the_incumbent_whole():
    # The middle piece, 1 - (t - 1/2)^2, touches the incumbent at 1/2 and
    # falls back: no crossing.
    below = [piece(0.0, 0.3, (0, 0, 0.5)), piece(0.3, 0.8, (-1, 1, 0.75)),
             piece(0.8, 1.0, (0, 1, -0.1))]
    for direction in (+1, -1):
        assert cut(below, FLAT, direction) == below[::direction]
