import hashlib
import math
from fractions import Fraction
from random import Random

import pytest

from conftest import assert_timelines_agree, random_instance, random_sizes
import kdcover.certificate as certificate
import kdcover.kinetic as kinetic
from kdcover.certificate import check_feasible
from kdcover.envelope import SolutionTimeline, TimelineSegment
from kdcover.geometry import (
    ZERO_POLY,
    MovingInstance,
    Point2,
    QuadraticPoly,
    Trajectory,
    compare_values,
    quadratic_roots,
    squared_distance_poly,
)
from kdcover.instances import GenParams, generate
from kdcover.kinetic import ImprovementFlags, dedup_improve, extend
from kdcover.minmax import SolverConfig, fixed_nn_baseline, solve_minmax
from kdcover.static_cover import enumerate_candidates, nn_heuristic, solve_exact

NO_FLAGS = ImprovementFlags()
ALL_FLAGS = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)


def support_change_instance():
    # station at origin; a parked at (2,0), b sweeping (0,1)->(0,3)
    return MovingInstance(
        (Point2(0.0, 0.0),),
        (
            Trajectory(Point2(2.0, 0.0), Point2(2.0, 0.0)),
            Trajectory(Point2(0.0, 1.0), Point2(0.0, 3.0)),
        ),
    )


def test_next_support_change_example():
    inst = support_change_instance()
    fwd = extend((0, 0), 0.0, "forward", 1.0, NO_FLAGS, inst)
    assert len(fwd) == 2 and fwd[0].t_end == pytest.approx(0.5)
    assert [seg.supports for seg in fwd] == [(0,), (1,)]
    # Backward from t=1 the support starts as b and changes back to a at 0.5;
    # segments still come in ascending time order.
    back = extend((0, 0), 1.0, "backward", 0.0, NO_FLAGS, inst)
    assert len(back) == 2 and back[0].t_end == pytest.approx(0.5)
    assert [seg.supports for seg in back] == [(0,), (1,)]


def test_next_support_change_single_object():
    inst = MovingInstance((Point2(0.0, 0.0),), (Trajectory(Point2(1.0, 0.0), Point2(2.0, 0.0)),))
    segs = extend((0,), 0.0, "forward", 1.0, NO_FLAGS, inst)
    assert len(segs) == 1 and segs[0].supports == (0,)


def test_resolve_tie_examples():
    # Both objects sit at distance 2 at t=0; b moves away, so b is the support.
    inst = MovingInstance(
        (Point2(0.0, 0.0),),
        (
            Trajectory(Point2(2.0, 0.0), Point2(2.0, 0.0)),
            Trajectory(Point2(0.0, 2.0), Point2(0.0, 4.0)),
        ),
    )
    assert extend((0, 0), 0.0, "forward", 1.0, NO_FLAGS, inst)[0].supports == (1,)
    # A tie group of one: with a parked at a far second station, b is alone.
    apart = MovingInstance((Point2(0.0, 0.0), Point2(100.0, 0.0)), inst.objects)
    assert extend((1, 0), 0.0, "forward", 1.0, NO_FLAGS, apart)[0].supports == (1, 0)
    # Equal derivative and curvature: the lower index wins, for all time.
    mirrored = MovingInstance(
        (Point2(0.0, 0.0),),
        (
            Trajectory(Point2(1.0, 0.0), Point2(1.0, 1.0)),
            Trajectory(Point2(-1.0, 0.0), Point2(-1.0, -1.0)),
        ),
    )
    segs = extend((0, 0), 0.0, "forward", 1.0, NO_FLAGS, mirrored)
    assert len(segs) == 1 and segs[0].supports == (0,)


def handover_instance():
    return MovingInstance(
        (Point2(0.0, 0.0), Point2(10.0, 0.0)),
        (
            Trajectory(Point2(3.0, 0.0), Point2(7.0, 0.0)),  # b, assigned to c1
            Trajectory(Point2(2.0, 0.0), Point2(2.0, 0.0)),  # a, assigned to c1
            Trajectory(Point2(9.0, 0.0), Point2(9.0, 0.0)),  # d, assigned to c2
        ),
    )


def test_next_handover_examples():
    imp_ext = ImprovementFlags(imp_ext=True)
    segs = extend((0, 0, 1), 0.0, "forward", 1.0, imp_ext, handover_instance())
    assert segs[0].t_end == pytest.approx(43 / 80)
    # b (object 0) moves from station 0 to station 1 and becomes its support.
    assert (segs[0].assignment, segs[1].assignment) == ((0, 0, 1), (1, 0, 1))
    assert (segs[0].supports, segs[1].supports) == ((0, 2), (1, 0))

    symmetric = MovingInstance(
        (Point2(0.0, 0.0), Point2(10.0, 0.0)),
        (
            Trajectory(Point2(4.0, 0.0), Point2(6.0, 0.0)),
            Trajectory(Point2(2.0, 0.0), Point2(2.0, 0.0)),
            Trajectory(Point2(8.0, 0.0), Point2(8.0, 0.0)),
        ),
    )
    segs = extend((0, 0, 1), 0.0, "forward", 1.0, imp_ext, symmetric)
    assert segs[0].t_end == pytest.approx(0.5)
    assert (segs[0].assignment, segs[1].assignment) == ((0, 0, 1), (1, 0, 1))

    toward = MovingInstance(
        (Point2(0.0, 0.0), Point2(10.0, 0.0)),
        (
            Trajectory(Point2(7.0, 0.0), Point2(3.0, 0.0)),  # moving toward c1
            Trajectory(Point2(2.0, 0.0), Point2(2.0, 0.0)),
            Trajectory(Point2(9.0, 0.0), Point2(9.0, 0.0)),
        ),
    )
    segs = extend((0, 0, 1), 0.0, "forward", 1.0, imp_ext, toward)
    assert all(seg.assignment == (0, 0, 1) for seg in segs)


def test_dedup_improve_examples():
    inst = MovingInstance(
        (Point2(0.0, 0.0), Point2(2.5, 0.0)),
        (
            Trajectory(Point2(1.0, 0.0), Point2(1.0, 0.0)),
            Trajectory(Point2(2.0, 0.0), Point2(2.0, 0.0)),
            Trajectory(Point2(3.0, 0.0), Point2(3.0, 0.0)),
        ),
    )
    improved = dedup_improve((0, 0, 1), 0.0, inst)
    assert improved == (0, 1, 1)
    # fixpoint / idempotence
    assert dedup_improve(improved, 0.0, inst) == improved
    single = MovingInstance((Point2(0.0, 0.0),), (Trajectory(Point2(1.0, 0.0), Point2(1.0, 0.0)),))
    assert dedup_improve((0,), 0.0, single) == (0,)
    # Stations 1 and 2 cover station 0's support at squared distances 25 and
    # 25 - 1e-9, which `compare_values` calls equal: the lower station takes it.
    points = (Point2(5.0, 0.0), Point2(16.0, 0.0), Point2(5.0, 11.0 - 1e-10))
    tie = MovingInstance((Point2(0.0, 0.0), Point2(10.0, 0.0), Point2(5.0, 5.0 - 1e-10)),
                         tuple(Trajectory(p, p) for p in points))
    assert dedup_improve((0, 1, 2), 0.0, tie) == (1, 1, 2)
    # Object 0 joins station 1 at exactly its radius 25 and, the lower index,
    # becomes its support; as such it lies inside station 2's disk and moves on.
    points = (Point2(3.0, 4.0), Point2(11.0, 8.0), Point2(3.0, -7.0))
    join = MovingInstance((Point2(0.0, 0.0), Point2(6.0, 8.0), Point2(3.0, -1.0)),
                          tuple(Trajectory(p, p) for p in points))
    for inst, t in ((join, 0.0), (join.as_exact(), Fraction(0))):
        assert dedup_improve((0, 1, 2), t, inst) == (2, 1, 2)
    # An empty disk (radius 0) takes nothing, not even a support that
    # `compare_values` calls at its radius.
    points = (Point2(1e-5, 0.0), Point2(0.0, 0.0))
    empty = MovingInstance((Point2(0.0, 0.0), Point2(0.0, 0.0)),
                           tuple(Trajectory(p, p) for p in points))
    assert dedup_improve((0, 1), 0.0, empty) == (0, 1)


def cost_at(assignment, t, inst):
    total = 0.0
    for s in range(inst.m):
        best = 0.0
        for j, a in enumerate(assignment):
            if a == s:
                best = max(best, float(squared_distance_poly(inst.stations[s], inst.objects[j])(t)))
        total += best
    return total


def exact_cost_at(assignment, t, inst):
    radius = [0] * inst.m
    for j, s in enumerate(assignment):
        radius[s] = max(radius[s], squared_distance_poly(inst.stations[s], inst.objects[j])(t))
    return sum(radius)


def test_dedup_never_increases_cost():
    from random import Random

    for seed in range(100):
        n, m = random_sizes(seed, 12, 4)
        inst = random_instance(n, m, seed)
        rng = Random(seed)
        assignment = tuple(rng.randrange(m) for _ in range(n))
        t = rng.random()
        improved = dedup_improve(assignment, t, inst)
        assert cost_at(improved, t, inst) <= cost_at(assignment, t, inst) * (1 + 1e-9)
        assert dedup_improve(improved, t, inst) == improved

    # Exact arithmetic: the inside test has no tolerance, so cost cannot rise
    # at all.
    for seed in range(20):
        n, m = random_sizes(seed, 12, 4)
        inst = random_instance(n, m, seed).as_exact()
        rng = Random(seed)
        assignment = tuple(rng.randrange(m) for _ in range(n))
        t = Fraction(rng.random())
        improved = dedup_improve(assignment, t, inst)
        assert exact_cost_at(improved, t, inst) <= exact_cost_at(assignment, t, inst)
        assert dedup_improve(improved, t, inst) == improved


def test_extend_examples():
    inst = support_change_instance()
    segs = extend((0, 0), 0.0, "forward", 1.0, NO_FLAGS, inst)
    assert len(segs) == 2
    assert segs[0].t_end == pytest.approx(0.5)
    assert segs[0].supports == (0,)
    assert segs[1].supports == (1,)

    single = MovingInstance((Point2(0.0, 0.0),), (Trajectory(Point2(3.0, 0.0), Point2(3.0, 0.0)),))
    segs = extend((0,), 0.0, "forward", 1.0, NO_FLAGS, single)
    assert len(segs) == 1 and segs[0].poly(0.5) == pytest.approx(9.0)

    crossing = MovingInstance(
        (Point2(0.0, 0.0), Point2(10.0, 0.0)),
        (Trajectory(Point2(2.0, 0.0), Point2(8.0, 0.0)),),
    )
    plain = extend((0,), 0.0, "forward", 1.0, NO_FLAGS, crossing)
    assert len(plain) == 1  # no handover: assignment never changes
    assert plain[0].poly(1.0) == pytest.approx(64.0)
    improved = extend((0,), 0.0, "forward", 1.0, ImprovementFlags(imp_ext=True), crossing)
    assert len(improved) == 2
    assert improved[0].t_end == pytest.approx(0.5)
    assert improved[1].assignment == (1,)
    assert improved[1].poly(1.0) == pytest.approx(4.0)


def test_extend_preserves_feasibility_random():
    for seed in range(30):
        n, m = random_sizes(seed, 20, 5)
        inst = random_instance(n, m, seed)
        sol = nn_heuristic(inst, 0.0)
        for flags in (NO_FLAGS, ALL_FLAGS):
            segs = extend(sol.assignment, 0.0, "forward", 1.0, flags, inst)
            report = check_feasible(segs, inst)
            assert report.ok, (seed, flags, report)
            assert segs[0].t_start == 0.0 and segs[-1].t_end == 1.0


def reference_check_feasible(segments, instance, sample_count=4000):
    """A dense-sampling oracle: every object's violation at every one of
    `sample_count` evenly spaced times, each distance through
    `QuadraticPoly.__call__`.  It can miss a violation between samples, but
    never reports one that is not there."""
    segments = list(segments)
    lo, hi = float(segments[0].t_start), float(segments[-1].t_end)
    polys = [[squared_distance_poly(st, obj) for obj in instance.objects]
             for st in instance.stations]
    worst, worst_t, worst_obj = 0.0, None, None
    k = 0
    for i in range(sample_count):
        t = lo + (hi - lo) * i / (sample_count - 1) if sample_count > 1 else lo
        while k + 1 < len(segments) and float(segments[k].t_end) < t:
            k += 1
        seg = segments[k]
        radius = [0.0] * instance.m
        for s, sup in enumerate(seg.supports):
            if sup is not None:
                radius[s] = float(polys[s][sup](t))
        for j, s in enumerate(seg.assignment):
            d2 = float(polys[s][j](t))
            violation = (d2 - radius[s]) / max(radius[s], 1.0)
            if violation > worst:
                worst, worst_t, worst_obj = violation, t, j
    return certificate.FeasibilityReport(worst <= certificate.FEASIBILITY_TOL, worst, worst_t,
                                         worst_obj)


def tampered(segments, m, seed):
    """Each segment with one object moved to another station, or one
    support swapped for a nearer object, so that some fail."""
    rng = Random(seed)
    out = []
    for seg in segments:
        assignment, supports = list(seg.assignment), list(seg.supports)
        j = rng.randrange(len(assignment))
        if rng.random() < 0.5 or m == 1:
            supports[assignment[j]] = j
        else:
            old = assignment[j]
            assignment[j] = (old + 1) % m
            if supports[assignment[j]] is None:
                supports[assignment[j]] = j
            if old not in assignment:
                supports[old] = None
        out.append(TimelineSegment(seg.t_start, seg.t_end, tuple(assignment), tuple(supports),
                                   seg.poly))
    return out


def assert_at_least_the_oracle(timeline, instance):
    """The analytic check against the sampling oracle: its worst violation
    is at least the oracle's, and it fails wherever the oracle fails.
    Returns the analytic report."""
    got = check_feasible(timeline, instance)
    want = reference_check_feasible(timeline, instance)
    assert got.worst_violation >= want.worst_violation, (got, want)
    assert want.ok or not got.ok
    return got


def test_analytic_check_bounds_the_sampling_oracle():
    failed = 0
    for seed in range(12):
        n, m = random_sizes(seed, 20, 5)
        base = random_instance(n, m, seed)
        for inst, t0, t1 in ((base, 0.0, 1.0), (base.as_exact(), Fraction(0), Fraction(1))):
            sol = nn_heuristic(inst, t0)
            segs = extend(sol.assignment, t0, "forward", t1, ALL_FLAGS, inst)
            assert check_feasible(segs, inst).worst_violation <= 1e-12
            for timeline in (segs, tampered(segs, m, seed)):
                failed += not assert_at_least_the_oracle(timeline, inst).ok
    assert failed > 0


def tampered_runs(segments, m, seed):
    """`tampered`, one tampering per run of segments that share an
    assignment tuple, the run keeping one shared tuple: a check that kept
    the members of an earlier tuple would check the moved objects against
    the wrong stations."""
    rng = Random(seed)
    out = []
    for seg in segments:
        if out and seg.assignment is prev.assignment:
            assignment = out[-1].assignment
        else:
            assignment = list(seg.assignment)
            j = rng.randrange(len(assignment))
            assignment[j] = (assignment[j] + 1) % m
            assignment = tuple(assignment)
        prev = seg
        out.append(TimelineSegment(seg.t_start, seg.t_end, assignment, seg.supports, seg.poly))
    return out


def test_analytic_check_bounds_the_oracle_on_shared_tuples_one_object_and_ties():
    shared = 0
    for seed in range(8):
        n, m = random_sizes(seed, 30, 5)
        inst = random_instance(max(n, 2), m, seed)
        segs = extend(nn_heuristic(inst, 0.0).assignment, 0.0, "forward", 1.0, ALL_FLAGS, inst)
        shared += sum(a.assignment is b.assignment for a, b in zip(segs, segs[1:]))
        moves = sum(a.assignment != b.assignment for a, b in zip(segs, segs[1:]))
        for timeline in (segs, tampered_runs(segs, m, seed) if moves and m > 1 else segs):
            assert_at_least_the_oracle(timeline, inst)
    assert shared

    # One object, on a station without a support in the tampered copy.
    single = random_instance(1, 2, 3)
    segs = extend((0,), 0.0, "forward", 1.0, NO_FLAGS, single)
    for timeline in (segs, [TimelineSegment(s.t_start, s.t_end, (1,), (0, None), s.poly)
                            for s in segs]):
        got = assert_at_least_the_oracle(timeline, single)
    assert not got.ok and got.worst_object == 0

    # Objects 1 and 2 share one trajectory outside the disk of support 0:
    # their violations tie, and the lower index is reported.
    twins = MovingInstance(
        (Point2(0.0, 0.0),),
        (Trajectory(Point2(1.0, 0.0), Point2(0.0, 1.0)),
         Trajectory(Point2(3.0, 0.0), Point2(0.0, 3.0)),
         Trajectory(Point2(3.0, 0.0), Point2(0.0, 3.0))),
    )
    poly = squared_distance_poly(twins.stations[0], twins.objects[0])
    timeline = [TimelineSegment(0.0, 0.5, (0, 0, 0), (0,), poly),
                TimelineSegment(0.5, 1.0, (0, 0, 0), (0,), poly)]
    got = assert_at_least_the_oracle(timeline, twins)
    assert got.worst_object == 1


def test_event_counts_within_pairwise_bounds():
    for seed in range(10):
        n, m = random_sizes(seed, 15, 4)
        inst = random_instance(n, m, seed)
        sol = nn_heuristic(inst, 0.0)
        plain = extend(sol.assignment, 0.0, "forward", 1.0, NO_FLAGS, inst)
        assert len(plain) - 1 <= m * n * n
        rich = extend(sol.assignment, 0.0, "forward", 1.0, ImprovementFlags(imp_ext=True), inst)
        assert len(rich) - 1 <= m * m * n**3


def test_support_change_polys_equal_at_event():
    inst = support_change_instance().as_exact()
    segs = extend((0, 0), Fraction(0), "forward", Fraction(1), NO_FLAGS, inst)
    t_event = segs[0].t_end
    assert t_event == Fraction(1, 2)
    old, new = segs[0].supports[0], segs[1].supports[0]
    assert (old, new) == (0, 1)
    p_old = squared_distance_poly(inst.stations[0], inst.objects[old])
    p_new = squared_distance_poly(inst.stations[0], inst.objects[new])
    assert p_old(t_event) == p_new(t_event)  # exact equality

    for seed in range(8):
        n, m = random_sizes(seed, 8, 3)
        inst = random_instance(n, m, seed).as_exact()
        sol = nn_heuristic(inst, Fraction(0))
        segs = extend(sol.assignment, Fraction(0), "forward", Fraction(1), NO_FLAGS, inst)
        for prev, cur in zip(segs, segs[1:]):
            for s in range(m):
                if prev.supports[s] != cur.supports[s] and prev.assignment == cur.assignment:
                    a = squared_distance_poly(inst.stations[s], inst.objects[prev.supports[s]])
                    b = squared_distance_poly(inst.stations[s], inst.objects[cur.supports[s]])
                    assert a(cur.t_start) == b(cur.t_start)


def test_forward_backward_boundaries_agree():
    for seed in range(15):
        n, m = random_sizes(seed, 15, 4)
        inst = random_instance(n, m, seed)
        sol = nn_heuristic(inst, 0.0)
        fwd = extend(sol.assignment, 0.0, "forward", 1.0, NO_FLAGS, inst)
        bwd = extend(sol.assignment, 1.0, "backward", 0.0, NO_FLAGS, inst)
        fb = sorted(s.t_end for s in fwd[:-1])
        bb = sorted(s.t_end for s in bwd[:-1])
        assert len(fb) == len(bb)
        for x, y in zip(fb, bb):
            assert x == pytest.approx(y, abs=1e-9)


def test_check_feasible_flags_bad_assignment():
    inst = MovingInstance(
        (Point2(0.0, 0.0), Point2(10.0, 0.0)),
        (
            Trajectory(Point2(1.0, 0.0), Point2(1.0, 0.0)),
            Trajectory(Point2(9.0, 0.0), Point2(9.0, 0.0)),
        ),
    )
    good = extend((0, 1), 0.0, "forward", 1.0, NO_FLAGS, inst)
    assert check_feasible(good, inst).ok
    bad = [
        good[0].__class__(0.0, 1.0, (0, 0), (0, None), good[0].poly)
    ]  # claims station 0 covers both with radius 1
    report = check_feasible(bad, inst)
    assert not report.ok and report.worst_violation > 1.0
    empty = MovingInstance((Point2(0.0, 0.0),), ())
    assert check_feasible(extend((), 0.0, "forward", 1.0, NO_FLAGS, empty), empty).ok


def test_extend_with_exact_static_seed():
    for seed in range(8):
        n, m = random_sizes(seed, 12, 3)
        inst = random_instance(n, m, seed)
        sol = solve_exact(enumerate_candidates(inst, 0.0))
        segs = extend(sol.assignment, 0.0, "forward", 1.0, ALL_FLAGS, inst)
        assert check_feasible(segs, inst).ok
        timeline = SolutionTimeline(tuple(segs))
        assert timeline.segments[0].poly(0.0) <= sol.total_radius_sq * (1 + 1e-9)


def reference_dedup_improve(assignment, t, instance):
    """The stand-alone duplicate-coverage rebuild that preceded the engine
    step: every support recomputed from all members, distances tabled."""
    n, m = instance.n, instance.m
    if n == 0:
        return tuple(assignment)
    stations, objects = instance.stations, instance.objects
    positions = [None] * n
    table = [[None] * n for _ in range(m)]

    def d2(s, o):
        v = table[s][o]
        if v is None:
            p = positions[o]
            if p is None:
                tr = objects[o]
                p = positions[o] = (
                    tr.start.x + t * (tr.end.x - tr.start.x),
                    tr.start.y + t * (tr.end.y - tr.start.y),
                )
            st = stations[s]
            dx, dy = st.x - p[0], st.y - p[1]
            v = table[s][o] = dx * dx + dy * dy
        return v

    assign = list(assignment)
    members = [[] for _ in range(m)]
    for j, s in enumerate(assign):
        members[s].append(j)

    def support_of(s):
        if not members[s]:
            return None
        return max(members[s], key=lambda o: (d2(s, o), -o))

    radius = [0] * m
    sup = [support_of(s) for s in range(m)]
    for s in range(m):
        if sup[s] is not None:
            radius[s] = d2(s, sup[s])

    for _ in range(n * m + m):
        moved = False
        for s in range(m):
            o = sup[s]
            if o is None or radius[s] == 0:
                continue
            best = None
            for s2 in range(m):
                if s2 == s or radius[s2] == 0:
                    continue
                d = d2(s2, o)
                if compare_values(d, radius[s2]) <= 0 and (best is None or (d, s2) < best):
                    best = (d, s2)
            if best is None:
                continue
            s2 = best[1]
            members[s].remove(o)
            members[s2].append(o)
            assign[o] = s2
            sup[s] = support_of(s)
            radius[s] = d2(s, sup[s]) if sup[s] is not None else 0
            sup[s2] = support_of(s2)
            radius[s2] = d2(s2, sup[s2])
            moved = True
            break
        if not moved:
            break
    return tuple(assign)


def test_dedup_improve_matches_reference():
    for n, m in ((40, 6), (120, 10)):
        for seed in range(6):
            inst = random_instance(n, m, seed)
            rng = Random(seed)
            t = rng.random()
            for work, tt in ((inst, t), (inst.as_exact(), Fraction(t))):
                for assignment in (
                    tuple(rng.randrange(m) for _ in range(n)),
                    nn_heuristic(work, tt).assignment,
                ):
                    expected = reference_dedup_improve(assignment, tt, work)
                    assert dedup_improve(assignment, tt, work) == expected, (n, seed, tt)


def timeline_digest(segments):
    h = hashlib.sha256()
    for seg in segments:
        h.update(repr((seg.t_start, seg.t_end, seg.assignment, seg.supports)).encode())
    return len(segments), h.hexdigest()[:16]


# (segment count, digest of every segment's bounds, assignment and supports)
# of `extend` from t=1/2 with the nearest-neighbor assignment there.  The
# float rows with every flag are pinned from the dedup step that reads the
# distance polynomials.
PINNED_TIMELINES = {
    (0, "none", "forward"): (5, "fcbadf2f3c218af5"),
    (0, "none", "backward"): (7, "57ddef15f4759fc8"),
    (0, "all", "forward"): (33, "ce2f4740346bab7c"),
    (0, "all", "backward"): (42, "6c17b41f6ee8ce67"),
    (1, "none", "forward"): (6, "e7a55bb924e22fdc"),
    (1, "none", "backward"): (8, "55573cf4f82249d9"),
    (1, "all", "forward"): (35, "ec4f7196d2f96fa0"),
    (1, "all", "backward"): (34, "5ef25dbe61c7db20"),
    (2, "none", "forward"): (3, "4f007dde52c3d5eb"),
    (2, "none", "backward"): (4, "59d0f30cb856daf5"),
    (2, "all", "forward"): (4, "24bacce6db5d5281"),
    (2, "all", "backward"): (3, "b64ff36576ec66e7"),
    ("exact", "none", "forward"): (2, "97e37f9dae0c9614"),
    ("exact", "none", "backward"): (2, "f35c1d2ec9cf216c"),
    ("exact", "all", "forward"): (3, "4fb9979da9bbe745"),
    ("exact", "all", "backward"): (4, "76c4331e0e0e39f7"),
}


def test_extend_timelines_pinned():
    cases = [(seed, random_instance(120, 10, seed), 0.5, 0.0, 1.0) for seed in range(3)]
    cases.append(("exact", random_instance(30, 5, 0).as_exact(),
                  Fraction(1, 2), Fraction(0), Fraction(1)))
    for key, inst, half, zero, one in cases:
        assignment = nn_heuristic(inst, half).assignment
        for name, flags in (("none", NO_FLAGS), ("all", ALL_FLAGS)):
            for direction, stop in (("forward", one), ("backward", zero)):
                segs = extend(assignment, half, direction, stop, flags, inst)
                assert timeline_digest(segs) == PINNED_TIMELINES[(key, name, direction)]


def test_full_size_extend_pinned():
    """Full-size fix seed 1 empties and refills stations while handovers are
    queued, which the small pinned cases do not reach.  Pinned from the
    engine whose dedup step reads the distance polynomials."""
    inst = generate(GenParams(n=500, m=25, seed=1))
    assignment = nn_heuristic(inst, 0.0).assignment
    segs = extend(assignment, 0.0, "forward", 1.0, ALL_FLAGS, inst)
    assert timeline_digest(segs) == (571, "e81eb6617874b8a4")


def test_full_size_heuristic_solves_pinned():
    """The benchmark's heuristic solves at full size, where kinetic
    extension is most of the work: nn with every flag and the fixed_nn
    baseline on fix seed 0.  Pinned from the engine that composed every
    handover difference from its before and after costs; the nn digest from
    the dedup step that reads the distance polynomials."""
    inst = generate(GenParams(n=500, m=25, seed=0))
    nn = solve_minmax(inst, SolverConfig(static_backend="nn", flags=ALL_FLAGS))
    assert timeline_digest(nn.timeline.segments) == (581, "97dfea94906cd7d3")
    assert nn.upper == 19585.099137464924
    base = fixed_nn_baseline(inst, k=10)
    assert timeline_digest(base.timeline.segments) == (151, "36ffb8ab597805fa")
    assert base.upper == 19821.001136801686


def poly_digest(segments):
    """`timeline_digest` with each segment's objective polynomial too, by
    its repr."""
    h = hashlib.sha256()
    for seg in segments:
        h.update(repr((seg.t_start, seg.t_end, seg.assignment, seg.supports, seg.poly)).encode())
    return len(segments), h.hexdigest()[:16]


def test_full_size_heuristic_polynomials_pinned():
    """The solves of `test_full_size_heuristic_solves_pinned` with every
    segment's objective polynomial in the digest, so that its coefficients,
    their types and the polynomial's repr all stay as they were."""
    inst = generate(GenParams(n=500, m=25, seed=0))
    nn = solve_minmax(inst, SolverConfig(static_backend="nn", flags=ALL_FLAGS))
    assert poly_digest(nn.timeline.segments) == (581, "3b7a6151d4bb26ae")
    base = fixed_nn_baseline(inst, k=10)
    assert poly_digest(base.timeline.segments) == (151, "45396d17653c72c1")


def test_full_size_exact_arith_pinned():
    """A full-size solve in exact arithmetic with every flag, fix seed 2,
    where the exact number and geometry paths do the kinetic work.  Pinned
    from the engine that computed every scanned value exactly; the lower
    bound, where the stationary searches stop, from the search that fixes
    levels."""
    inst = generate(GenParams(n=500, m=25, seed=2))
    res = solve_minmax(inst, SolverConfig(flags=ALL_FLAGS, exact_arithmetic=True))
    assert timeline_digest(res.timeline.segments) == (26, "cd477d0e15c3929b")
    assert res.upper == 12872.448880989716
    assert res.lower == 12871.203770479342


def tiny_station_instance():
    """random_instance(40, 6, 12) as exact rationals, with its first station
    at (5e-324, 1e-300): the lift's scale is 2**1074, so every lifted
    coefficient lies far past the float range."""
    base = random_instance(40, 6, 12)
    return MovingInstance((Point2(5e-324, 1e-300),) + base.stations[1:],
                          base.objects).as_exact()


def test_exact_lift_past_the_float_range_pinned():
    """The engine's float filters of differences of lifted rows decide
    nothing on the tiny-station instance, and exact arithmetic decides
    alone.  Pinned from the engine whose rows were Fractions over L**2."""
    inst = tiny_station_instance()
    assert inst.lift.scale == 2 ** 1074
    with pytest.raises(OverflowError):
        float(inst.lift.scale ** 2)
    res = solve_minmax(inst, SolverConfig(flags=ALL_FLAGS, exact_arithmetic=True))
    assert poly_digest(res.timeline.segments) == (22, "9d4316679444e2a0")
    assert res.upper == res.lower == 11575.326776303522
    nn = solve_minmax(inst, SolverConfig(static_backend="nn", flags=ALL_FLAGS,
                                         exact_arithmetic=True))
    assert poly_digest(nn.timeline.segments) == (64, "520f64649722e147")
    assert nn.upper == 13576.313080343194
    half = Fraction(1, 2)
    assignment = nn_heuristic(inst, half).assignment
    for direction, stop, want in (("forward", Fraction(1), (23, "1d5dc27d49a4700a")),
                                  ("backward", Fraction(0), (24, "0617a4b7b813caeb"))):
        assert poly_digest(extend(assignment, half, direction, stop, ALL_FLAGS, inst)) == want


# `poly_digest` of `extend` of exact instances from the float time 0.5,
# by instance, flags and direction: n=40, m=6 seed 0 of each class, with
# the float instance's nearest-neighbor assignment, and the tiny-station
# instance with its own.
PINNED_FLOAT_TIME = {
    ('random', 'none', 'forward'): (5, '09bfe3fcb4bb6405'),
    ('random', 'none', 'backward'): (8, '734cb40582bf9285'),
    ('random', 'all', 'forward'): (15, 'cf64de5967a1bce5'),
    ('random', 'all', 'backward'): (26, 'c24a4be613753e9c'),
    ('same_slope', 'none', 'forward'): (2, '798b3d9883a5fe9d'),
    ('same_slope', 'none', 'backward'): (3, 'e8a8a81df7c0c1fc'),
    ('same_slope', 'all', 'forward'): (6, '5403ce29ea924694'),
    ('same_slope', 'all', 'backward'): (10, 'f85fab21aaba0b19'),
    ('same_start', 'none', 'forward'): (1, 'ef9cd1fabea75420'),
    ('same_start', 'none', 'backward'): (1, '8863f167f033e03f'),
    ('same_start', 'all', 'forward'): (1, 'ef9cd1fabea75420'),
    ('same_start', 'all', 'backward'): (1, '8863f167f033e03f'),
    ('same_end', 'none', 'forward'): (1, '2642ca52e968fde5'),
    ('same_end', 'none', 'backward'): (1, 'd7ae8c216bf22cf2'),
    ('same_end', 'all', 'forward'): (1, '2642ca52e968fde5'),
    ('same_end', 'all', 'backward'): (1, 'd7ae8c216bf22cf2'),
    ('tiny', 'none', 'forward'): (5, 'e7264a38dbdab76c'),
    ('tiny', 'none', 'backward'): (6, '6def314d359fd8e5'),
    ('tiny', 'all', 'forward'): (23, '62344fb36d0c0c18'),
    ('tiny', 'all', 'backward'): (24, '419d5f7a627f4f19'),
}


def test_extend_exact_instances_at_a_float_time_pinned():
    """At a float time the scans read values as floats, which
    `compare_values` compares with a max(1, .) floor that is not invariant
    under a scale: the engine reads them in true units there, as the
    Fraction rows gave them, also where the lifted ints are past the float
    range.  Pinned from the engine whose rows were Fractions over L**2."""
    cases = []
    for klass in ("random", "same_slope", "same_start", "same_end"):
        inst = generate(GenParams(n=40, m=6, seed=0, instance_class=klass))
        cases.append((klass, inst.as_exact(), nn_heuristic(inst, 0.5).assignment))
    inst = tiny_station_instance()
    cases.append(("tiny", inst, nn_heuristic(inst, Fraction(1, 2)).assignment))
    got = {}
    for key, inst, assignment in cases:
        for name, flags in (("none", NO_FLAGS), ("all", ALL_FLAGS)):
            for direction, stop in (("forward", 1.0), ("backward", 0.0)):
                segs = extend(assignment, 0.5, direction, stop, flags, inst)
                got[(key, name, direction)] = poly_digest(segs)
    assert got == PINNED_FLOAT_TIME


def reference_handover_diff(engine, s1, s2, inputs):
    """The handover difference composed as `before - after`."""
    b, a2, c = inputs
    row1, row2 = engine.polys[s1], engine.polys[s2]
    p_a = row1[a2] if a2 is not None else ZERO_POLY
    p_c = row2[c] if c is not None else ZERO_POLY
    return (row1[b] + p_c) - (p_a + row2[b])


def test_handover_difference_matches_before_minus_after():
    """Coefficient by coefficient by repr, so an int, a Fraction or a -0.0
    where the composition gives something else fails.  Runner-ups and s2
    supports of None stand at the int zeros of ZERO_POLY."""
    for inst, t in ((random_instance(40, 6, 3), 0.37),
                    (random_instance(12, 4, 5).as_exact(), Fraction(2, 7))):
        engine = kinetic._Extender(inst, nn_heuristic(inst, t).assignment, 1, 1, ALL_FLAGS)
        for s in range(inst.m):
            engine._pick_support(s, t)
        checked = 0
        for s1 in range(inst.m):
            b = engine.supports[s1]
            if b is None:
                continue
            others = [o for o in engine.members[s1] if o != b]
            for s2 in range(inst.m):
                if s2 == s1:
                    continue
                for a2 in [None] + others:
                    for c in (engine.supports[s2], None):
                        got = engine._handover_diff(s1, s2, (b, a2, c))
                        ref = reference_handover_diff(engine, s1, s2, (b, a2, c))
                        assert list(map(repr, (got.a, got.b, got.c))) == \
                            list(map(repr, (ref.a, ref.b, ref.c))), (s1, s2, a2, c)
                        checked += 1
        assert checked > 50


def test_full_size_stationary_solve_pinned():
    """The stationary solve at full size, where the relaxation's O(nm)
    passes dominate, pinned from the element-by-element loops they
    replaced."""
    inst = generate(GenParams(n=500, m=25, seed=1))
    sol = solve_exact(enumerate_candidates(inst, 0.0), target_gap=1e-4)
    assert sol.selected == (13, 1470, 2009, 4002, 4502, 10033)
    assert sol.total_radius_sq == 4026.989107668307
    assert sol.lower_radius_sq == 4026.653964214087
    assert sol.total_radius_sq - sol.lower_radius_sq <= 1e-4 * sol.lower_radius_sq
    assert not sol.timed_out


def test_extend_builds_distance_polynomials_on_demand(monkeypatch):
    inst = generate(GenParams(n=500, m=25, seed=0))
    n, m = inst.n, inst.m
    assignment = nn_heuristic(inst, 0.0).assignment
    calls = [0]
    build = kinetic.squared_distance_poly

    def counted(station, obj):
        calls[0] += 1
        return build(station, obj)

    monkeypatch.setattr(kinetic, "squared_distance_poly", counted)
    extend(assignment, 0.0, "forward", 1.0, NO_FLAGS, inst)
    assert calls[0] <= n + m * m
    calls[0] = 0
    extend(assignment, 0.0, "forward", 1.0, ALL_FLAGS, inst)
    assert calls[0] < n * m


def test_exact_distance_rows_match_squared_distance_poly():
    """An instance with an integer lift builds each distance polynomial from
    the lifted ints: three ints which, over the row's `den`, equal
    `squared_distance_poly` of the coordinates, with the same doubles in
    `FloatRow`, for Fraction, int and mixed coordinates.  A float instance
    keeps the plain rows."""
    rng = Random(3)
    base = random_instance(9, 3, 5)

    def mixed(v):
        pick = rng.randrange(3)
        return round(v) if pick == 0 else Fraction(v) if pick == 1 else Fraction(round(v * 7), 3)

    def ints(v):
        return round(v)

    def remap(inst, f):
        def point(p):
            return Point2(f(p.x), f(p.y))
        return MovingInstance(tuple(map(point, inst.stations)),
                              tuple(Trajectory(point(o.start), point(o.end)) for o in inst.objects))

    for inst in (base.as_exact(), remap(base, ints), remap(base, mixed)):
        assert inst.lift is not None
        rows, floats = kinetic.distance_rows(inst), certificate.float_rows(inst)
        for s, st in enumerate(inst.stations):
            for j in rng.sample(range(inst.n), inst.n):  # rows fill in any order
                want, got, den = squared_distance_poly(st, inst.objects[j]), rows[s][j], rows[s].den
                assert all(type(x) is int for x in (got.a, got.b, got.c)), (s, j)
                assert (Fraction(got.a, den), Fraction(got.b, den), Fraction(got.c, den)) == \
                    (want.a, want.b, want.c), (s, j)
                assert repr(floats[s][j]) == repr((float(want.a), float(want.b), float(want.c)))
    assert base.lift is None
    assert type(kinetic.distance_rows(base)[0]) is kinetic.DistanceRow


def test_lowest_terms_roots_take_the_forms_of_the_fraction_roots():
    """An int polynomial over den, divided by gcd(a, b, c, den) by
    `_lowest_terms`, has the roots that its Fractions a/den, b/den, c/den
    give, each in the same `QuadraticNumber` form (p, q, r, d), so that
    event times and timeline digests stay as they were.  Random
    polynomials with shared factors over den in {1, 2**k, 9, 3 * 2**k},
    and linear, double-root, negative-leading, constant and zero ones."""
    rng = Random(28)
    cases = []
    for _ in range(300):
        den = rng.choice([1, 2 ** rng.randrange(1, 60), 9, 3 * 2 ** rng.randrange(1, 60)])
        f = rng.choice([1, 2, 3, 6, 9, 2 ** 30, 3 * 2 ** 20, den])
        a, b, c = (f * rng.randint(-10 ** 6, 10 ** 6) for _ in range(3))
        k, x = f * rng.randint(1, 10 ** 4), rng.randint(-50, 50)  # k (t - x)**2
        cases += [((a, b, c), den), ((-abs(a) or -f, b, c), den), ((0, b, c), den),
                  ((k, -2 * k * x, k * x * x), den), ((-k, 2 * k * x, -k * x * x), den)]
    cases += [((0, 0, 0), 9), ((0, 0, 12), 9), ((0, 0, 0), 1), ((0, 6, 0), 2 ** 40)]
    lo, hi = Fraction(-10 ** 9), Fraction(10 ** 9)
    irrational = 0
    for (a, b, c), den in cases:
        got = kinetic._lowest_terms(QuadraticPoly(a, b, c), den)
        assert all(type(x) is int for x in (got.a, got.b, got.c))
        want = QuadraticPoly(Fraction(a, den), Fraction(b, den), Fraction(c, den))
        roots = quadratic_roots(got, lo, hi)
        assert repr(roots) == repr(quadratic_roots(want, lo, hi)), ((a, b, c), den)
        irrational += sum(r.q != 0 for r in roots)
    assert irrational > 300
    p = QuadraticPoly(4, 6, 8)
    assert kinetic._lowest_terms(p, 1) is p


def test_dedup_step_at_kept_support_ties_matches_exact_arithmetic():
    """Objects on a small integer grid come in mirror pairs whose distances
    to a station are equal polynomials, and support changes tie members
    by construction; the dedup step must break those ties as in exact
    arithmetic.  Float and exact timelines of both directions agree segment
    by segment."""
    rng = Random(100)

    def point():
        return Point2(float(rng.randint(0, 4)), float(rng.randint(0, 4)))

    stations = tuple(point() for _ in range(6))
    inst = MovingInstance(stations, tuple(Trajectory(point(), point()) for _ in range(40)))
    exact = inst.as_exact()
    for anchor, direction, stop in ((0, "forward", 1), (1, "backward", 0)):
        assignment = nn_heuristic(inst, float(anchor)).assignment
        assert nn_heuristic(exact, Fraction(anchor)).assignment == assignment
        segs = extend(assignment, float(anchor), direction, float(stop), ALL_FLAGS, inst)
        want = extend(assignment, Fraction(anchor), direction, Fraction(stop), ALL_FLAGS, exact)
        assert len(want) > 30
        assert_timelines_agree(segs, want, direction)
