"""The float filters of exact mode.  `geometry.value_bound` and the kinetic
engine's use of it: the bound holds, and with the filter turned off (an
infinite bound) every exact timeline is the same, while the filter removes
most exact evaluations.  `geometry.root_bounds` likewise: every enclosure
holds its root, the filtered roots are the unfiltered ones, the crossing
search `earliest_crossing` never hides a crossing, and with the filter off
every exact solve is the same.  On integer-grid instances the engine's
searches and the lazy candidate values match all-exact references.  And
the other filters in front of exact
decisions: `QuadraticNumber.compare` on the doubles and enclosures that
its operands hold, the integer evaluation of a polynomial at an algebraic
time, and `argmax_timeline` on exact timelines, each against the exact
computation alone."""

import math
import operator
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdcover.geometry as geometry
import kdcover.kinetic as kinetic
from kdcover.envelope import SolutionTimeline, TimelineSegment, argmax_timeline
from kdcover.exactarith import QuadraticNumber, enclosed, poly_parts
from kdcover.geometry import (MovingInstance, Point2, QuadraticPoly, Trajectory, compare_event_times,
                              earliest_crossing, lowest_terms, quadratic_roots, root_bounds,
                              sign_ahead, squared_distance_poly, value_bound)
from kdcover.instances import GenParams, generate
from kdcover.kinetic import ImprovementFlags, dedup_improve, extend
from kdcover.minmax import SolverConfig, solve_minmax
from kdcover import static_cover
from kdcover.static_cover import Candidates, nn_heuristic

ALL_FLAGS = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)
CLASSES = ("random", "same_slope", "same_start", "same_end")


def no_filter(coefs, t):
    """`value_bound` with an infinite bound: every filter decides nothing."""
    return 0.0, math.inf


def exact_value(p: QuadraticPoly, t):
    return (p.a * t + p.b) * t + p.c


def assert_bounded(p: QuadraticPoly, t):
    """value_bound's interval holds p(t), with v - e and v + e computed
    exactly and in float."""
    v, e = value_bound((float(p.a), float(p.b), float(p.c)), float(t))
    assert math.isfinite(e)
    exact = exact_value(p, t)
    lo, hi = Fraction(v) - Fraction(e), Fraction(v) + Fraction(e)
    assert lo <= exact <= hi
    assert v - e <= exact <= v + e


def scaled(x: Fraction, k: int) -> Fraction:
    return x * Fraction(2) ** k


fractions = st.fractions(min_value=-10, max_value=10, max_denominator=10 ** 9)
scales = st.integers(min_value=-60, max_value=60)


@st.composite
def exact_polys(draw):
    return QuadraticPoly(*(scaled(draw(fractions), draw(scales)) for _ in range(3)))


@st.composite
def exact_times(draw):
    """A Fraction, or a root of a random exact polynomial (a QuadraticNumber)."""
    if draw(st.booleans()):
        return scaled(draw(fractions), draw(st.integers(min_value=-30, max_value=4)))
    p = draw(exact_polys())
    roots = quadratic_roots(p.a, p.b, p.c, -1e6, 1e6)
    return roots[draw(st.integers(0, len(roots) - 1))] if roots else draw(fractions)


@settings(max_examples=200, deadline=None)
@given(exact_polys(), exact_times())
def test_value_bound_holds_at_exact_times(p, t):
    assert_bounded(p, t)


@settings(max_examples=150, deadline=None)
@given(exact_polys(), exact_times())
def test_value_bound_holds_where_the_value_cancels(p, t):
    """The constant term set so that p(t) is 0 at a Fraction t, and p at
    its own roots: the Horner terms cancel completely."""
    if isinstance(t, Fraction):
        p = QuadraticPoly(p.a, p.b, -(p.a * t + p.b) * t)
        assert exact_value(p, t) == 0
        assert_bounded(p, t)
    for root in quadratic_roots(p.a, p.b, p.c, -1e6, 1e6):
        assert exact_value(p, root) == 0
        assert_bounded(p, root)


def test_value_bound_holds_on_equal_squared_distances():
    """Objects sharing a start (or end) point are equidistant from every
    station at t = 0 (or 1), and pairs of them cross elsewhere: their
    squared distances and differences at those times, and at the roots of
    the differences, where the distances are equal exactly."""
    checked = 0
    for klass in ("same_start", "same_end"):
        for seed in range(3):
            inst = generate(GenParams(n=8, m=3, seed=seed, instance_class=klass))
            rows = kinetic.distance_rows(inst, exact=True)
            for row in rows:
                for i in range(inst.n):
                    for j in range(i + 1, inst.n):
                        diff = row[i] - row[j]
                        roots = quadratic_roots(diff.a, diff.b, diff.c, 0, 1)
                        times = [Fraction(0), Fraction(1), *roots]
                        for t in times:
                            for p in (row[i], row[j], diff):
                                assert_bounded(p, t)
                                checked += 1
    assert checked > 1000


def test_value_bound_gives_an_infinite_bound_beyond_the_float_range():
    assert value_bound((math.inf, 0.0, 0.0), 0.5) == (0.0, math.inf)
    assert value_bound((1.0, 0.0, 0.0), math.nan) == (0.0, math.inf)
    assert value_bound((1e300, 1e300, 1e300), 1e10) == (0.0, math.inf)
    assert kinetic._double(10 ** 400) == math.inf


def test_value_bound_holds_below_the_float_range():
    """Coefficients and times whose products underflow to subnormals."""
    for a, b, c, t in ((Fraction(1, 2 ** 1070), Fraction(3, 2 ** 1060), Fraction(-1, 2 ** 1074),
                        Fraction(1, 3)),
                       (Fraction(7), Fraction(-5, 2 ** 1000), Fraction(1, 2 ** 1050),
                        Fraction(1, 2 ** 40)),
                       (Fraction(1, 2 ** 600), Fraction(1, 2 ** 600), Fraction(0),
                        Fraction(1, 2 ** 500))):
        assert_bounded(QuadraticPoly(a, b, c), t)


def bare_roots(a: int, b: int, c: int) -> tuple:
    """Every real root of a*t**2 + b*t + c (none for the zero polynomial),
    ascending, by the exact formula in `QuadraticNumber`'s normal form and
    with no enclosure."""
    if a == 0:
        return () if b == 0 else (QuadraticNumber(-c, 0, b, 0),)
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    if disc == 0:
        return (QuadraticNumber(-b, 0, 2 * a, 0),)
    roots = tuple(QuadraticNumber(-b, sign, 2 * a, disc) for sign in (-1, 1))
    return roots if a > 0 else roots[::-1]


def reference_crossing(diffs, den, t_from, t_to, direction, best=None):
    """The scan `earliest_crossing` stands for, with no double read: each
    difference in lowest terms, each of its roots in the window in travel
    order, the first one strictly ahead of t_from past which the difference
    is positive (`sign_ahead`), kept only when strictly earlier than the
    best so far."""
    lo, hi = (t_from, t_to) if direction > 0 else (t_to, t_from)
    for coefs in diffs:
        a, b, c = lowest_terms(coefs, den)
        for root in bare_roots(a, b, c)[::direction]:
            if not (lo <= root <= hi) or compare_event_times(root, t_from) * direction <= 0:
                continue
            if best is not None and compare_event_times(best, root) * direction <= 0:
                break
            if sign_ahead(a, b, c, root, direction) > 0:
                best = root
                break
    return best


def int_triple(p: QuadraticPoly) -> tuple:
    """p's coefficients as ints over their least common denominator."""
    den = math.lcm(*(x.denominator for x in (p.a, p.b, p.c)))
    return tuple(int(x * den) for x in (p.a, p.b, p.c)), den


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_polys(), min_size=1, max_size=3), st.lists(st.integers(1, 12), min_size=3,
       max_size=3), exact_times(), exact_times(), st.sampled_from((1, -1)), st.integers(0, 3))
def test_crossing_screen_never_hides_a_crossing(polys, factors, t1, t2, direction, pick):
    """`earliest_crossing` against `reference_crossing`, by repr: each
    polynomial also comes as a multiple of itself, so that equal roots come
    in several forms and with doubles from other integers; the window's
    start is moved onto a root now and then, and `best` is one of the
    roots, or none."""
    den = int_triple(polys[0])[1]
    diffs = []
    for p, k in zip(polys, factors):
        a, b, c = int_triple(p)[0]
        diffs += [(k * a, k * b, k * c), (a, b, c)]
    every = [r for d in diffs for r in bare_roots(*d)]
    lo, hi = sorted((t1, t2))
    if every and pick:
        lo = min(every[pick % len(every)], hi)
    t_from, t_to = (lo, hi) if direction > 0 else (hi, lo)
    for best in (None, every[pick % len(every)] if every else None):
        got = earliest_crossing(diffs, den, t_from, t_to, direction, best)
        assert repr(got) == repr(reference_crossing(diffs, den, t_from, t_to, direction, best))


def test_crossing_screen_examples():
    F = Fraction
    # -4t**2 + 4t - 1/2: negative at both ends, positive between its roots
    # (1 -+ 1/sqrt(2))/2, so it crosses upward at the first going forward
    # and at the second going backward
    hump = ((-8, 8, -1), 2)
    low, high = bare_roots(-8, 8, -1)
    assert repr(earliest_crossing([hump[0]], hump[1], 0, 1, 1)) == repr(low)
    assert repr(earliest_crossing([hump[0]], hump[1], 1, 0, -1)) == repr(high)
    assert earliest_crossing([hump[0]], hump[1], 0, F(1, 10), 1) is None
    assert earliest_crossing([hump[0]], hump[1], F(9, 10), 1, 1) is None
    # just below zero at its vertex; touching it from below (a double root
    # where the polynomial stays negative); touching from above
    assert earliest_crossing([(-4 * 10 ** 12, 4 * 10 ** 12, -10 ** 12 - 1)], 10 ** 12, 0, 1, 1) \
        is None
    assert earliest_crossing([(-4, 4, -1)], 1, 0, 1, 1) is None
    assert earliest_crossing([(4, -4, 1)], 1, 0, 1, 1) == F(1, 2)
    # t**2 - 1 reaches zero at 1, the window's end going forward and its
    # start going backward, which is not strictly ahead
    assert earliest_crossing([(1, 0, -1)], 1, 0, 1, 1) == 1
    assert earliest_crossing([(1, 0, -1)], 1, 1, 0, -1) is None
    # lines count in the direction they rise
    assert earliest_crossing([(0, 2, -1)], 1, 0, 1, 1) == F(1, 2)
    assert earliest_crossing([(0, 2, -1)], 1, 1, 0, -1) is None
    assert earliest_crossing([(0, -2, 1)], 1, 1, 0, -1) == F(1, 2)
    assert earliest_crossing([(0, 0, 1), (0, 0, 0)], 1, 0, 1, 1) is None
    # a leading term below the float range: only the exact roots decide
    assert earliest_crossing([(1, 0, -(2 ** 1100))], 2 ** 1100, 0, 1, 1) is None
    assert earliest_crossing([(2 ** 1100, 0, -1)], 2 ** 1100, 0, 1, 1) == F(1, 2 ** 550)
    # one root, (5 + sqrt(5))/10, in two forms, p and 3p over den 1: the
    # first difference gives the form, and an equal `best` is kept
    first, second = (5, -5, 1), (15, -15, 3)
    for diffs in ([first, second], [second, first]):
        got = earliest_crossing(diffs, 1, 0, 1, 1)
        assert repr(got) == repr(bare_roots(*diffs[0])[1]) == repr(
            reference_crossing(diffs, 1, 0, 1, 1))
        assert earliest_crossing(diffs, 1, 0, 1, 1, got) is got
    assert repr(earliest_crossing([first, second], 1, 0, 1, 1)) != repr(
        earliest_crossing([second, first], 1, 0, 1, 1))


# -- root enclosures ---------------------------------------------------------


def no_root_filter(A, B, C, disc):
    """`root_bounds` with infinite enclosures: the root filter decides
    nothing and every root is tested exactly."""
    return -math.inf, math.inf, -math.inf, math.inf


def unfiltered_roots(p, lo, hi):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "root_bounds", no_root_filter)
        return quadratic_roots(p.a, p.b, p.c, lo, hi)


def assert_roots_filtered_alike(p, lo, hi) -> tuple:
    """The filtered roots are the unfiltered ones, by repr and by exact
    equality, and each enclosure holds its root, by an exact compare on an
    enclosure-free copy."""
    roots = quadratic_roots(p.a, p.b, p.c, lo, hi)
    plain = unfiltered_roots(p, lo, hi)
    assert repr(roots) == repr(plain)
    assert len(roots) == len(plain) and all(x == y for x, y in zip(roots, plain))
    for root in roots:
        bare = uncached(root)
        assert (bare.lo, bare.hi) == (-math.inf, math.inf)
        assert bare.compare(root.lo) >= 0 and bare.compare(root.hi) <= 0, root
    return roots


BIG = Fraction(2) ** 200


@settings(max_examples=300, deadline=None)
@given(exact_polys(), exact_times(), exact_times(), st.integers(0, 3), st.booleans())
def test_root_enclosures_hold_and_change_no_root(p, t1, t2, k, upper):
    """Every root in a window wide enough to hold them all, and windows
    whose ends are Fractions or QuadraticNumbers, with one end moved onto
    the k-th root when there is one, in the form the same root takes as a
    root of 4p (other fields, an overlapping enclosure)."""
    every = assert_roots_filtered_alike(p, -BIG, BIG)
    lo, hi = (t1, t2) if t1 <= t2 else (t2, t1)
    if k < len(every):
        root = quadratic_roots(4 * p.a, 4 * p.b, 4 * p.c, -BIG, BIG)[k]
        assert root == every[k]
        lo, hi = (min(lo, root), root) if upper else (root, max(hi, root))
    assert_roots_filtered_alike(p, lo, hi)


def test_root_enclosure_examples():
    F = Fraction
    sqrt2 = QuadraticNumber(0, 1, 1, 2)
    # coefficients past the float range: no enclosure, every root tested exactly
    huge = QuadraticPoly(F(10 ** 400), F(-3 * 10 ** 400), F(2 * 10 ** 400))
    assert root_bounds(10 ** 400, -3 * 10 ** 400, 2 * 10 ** 400, 10 ** 800) == \
        no_root_filter(0, 0, 0, 0)
    assert assert_roots_filtered_alike(huge, 0, 3) == (1, 2)
    # a discriminant past the float range, with coefficients inside it
    wide = QuadraticPoly(1, 10 ** 200, -1)
    assert root_bounds(1, 10 ** 200, -1, 10 ** 400 + 4) == no_root_filter(0, 0, 0, 0)
    assert len(assert_roots_filtered_alike(wide, -10 ** 201, 1)) == 2
    # a perfect-square discriminant: rational roots 1/3 and 1/2, at the
    # window's ends, at one end, and just outside it
    square = QuadraticPoly(F(6), F(-5), F(1))
    assert assert_roots_filtered_alike(square, F(1, 3), F(1, 2)) == (F(1, 3), F(1, 2))
    assert assert_roots_filtered_alike(square, F(1, 3), F(2, 5)) == (F(1, 3),)
    assert assert_roots_filtered_alike(square, F(2, 5), F(1, 2)) == (F(1, 2),)
    assert assert_roots_filtered_alike(square, F(1, 3) + F(1, 2 ** 80), F(1, 2) - F(1, 2 ** 80)) \
        == ()
    # A < 0: the roots -sqrt(2) < sqrt(2) come ascending, and a window end
    # at sqrt(2) in another form (sqrt(8)/2) holds it
    down = QuadraticPoly(F(-1), F(0), F(2))
    assert assert_roots_filtered_alike(down, -2, 2) == (-sqrt2, sqrt2)
    assert assert_roots_filtered_alike(down, 0, QuadraticNumber(0, 1, 2, 8)) == (sqrt2,)
    assert assert_roots_filtered_alike(down, QuadraticNumber(0, 1, 2, 8), 2) == (sqrt2,)
    # coefficients near 2**-1000: roots near 2**-500, and a root below the
    # normal range, -1/(3 * 2**1021)
    tiny = F(1, 2 ** 1000)
    assert len(assert_roots_filtered_alike(QuadraticPoly(F(1), tiny, -tiny), -1, 1)) == 2
    assert assert_roots_filtered_alike(QuadraticPoly(F(1), F(0), -tiny), -1, 1) == (
        -F(1, 2 ** 500), F(1, 2 ** 500))
    sub = QuadraticPoly(F(3), F(1, 2 ** 1021), F(0))
    low, zero = assert_roots_filtered_alike(sub, -1, 1)
    assert low == -F(1, 3 * 2 ** 1021) and zero == 0
    assert 0 < -low.lo < math.inf and low.lo <= float(low) <= low.hi < 0
    assert assert_roots_filtered_alike(sub, low, low) == (low,)
    assert assert_roots_filtered_alike(sub, -1, F(-1, 2 ** 1100)) == (low,)


def test_enclosure_ends_that_touch_decide_exactly(monkeypatch):
    """An enclosure end equal to the other side's double decides nothing:
    the roots -1/2 and 1/2 of 4t**2 - 1, given the valid enclosures
    [prev(-0.5), -0.5] and [0.5, next(0.5)], against window ends that round
    to -0.5 or 0.5 from either side; and compare on touching enclosures."""
    F = Fraction
    down, up = math.nextafter(-0.5, -1), math.nextafter(0.5, 1)
    monkeypatch.setattr(geometry, "root_bounds", lambda A, B, C, disc: (down, -0.5, 0.5, up))
    poly, off = QuadraticPoly(4, 0, -1), F(1, 2 ** 80)
    assert quadratic_roots(poly.a, poly.b, poly.c, F(-1, 2), F(1, 2)) == (F(-1, 2), F(1, 2))
    assert quadratic_roots(poly.a, poly.b, poly.c, F(1, 2) + off, 1) == ()
    assert quadratic_roots(poly.a, poly.b, poly.c, F(-1, 2) + off, F(1, 2) - off) == ()
    assert quadratic_roots(poly.a, poly.b, poly.c, -1, F(-1, 2) - off) == ()
    assert quadratic_roots(poly.a, poly.b, poly.c, F(1, 2) - off, F(1, 2) + off) == (F(1, 2),)
    # 1 - 2**-80 against a Fraction below it that rounds to its enclosure's
    # top, and 1 with enclosures that touch at 1.0
    below_one = enclosed(2 ** 80 - 1, 0, 2 ** 80, 0, math.nextafter(1.0, 0), 1.0)
    assert below_one.compare(1 - F(1, 2 ** 70)) == 1
    assert below_one.compare(1 - F(1, 2 ** 90)) == -1
    one_below = enclosed(1, 0, 1, 0, math.nextafter(1.0, 0), 1.0)
    one_above = enclosed(1, 0, 1, 0, 1.0, math.nextafter(1.0, 2))
    assert one_below.compare(one_above) == one_above.compare(one_below) == 0
    assert one_below.compare(1.0) == one_above.compare(F(1)) == 0


def desk_instances():
    """`exact_arith`'s eight instances: n=40, m=6, every class, seeds 0-1."""
    return [generate(GenParams(n=40, m=6, seed=seed, instance_class=klass))
            for klass in CLASSES for seed in range(2)]


def test_root_filter_switch_changes_no_exact_solve(monkeypatch):
    """With the root filter off (infinite enclosures) the eight desk
    instances give the same upper, lower and segments, by repr, while the
    filter saves at least a quarter of the `QuadraticNumber.compare` calls."""
    compare = QuadraticNumber.compare
    runs = {}
    for filtered in (True, False):
        calls = [0]

        def counted(self, other):
            calls[0] += 1
            return compare(self, other)

        with monkeypatch.context() as mp:
            mp.setattr(QuadraticNumber, "compare", counted)
            if not filtered:
                mp.setattr(geometry, "root_bounds", no_root_filter)
            runs[filtered] = [solve_repr(inst, ALL_FLAGS) for inst in desk_instances()], calls[0]
    assert runs[True][0] == runs[False][0]
    assert 4 * runs[True][1] <= 3 * runs[False][1], (runs[True][1], runs[False][1])


@st.composite
def grid_cases(draw):
    """An instance on the integer grid 0..4 with n <= 6 objects and m <= 3
    stations, whose objects start and end at one or two shared points half
    the time, so that members tie, touch and cross at equal times; an
    assignment; and an anchor: k/4, or a root of a difference of two of
    its distance polynomials in (0, 1), often irrational."""
    coord = st.integers(0, 4)
    point = st.builds(Point2, coord, coord)
    hubs = draw(st.lists(point, min_size=1, max_size=2))
    end = st.one_of(st.sampled_from(hubs), point)
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    inst = MovingInstance(tuple(draw(point) for _ in range(m)),
                          tuple(Trajectory(draw(end), draw(end)) for _ in range(n)))
    assignment = tuple(draw(st.integers(0, m - 1)) for _ in range(n))
    anchors = [Fraction(draw(st.integers(0, 4)), 4)]
    rows = kinetic.distance_rows(inst, exact=True)
    for s, i, j in ((s, i, j) for s in range(m) for i in range(n) for j in range(i)):
        diff = rows[s][i] - rows[s][j]
        anchors += [t for t in quadratic_roots(diff.a, diff.b, diff.c, 0, 1) if 0 < t < 1]
    return inst, assignment, anchors[draw(st.integers(0, len(anchors) - 1))]


def checked_scans(mp, seen):
    """Wrap the engine's two crossing searches so that each call is checked,
    by repr, against `reference_crossing` on the differences that the
    engine's state gives: every other member against the support, and the
    handover's cost before minus after."""
    support_change_after = kinetic._Extender.support_change_after
    handover_after = kinetic._Extender.handover_after

    def support_change(self, station, cursor, objs=None, best=None):
        got = support_change_after(self, station, cursor, objs, best)
        sup, row = self.supports[station], self.polys[station]
        want = None
        if sup is not None and len(self.members[station]) >= 2:
            diffs = [(d.a, d.b, d.c) for d in (row[o] - row[sup] for o in
                     (self.members[station] if objs is None else objs) if o != sup)]
            want = reference_crossing(diffs, row.den, cursor, self.t_stop, self.direction, best)
        assert repr(got) == repr(want), (station, cursor)
        seen.append(cursor)
        return got

    def handover(self, s1, s2, inputs, cursor):
        got = handover_after(self, s1, s2, inputs, cursor)
        b, a, c = inputs
        row1, row2 = self.polys[s1], self.polys[s2]
        before = row1[b] + (row2[c] if c is not None else QuadraticPoly(0, 0, 0))
        after = (row1[a] if a is not None else QuadraticPoly(0, 0, 0)) + row2[b]
        d = before - after
        want = reference_crossing([(d.a, d.b, d.c)], row1.den, cursor, self.t_stop,
                                  self.direction)
        assert repr(got) == repr(want), (s1, s2, inputs, cursor)
        seen.append(cursor)
        return got

    mp.setattr(kinetic._Extender, "support_change_after", support_change)
    mp.setattr(kinetic._Extender, "handover_after", handover)


def assert_lazy_values_are_the_eager_ones(inst, t):
    """Each level value, reach and double of `Candidates` at t against the
    exact squared distance p(t) of the level's outermost object, computed in
    Fraction or `QuadraticNumber` arithmetic: values and reaches by repr,
    read in reverse order, and doubles bit for bit."""
    lv = Candidates(inst, t)
    for s, st_ in enumerate(inst.stations):
        eager = [squared_distance_poly(st_, o)(t) for o in inst.objects]
        outer = [lv.orders[s][e] for e in lv.last[s]]
        assert [repr(x) for x in lv.fvalues[s]] == [repr(float(eager[j])) for j in outer]
        assert [repr(x) for x in lv.fcolumns[s]] == [repr(float(x)) for x in eager]
        for k in reversed(range(len(outer))):
            assert repr(lv.values[s][k]) == repr(eager[outer[k]])
        assert len(lv.values[s]) == len(outer)
        assert repr(list(lv.values[s])) == repr([eager[j] for j in outer])
        for j in reversed(range(inst.n)):
            assert repr(lv.reach[s][j]) == repr(eager[outer[lv.rank[s][j]]])
            assert lv.reach[s][j] == eager[j]
    return lv


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_grid_crossings_and_candidate_values_match_the_exact_references(case):
    """On integer-grid instances with shared start and end points, every
    support-change and handover search of a forward and a backward sweep
    (all flags) from the anchor gives the all-exact scan's time, and
    `Candidates` at the anchor and at the sweeps' event times builds the
    values that eager exact arithmetic gives, also when every `_ceil_key`
    collides, so that the exact numbers themselves are the keys."""
    inst, assignment, anchor = case
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        checked_scans(mp, seen)
        forward = extend(assignment, anchor, "forward", Fraction(1), ALL_FLAGS, inst)
        backward = extend(assignment, anchor, "backward", Fraction(0), ALL_FLAGS, inst)
    times = {repr(t): t for t in [anchor] + [seg.t_end for seg in forward + backward]}
    # the searches themselves over every pair at each station, each
    # difference also as 3 and 7 times itself: equal roots in other forms,
    # from the event times on
    rows = kinetic.distance_rows(inst, exact=True)
    for t in times.values():
        for row in rows:
            diffs = []
            for i in range(inst.n):
                for j in range(i):
                    d = row[i] - row[j]
                    diffs += [(k * d.a, k * d.b, k * d.c) for k in (1, 3, 7)]
            for direction, stop in ((1, 1), (-1, 0)):
                got = earliest_crossing(diffs, row.den, t, stop, direction)
                want = reference_crossing(diffs, row.den, t, stop, direction)
                assert repr(got) == repr(want), (t, direction)
    for t in list(times.values())[:4]:
        lv = assert_lazy_values_are_the_eager_ones(inst, t)
        if isinstance(t, QuadraticNumber) and not t.is_rational:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(static_cover, "_ceil_key", lambda p, q, d: 0)
                collided = assert_lazy_values_are_the_eager_ones(inst, t)
            assert (collided.orders, collided.last, collided.rank) == (lv.orders, lv.last, lv.rank)


def solve_repr(inst, flags):
    """Every segment and both bounds of an exact-arithmetic solve, by repr
    (QuadraticNumber times by their fields)."""
    res = solve_minmax(inst, SolverConfig(flags=flags, exact_arithmetic=True))
    return repr(([(seg.t_start, seg.t_end, seg.assignment, seg.supports, seg.poly)
                  for seg in res.timeline.segments], res.upper, res.lower))


def test_filtered_solves_match_the_unfiltered_ones(monkeypatch):
    for n, m in ((12, 3), (40, 6), (80, 8)):
        for klass in CLASSES:
            inst = generate(GenParams(n=n, m=m, seed=0, instance_class=klass))
            for flags in (ImprovementFlags(), ALL_FLAGS):
                filtered = solve_repr(inst, flags)
                with monkeypatch.context() as mp:
                    mp.setattr(kinetic, "value_bound", no_filter)
                    assert solve_repr(inst, flags) == filtered, (n, klass, flags)


def test_filtered_dedup_matches_the_unfiltered_one_at_quadratic_times(monkeypatch):
    """dedup_improve at event times, QuadraticNumber roots of differences of
    random distance pairs (irrational ones on the random class), from
    nearest-neighbor and random assignments."""
    checked = irrational = 0
    for n, m, seed in ((40, 6, 0), (30, 4, 2)):
        for klass in CLASSES:
            inst = generate(GenParams(n=n, m=m, seed=seed, instance_class=klass))
            rows = kinetic.distance_rows(inst, exact=True)
            rng = Random(seed)
            times = []
            for _ in range(200):
                s, i, j = rng.randrange(m), rng.randrange(n), rng.randrange(n)
                diff = rows[s][i] - rows[s][j]
                times += [t for t in quadratic_roots(diff.a, diff.b, diff.c, 0, 1) if 0 < t < 1]
                if len(times) >= 4:
                    break
            for t in times:
                irrational += not t.is_rational
                for assignment in (nn_heuristic(inst, t).assignment,
                                   tuple(rng.randrange(m) for _ in range(n))):
                    filtered = dedup_improve(assignment, t, inst)
                    with monkeypatch.context() as mp:
                        mp.setattr(kinetic, "value_bound", no_filter)
                        assert dedup_improve(assignment, t, inst) == filtered
                    checked += 1
    assert checked >= 48 and irrational >= 4


def exact_evaluations(monkeypatch, run, filtered: bool) -> int:
    """The number of exact squared distances that the scans compute in
    run()."""
    count = [0]
    values = kinetic._values

    def counted(row, objs, t):
        count[0] += len(objs)
        return values(row, objs, t)

    with monkeypatch.context() as mp:
        mp.setattr(kinetic, "_values", counted)
        if not filtered:
            mp.setattr(kinetic, "value_bound", no_filter)
        run()
    return count[0]


def test_filter_falls_back_on_ties_and_skips_most_exact_values(monkeypatch):
    # Every distance ties at a shared start or end point, where the exact
    # values decide: extension away from it, with every flag.
    for klass, anchor, direction, stop in (("same_start", 0, "forward", 1),
                                           ("same_end", 1, "backward", 0)):
        inst = generate(GenParams(n=20, m=4, seed=0, instance_class=klass))
        assignment = nn_heuristic(inst, anchor).assignment

        def run():
            extend(assignment, Fraction(anchor), direction, Fraction(stop), ALL_FLAGS, inst)

        assert exact_evaluations(monkeypatch, run, True) >= inst.n, klass
    for seed in range(2):
        inst = generate(GenParams(n=40, m=6, seed=seed))

        def run():
            solve_minmax(inst, SolverConfig(flags=ALL_FLAGS, exact_arithmetic=True))

        filtered = exact_evaluations(monkeypatch, run, True)
        unfiltered = exact_evaluations(monkeypatch, run, False)
        assert 3 * filtered <= unfiltered, (seed, filtered, unfiltered)


# -- QuadraticNumber.compare: the doubles first ------------------------------

OPERATORS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def uncached(x):
    """x with no double held (a float is returned as it is)."""
    return QuadraticNumber(x.p, x.q, x.r, x.d) if isinstance(x, QuadraticNumber) else x


def cached(x):
    x = uncached(x)
    if isinstance(x, QuadraticNumber):
        float(x)
    return x


def enclosing(x):
    """x with an enclosure, the two neighbours of its double, and no double
    held (a float is returned as it is)."""
    if not isinstance(x, QuadraticNumber):
        return x
    f = float(uncached(x))
    return enclosed(x.p, x.q, x.r, x.d, math.nextafter(f, -math.inf), math.nextafter(f, math.inf))


def random_number(rng) -> QuadraticNumber:
    """(p + q*sqrt(d))/r over a few radicands, rational one time in five."""
    q = 0 if rng.random() < 0.2 else rng.randint(-10 ** 6, 10 ** 6)
    return QuadraticNumber(rng.randint(-10 ** 7, 10 ** 7), q, rng.randint(1, 10 ** 5),
                           rng.choice((2, 3, 8, 12)))


def comparison_pairs():
    """Random pairs, pairs whose doubles are equal while their values
    differ (a number and the same number plus 2**-k, k = 60..90), equal
    pairs in two forms, and numbers against floats: random ones, their own
    double and its two neighbours, zero and the infinities."""
    rng = Random(30)
    tiny = QuadraticNumber(1, 0, 1, 0), QuadraticNumber(2 ** 60 + 1, 0, 2 ** 60, 0)
    pairs = [tiny, tiny[::-1], (QuadraticNumber(0, 1, 1, 8), QuadraticNumber(0, 2, 1, 2))]
    for _ in range(300):
        x, y = random_number(rng), random_number(rng)
        near = x + Fraction(rng.choice((-1, 1)), 2 ** rng.randint(60, 90))
        pairs += [(x, y), (x, near), (near, x), (x, uncached(x)), (x, -x)]
        fx = float(uncached(x))
        pairs += [(x, f) for f in (fx, math.nextafter(fx, math.inf),
                                   math.nextafter(fx, -math.inf), rng.uniform(-200, 200),
                                   0.0, math.inf, -math.inf)]
    return pairs


def exact_order(x, y) -> int:
    """The sign computation's order, with no double held; an infinity by
    its sign."""
    if isinstance(y, float) and math.isinf(y):
        return -1 if y > 0 else 1
    return uncached(x).compare(uncached(y))


def test_compare_on_held_doubles_matches_the_exact_order():
    """With a double held or an enclosure on neither side, one or both,
    compare and every operator give what the sign computation alone gives."""
    same_double = 0
    forms = (uncached, cached, enclosing)
    for x, y in comparison_pairs():
        exact = exact_order(x, y)
        if isinstance(y, QuadraticNumber):
            same_double += float(uncached(x)) == float(uncached(y)) and exact != 0
        for a, b in ((fx(x), fy(y)) for fx in forms for fy in forms):
            assert a.compare(b) == exact, (x, y)
            assert [op(a, b) for op in OPERATORS] == [op(exact, 0) for op in OPERATORS], (x, y)
    assert same_double >= 100


@pytest.mark.parametrize("held", (False, True))
def test_comparisons_with_infinities_and_nan_follow_fraction(held):
    """+-inf order beyond every number and NaN is unordered, as for a
    Fraction, whether or not the number holds its double."""
    for x in (QuadraticNumber(1, 1, 2, 2), QuadraticNumber(-3, 0, 1, 0),
              QuadraticNumber(0, 0, 1, 0)):
        x = cached(x) if held else uncached(x)
        proxy = Fraction(x.p, x.r)  # any finite Fraction orders the same against these
        for f in (math.inf, -math.inf, math.nan):
            for op in OPERATORS:
                assert op(x, f) == op(proxy, f), (x, f, op)
                assert op(f, x) == op(f, proxy), (f, x, op)
        assert (x.compare(math.inf), x.compare(-math.inf)) == (-1, 1)
        with pytest.raises(ValueError):
            x.compare(math.nan)


# -- polynomials at algebraic times in one integer step ----------------------


def test_fused_value_and_sign_at_algebraic_times_table():
    """`poly_parts` over r**2 and `sign_ahead`'s integer step against
    `QuadraticPoly.__call__` and `derivative_at` in QuadraticNumber
    arithmetic: on roots of the polynomial (value 0, the slope decides), a
    tangency (the curvature decides), the zero polynomial, and with int and
    Fraction coefficients."""
    F = Fraction
    sqrt2 = QuadraticNumber(0, 1, 1, 2)
    golden = QuadraticNumber(3, -1, 7, 5)  # (3 - sqrt(5))/7, a root of 49t**2 - 42t + 4
    # (label, (a, b, c), t, sign forward, sign backward)
    table = [
        ("crossing at sqrt(2)", (1, 0, -2), sqrt2, 1, -1),
        ("falling through sqrt(2)", (-1, 0, 2), sqrt2, -1, 1),
        ("crossing at -sqrt(2)", (1, 0, -2), -sqrt2, -1, 1),
        ("value decides", (1, 0, -1), sqrt2, 1, 1),
        ("negative value decides", (-3, 1, -1), golden, -1, -1),
        ("root of an irrational pair", (49, -42, 4), golden, -1, 1),
        ("tangency at 1/3 from above", (9, -6, 1), QuadraticNumber(1, 0, 3, 0), 1, 1),
        ("tangency at 1/3 from below", (-9, 6, -1), QuadraticNumber(1, 0, 3, 0), -1, -1),
        ("linear", (0, 3, -1), QuadraticNumber(1, 0, 3, 0), 1, -1),
        ("constant", (0, 0, 5), golden, 1, 1),
        ("zero", (0, 0, 0), sqrt2, 0, 0),
    ]
    for label, (a, b, c), t, forward, backward in table:
        poly = QuadraticPoly(a, b, c)
        value, slope = poly(t), poly.derivative_at(t)
        assert repr(QuadraticNumber(*poly_parts(a, b, c, t), t.r ** 2, t.d)) == repr(value), label
        for direction, expected in ((1, forward), (-1, backward)):
            reference = (value > 0) - (value < 0) or (
                (slope > 0) - (slope < 0)) * direction or (a > 0) - (a < 0)
            assert reference == expected, label
            for p in (poly, QuadraticPoly(F(a, 6), F(b, 6), F(c, 6))):
                assert sign_ahead(p.a, p.b, p.c, t, direction) == expected, (label, p)


# -- argmax_timeline on exact timelines --------------------------------------


def reference_argmax(timeline, excluded=()):
    """Every endpoint evaluated exactly, in order, the first largest kept."""
    best_t = best_v = None
    for seg in timeline.segments:
        for t in (seg.t_start, seg.t_end):
            if any(compare_event_times(t, ex) == 0 for ex in excluded):
                continue
            v = seg.poly(t)
            if best_v is None or v > best_v:
                best_t, best_v = t, v
    return best_t, best_v


def exact_timeline(times, polys):
    return SolutionTimeline(tuple(TimelineSegment(t0, t1, (k,), (None,), p) for k, (t0, t1, p)
                                  in enumerate(zip(times, times[1:], polys))))


def test_argmax_filter_examples():
    half, eps = Fraction(1, 2), Fraction(1, 2 ** 60)
    one = QuadraticPoly(Fraction(0), Fraction(0), Fraction(1))
    above = QuadraticPoly(Fraction(0), Fraction(0), 1 + eps)  # the same double as 1
    assert float(1 + eps) == 1.0
    # two values that round to one double: the exact one decides
    assert argmax_timeline(exact_timeline((0, half, 1), (one, above))) == (half, 1 + eps)
    assert argmax_timeline(exact_timeline((0, half, 1), (above, one))) == (0, 1 + eps)
    # cancelling terms: 1 + 2**-20 at t = 1, read as 1.0 with a wide bound,
    # beats a constant 1 + 2**-30 whose double is its value
    cancel = QuadraticPoly(2 ** 40 + Fraction(1, 2 ** 20), Fraction(-2 ** 40), Fraction(1))
    level = QuadraticPoly(Fraction(0), Fraction(0), 1 + Fraction(1, 2 ** 30))
    assert value_bound((float(cancel.a), float(cancel.b), float(cancel.c)), 1.0)[0] == 1.0
    assert argmax_timeline(exact_timeline((half, 1), (cancel,)), (half,)) == (1, cancel(1))
    assert argmax_timeline(exact_timeline((0, half, 1), (level, cancel))) == (1, cancel(1))
    # an exact tie between t = 0 and t = 1 (and between irrational times):
    # the smaller wins
    bowl = QuadraticPoly(Fraction(20), Fraction(-20), Fraction(5))  # 5 at 0 and 1, 0 at 1/2
    tied = exact_timeline((0, half, 1), (bowl, bowl))
    assert argmax_timeline(tied) == (0, 5)
    assert argmax_timeline(tied, excluded=(Fraction(0),)) == (1, 5)
    assert argmax_timeline(tied, excluded=(0, half, 1)) == (None, None)
    # 8t**2 - 8t + 1 = 0 at two irrational times, where the bowl is 5/2
    lo, hi = quadratic_roots(Fraction(8), Fraction(-8), Fraction(1), 0, 1)
    assert not lo.is_rational and bowl(lo) == bowl(hi) == Fraction(5, 2)
    around = exact_timeline((lo, half, hi), (bowl, bowl))
    assert argmax_timeline(around) == reference_argmax(around)
    assert argmax_timeline(around)[0] is lo
    # coefficients past the float range: an infinite bound, exact values
    huge = QuadraticPoly(Fraction(10 ** 400), Fraction(0), Fraction(1))
    wide = exact_timeline((0, half, 1), (bowl, huge))
    assert argmax_timeline(wide) == (1, 10 ** 400 + 1) == reference_argmax(wide)
    for timeline in (tied, around, wide):
        for excluded in ((), (half,), (lo,), (Fraction(0), Fraction(1))):
            assert repr(argmax_timeline(timeline, excluded)) == repr(
                reference_argmax(timeline, excluded))


def test_argmax_filter_matches_the_reference_scan():
    """Random exact timelines with Fraction and irrational times, objective
    values often within a few units in the last place of one another, and
    random excluded times."""
    rng = Random(7)
    for trial in range(300):
        k = rng.randint(1, 8)
        times = {Fraction(rng.randint(1, 999), 1000) for _ in range(k)}
        if trial % 2:
            times |= {r for r in quadratic_roots(
                Fraction(rng.randint(1, 9)), Fraction(-rng.randint(1, 9)),
                Fraction(rng.randint(0, 2), rng.randint(1, 9)), 0, 1)
                      if 0 < r < 1}
        times = [Fraction(0), *sorted(times), Fraction(1)]
        base = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 3))
        polys = [QuadraticPoly(Fraction(rng.randint(0, 3)), Fraction(rng.randint(-3, 3)),
                               base + Fraction(rng.randint(-2, 2), 2 ** rng.choice((20, 55, 80))))
                 for _ in times[1:]]
        timeline = exact_timeline(times, polys)
        excluded = tuple(rng.sample(times, rng.randint(0, 2)))
        assert repr(argmax_timeline(timeline, excluded)) == repr(
            reference_argmax(timeline, excluded)), trial
