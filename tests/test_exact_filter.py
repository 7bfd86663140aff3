"""The float filter of exact mode (`geometry.value_bound`) and the kinetic
engine's use of it: the bound holds, the root screen never hides a root,
and with the filter turned off (an infinite bound) every exact timeline is
the same, while the filter removes most exact evaluations."""

import math
from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import kdcover.kinetic as kinetic
from kdcover.geometry import QuadraticPoly, quadratic_roots, value_bound
from kdcover.instances import GenParams, generate
from kdcover.kinetic import ImprovementFlags, dedup_improve, extend
from kdcover.minmax import SolverConfig, solve_minmax
from kdcover.static_cover import nn_heuristic

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
    roots = quadratic_roots(draw(exact_polys()), -1e6, 1e6)
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
    for root in quadratic_roots(p, -1e6, 1e6):
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
            inst = generate(GenParams(n=8, m=3, seed=seed, instance_class=klass)).as_exact()
            rows = kinetic.distance_rows(inst)
            for row in rows:
                for i in range(inst.n):
                    for j in range(i + 1, inst.n):
                        diff = row[i] - row[j]
                        times = [Fraction(0), Fraction(1), *quadratic_roots(diff, 0, 1)]
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


@settings(max_examples=200, deadline=None)
@given(exact_polys(), st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6),
       st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6))
def test_root_screen_never_hides_a_root(p, t1, t2):
    """A polynomial certified negative on a window has no root there and is
    negative at its midpoint; one with a root in the window is never
    certified."""
    lo, hi = min(t1, t2), max(t1, t2)
    if kinetic._negative_on(p, float(lo), float(hi)):
        assert quadratic_roots(p, lo, hi) == ()
        assert exact_value(p, (lo + hi) / 2) < 0


def test_root_screen_examples():
    # negative at both ends, positive in the middle: two roots inside
    hump = QuadraticPoly(Fraction(-4), Fraction(4), Fraction(-1, 2))
    assert len(quadratic_roots(hump, 0, 1)) == 2
    assert not kinetic._negative_on(hump, 0.0, 1.0)
    # the same hump with its vertex outside the window: negative throughout
    assert kinetic._negative_on(hump, 0.0, 0.1)
    assert kinetic._negative_on(hump, 0.9, 1.0)
    # just below zero at its vertex, and just above it
    near = QuadraticPoly(Fraction(-4), Fraction(4), Fraction(-1) - Fraction(1, 10 ** 12))
    assert kinetic._negative_on(near, 0.0, 1.0)
    touch = QuadraticPoly(Fraction(-4), Fraction(4), Fraction(-1))
    assert not kinetic._negative_on(touch, 0.0, 1.0)
    # upward parabolas and lines: their ends decide
    assert kinetic._negative_on(QuadraticPoly(Fraction(1), Fraction(0), Fraction(-2)), 0.0, 1.0)
    assert not kinetic._negative_on(QuadraticPoly(Fraction(1), Fraction(0), Fraction(-1)), 0.0, 1.0)
    assert kinetic._negative_on(QuadraticPoly(0, Fraction(1), Fraction(-2)), 0.0, 1.0)
    # a leading term below the float range: only its sign is known
    tiny = Fraction(1, 2 ** 1100)
    assert kinetic._negative_on(QuadraticPoly(tiny, 0, Fraction(-1)), 0.0, 1.0)
    assert not kinetic._negative_on(QuadraticPoly(-tiny, 0, Fraction(-1)), 0.0, 1.0)


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
            inst = generate(GenParams(n=n, m=m, seed=seed, instance_class=klass)).as_exact()
            rows = kinetic.distance_rows(inst)
            rng = Random(seed)
            times = []
            for _ in range(200):
                s, i, j = rng.randrange(m), rng.randrange(n), rng.randrange(n)
                times += [t for t in quadratic_roots(rows[s][i] - rows[s][j], 0, 1)
                          if 0 < t < 1]
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
        inst = generate(GenParams(n=20, m=4, seed=0, instance_class=klass)).as_exact()
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
