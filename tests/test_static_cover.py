import math
from fractions import Fraction
from itertools import accumulate
from operator import gt, le, sub
from random import Random

import pytest

from conftest import random_instance, random_sizes
from kdcover import static_cover
from kdcover.geometry import MovingInstance, Point2, Trajectory
from kdcover.instances import GenParams, generate
from kdcover.static_cover import (
    BranchBoundBackend,
    Candidates,
    InfeasibleCoverError,
    SolverBackend,
    StaticSolution,
    brute_force_cover,
    enumerate_candidates,
    nn_heuristic,
    solve_exact,
)


def stationary(points, stations):
    return MovingInstance(
        tuple(Point2(*s) for s in stations),
        tuple(Trajectory(Point2(*p), Point2(*p)) for p in points),
    )


def covered(cands, s, k):
    """The objects station s's level k covers, ascending."""
    return sorted(cands.orders[s][: cands.last[s][k] + 1])


def test_enumerate_examples():
    inst = stationary([(1.0, 0.0), (3.0, 0.0)], [(0.0, 0.0)])
    cands = enumerate_candidates(inst, 0.0)
    assert [(v, covered(cands, 0, k)) for k, v in enumerate(cands.values[0])] == [
        (1.0, [0]), (9.0, [0, 1])]
    assert cands.masks == [[0b01, 0b11]]
    # Each level's outermost object enters the prefix at that level.
    assert all(cands.rank[0][cands.orders[0][e]] == k for k, e in enumerate(cands.last[0]))

    inst = stationary([(1.0, 0.0)], [(0.0, 0.0), (5.0, 0.0)])
    cands = enumerate_candidates(inst, 0.0)
    assert (cands.values, cands.offset, len(cands)) == ([[1.0], [16.0]], [0, 1], 2)

    empty = MovingInstance((Point2(0.0, 0.0),), ())
    assert len(enumerate_candidates(empty, 0.0)) == 0


def test_enumerate_dedups_equidistant():
    inst = stationary([(1.0, 0.0), (-1.0, 0.0), (0.0, 2.0)], [(0.0, 0.0)])
    cands = enumerate_candidates(inst, 0.0)
    assert [(v, covered(cands, 0, k)) for k, v in enumerate(cands.values[0])] == [
        (1.0, [0, 1]),
        (4.0, [0, 1, 2]),
    ]
    # Equidistant objects share a level, lowest index first in the order.
    assert cands.orders == [(0, 1, 2)]
    assert cands.rank == [[0, 0, 1]]


def test_candidate_chains_nested():
    for seed in range(20):
        n, m = random_sizes(seed, 12, 4)
        inst = random_instance(n, m, seed)
        cands = enumerate_candidates(inst, 0.25)
        assert len(cands) == sum(len(v) for v in cands.values) <= n * m
        positions = [o.at(0.25) for o in inst.objects]
        for s, st in enumerate(inst.stations):
            # One order per station, by (squared distance, index), that
            # every level of the station reads; each object's reach is its
            # squared distance.
            d2 = [(st.x - p.x) ** 2 + (st.y - p.y) ** 2 for p in positions]
            assert list(cands.orders[s]) == sorted(range(n), key=lambda j: (d2[j], j))
            assert cands.reach[s] == d2
            vals = cands.values[s]
            assert cands.last[s][-1] == n - 1
            for k in range(1, len(vals)):
                assert vals[k - 1] < vals[k]
                assert set(covered(cands, s, k - 1)) < set(covered(cands, s, k))


def test_nn_examples():
    inst = stationary([(-0.5, 0.0), (0.5, 0.0)], [(-1.0, 0.0), (1.0, 0.0)])
    sol = nn_heuristic(inst, 0.0)
    assert sol.total_radius_sq == pytest.approx(0.5)
    assert sol.cost == pytest.approx(0.5 * math.pi)

    one = stationary([(1.0, 0.0), (0.0, 3.0)], [(0.0, 0.0)])
    sol = nn_heuristic(one, 0.0)
    assert sol.radius_sq == (9.0,)
    assert sol.assignment == (0, 0)

    gap_demo = stationary([(1.9, 0.0), (2.1, 0.0)], [(0.0, 0.0), (4.0, 0.0)])
    sol = nn_heuristic(gap_demo, 0.0)
    assert sol.total_radius_sq == pytest.approx(7.22)
    exact = solve_exact(enumerate_candidates(gap_demo, 0.0))
    assert exact.total_radius_sq == pytest.approx(4.41)
    assert exact.cost == pytest.approx(13.8544, abs=1e-3)
    assert exact.gap == 0.0


def reference_nn_heuristic(instance, t):
    """`nn_heuristic` element by element, each object's nearest station
    taken by `min` over (distance, station index) keys."""
    n, m = instance.n, instance.m
    positions = [obj.at(t) for obj in instance.objects]

    def dist_sq(a, b):
        dx = a.x - b.x
        dy = a.y - b.y
        return dx * dx + dy * dy

    d2 = [[dist_sq(st, p) for st in instance.stations] for p in positions]
    nearest = [min(range(m), key=lambda i, j=j: (d2[j][i], i)) for j in range(n)]
    order = sorted(range(n), key=lambda j: (-d2[j][nearest[j]], j))
    assignment = [-1] * n
    radius = [0] * m
    covered = [False] * n
    for j in order:
        if covered[j]:
            continue
        s = nearest[j]
        if d2[j][s] > radius[s]:
            radius[s] = d2[j][s]
        for o in range(n):
            if not covered[o] and d2[o][s] <= radius[s]:
                covered[o] = True
                assignment[o] = s
    return StaticSolution(tuple(assignment), tuple(radius), sum(radius), 0)


def test_nn_matches_element_by_element_reference():
    """Compared by repr of the whole solution, so a different tie-break or
    a differently computed radius fails.  Integer grids make equidistant
    stations and objects common."""
    rng = Random(21)

    def grid_instance(n, m):
        def point():
            return Point2(float(rng.randint(0, 4)), float(rng.randint(0, 4)))

        return MovingInstance(tuple(point() for _ in range(m)),
                              tuple(Trajectory(point(), point()) for _ in range(n)))

    cases = [grid_instance(30, 6) for _ in range(8)]
    cases += [random_instance(*random_sizes(seed, 40, 7), seed) for seed in range(8)]
    cases += [stationary([], [(0.0, 0.0), (1.0, 1.0)])]
    for inst in cases:
        for t in (0.0, 0.5, 1.0, rng.random()):
            assert repr(nn_heuristic(inst, t)) == repr(reference_nn_heuristic(inst, t)), t
            exact, tt = inst.as_exact(), Fraction(t)
            assert repr(nn_heuristic(exact, tt)) == repr(reference_nn_heuristic(exact, tt)), t


def test_solve_exact_trivial_and_errors():
    empty = enumerate_candidates(stationary([], [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]), 0.0)
    assert solve_exact(empty).total_radius_sq == 0
    # The candidates carry the object and station counts; a call that
    # passes them again is a stale call and fails loudly.
    cands = enumerate_candidates(stationary([(1.0, 0.0)], [(0.0, 0.0)]), 0.0)
    with pytest.raises(TypeError):
        solve_exact(cands, 2, 1)
    with pytest.raises(TypeError):
        brute_force_cover(cands, 2, 1)


def test_brute_force_examples_and_guard():
    inst = stationary([(1.0, 0.0), (3.0, 0.0)], [(0.0, 0.0)])
    sol = brute_force_cover(enumerate_candidates(inst, 0.0))
    assert sol.total_radius_sq == pytest.approx(9.0)

    two = stationary([(0.5, 0.0), (9.5, 0.0)], [(0.0, 0.0), (10.0, 0.0)])
    sol = brute_force_cover(enumerate_candidates(two, 0.0))
    assert sol.total_radius_sq == pytest.approx(0.5)
    assert len(sol.selected) == 2

    big = random_instance(13, 2, 0)
    with pytest.raises(ValueError):
        brute_force_cover(enumerate_candidates(big, 0.0))


def test_exact_matches_brute_force_random():
    for seed in range(60):
        n, m = random_sizes(seed, 8, 3)
        inst = random_instance(n, m, seed)
        cands = enumerate_candidates(inst, 0.5)
        ex = solve_exact(cands)
        bf = brute_force_cover(cands)
        assert ex.total_radius_sq == pytest.approx(bf.total_radius_sq, rel=1e-9)
        assert ex.selected == bf.selected  # lexicographic tie-break agreement
        nn = nn_heuristic(inst, 0.5)
        assert nn.total_radius_sq >= ex.total_radius_sq - 1e-9


def test_exact_arithmetic_matches_brute_exactly():
    for seed in range(15):
        n, m = random_sizes(seed, 6, 3)
        inst = random_instance(n, m, seed).as_exact()
        cands = enumerate_candidates(inst, Fraction(1, 3))
        ex = solve_exact(cands)
        bf = brute_force_cover(cands)
        assert ex.total_radius_sq == bf.total_radius_sq  # exact equality


def test_solution_coverage_invariant():
    for seed in range(25):
        n, m = random_sizes(seed, 10, 4)
        inst = random_instance(n, m, seed)
        for sol in (
            nn_heuristic(inst, 0.75),
            solve_exact(enumerate_candidates(inst, 0.75)),
        ):
            positions = [o.at(0.75) for o in inst.objects]
            for j, s in enumerate(sol.assignment):
                st = inst.stations[s]
                d2 = (st.x - positions[j].x) ** 2 + (st.y - positions[j].y) ** 2
                assert d2 <= sol.radius_sq[s] * (1 + 1e-9) + 1e-12


def test_lower_bound_monotone_in_gap():
    inst = random_instance(40, 6, 3)
    cands = enumerate_candidates(inst, 0.5)
    prev = None
    for gap in (1e-1, 1e-2, 1e-3, 0.0):
        sol = solve_exact(cands, target_gap=gap)
        if prev is not None:
            assert sol.lower_radius_sq >= prev - 1e-9
        prev = sol.lower_radius_sq
    assert sol.gap == 0.0


def test_gapped_solve_reports_honest_bound():
    # The coarse solve may return a suboptimal cover, but its bound must
    # stay below the true optimum.
    for seed in (2, 5, 11):
        inst = random_instance(30, 5, seed)
        cands = enumerate_candidates(inst, 1.0)
        coarse = solve_exact(cands, target_gap=0.01)
        tight = solve_exact(cands, target_gap=0.0)
        assert coarse.lower_radius_sq <= tight.total_radius_sq * (1 + 1e-12)
        assert coarse.total_radius_sq >= tight.total_radius_sq - 1e-9
        assert coarse.gap <= 0.01 + 1e-12


# Selections and bounds of the search on instances beyond the brute-force
# guard: (seed, exact arithmetic, target gap, selected, total_radius_sq,
# lower_radius_sq).  The gap-0 rows were recorded from the set-based
# candidate layout; at gap 1e-2 the search at the ratio prices now settles
# these instances to their optimum.
PINNED_SEARCH = [
    (138, False, 1e-2, (44, 80, 196), 3711.4876947635207, 3711.4876947635207),
    (138, False, 0.0, (44, 80, 196), 3711.4876947635207, 3711.4876947635207),
    (138, True, 1e-2, (44, 80, 196),
     "588108700500833074130152113801169/158456325028528675187087900672",
     "588108700500833074130152113801169/158456325028528675187087900672"),
    (138, True, 0.0, (44, 80, 196),
     "588108700500833074130152113801169/158456325028528675187087900672",
     "588108700500833074130152113801169/158456325028528675187087900672"),
    (146, False, 1e-2, (17, 46, 160, 216), 3948.4600573781745, 3948.4600573781745),
    (146, False, 0.0, (17, 46, 160, 216), 3948.4600573781745, 3948.4600573781745),
    (146, True, 1e-2, (17, 46, 160, 216),
     "1251316940428158126002212205338845/316912650057057350374175801344",
     "1251316940428158126002212205338845/316912650057057350374175801344"),
    (146, True, 0.0, (17, 46, 160, 216),
     "1251316940428158126002212205338845/316912650057057350374175801344",
     "1251316940428158126002212205338845/316912650057057350374175801344"),
    (182, False, 1e-2, (2, 52, 139, 165, 201), 3412.272881341333, 3412.272881341333),
    (182, False, 0.0, (2, 52, 139, 165, 201), 3412.272881341333, 3412.272881341333),
    (182, True, 1e-2, (2, 52, 139, 165, 201),
     "1081392441543712447652587544842497/316912650057057350374175801344",
     "1081392441543712447652587544842497/316912650057057350374175801344"),
    (182, True, 0.0, (2, 52, 139, 165, 201),
     "1081392441543712447652587544842497/316912650057057350374175801344",
     "1081392441543712447652587544842497/316912650057057350374175801344"),
]

# The same gap-1e-2 solves with the quick search off, so that the root
# ascent decides them: it fixes levels against each incumbent as it goes,
# the search stops once the incumbent is within the gap, and the
# exact-mode bound is the Fraction of a float.
PINNED_ASCENT = [
    (138, False, 1e-2, (44, 80, 196), 3711.4876947635207, 3710.7397251054676),
    (138, True, 1e-2, (44, 80, 196),
     "588108700500833074130152113801169/158456325028528675187087900672",
     "8130289766315119/2199023255552"),
    (146, False, 1e-2, (17, 46, 160, 216), 3948.4600573781745, 3936.159529198523),
    (146, True, 1e-2, (17, 46, 160, 216),
     "1251316940428158126002212205338845/316912650057057350374175801344",
     "4327853171135085/1099511627776"),
    (182, False, 1e-2, (2, 52, 139, 165, 201), 3412.272881341333, 3398.96811861995),
    (182, True, 1e-2, (2, 52, 139, 165, 201),
     "1081392441543712447652587544842497/316912650057057350374175801344",
     "7474409937725095/2199023255552"),
]


def check_pinned(rows):
    optimum = {(seed, exact): total for seed, exact, gap, _, total, _ in PINNED_SEARCH if gap == 0}
    for seed, exact, gap, selected, total, lower in rows:
        inst = random_instance(40, 6, seed)
        t = 0.5
        opt = optimum[seed, exact]
        if exact:
            inst, t = inst.as_exact(), Fraction(1, 2)
            total, lower, opt = Fraction(total), Fraction(lower), Fraction(opt)
        sol = solve_exact(enumerate_candidates(inst, t), target_gap=gap)
        assert sol.selected == selected
        assert sol.total_radius_sq == total
        assert sol.lower_radius_sq == lower
        assert type(sol.total_radius_sq) is type(total)
        assert type(sol.lower_radius_sq) is type(lower)
        assert lower <= opt <= total
        assert total - lower <= gap * lower


def test_search_pinned_beyond_oracle():
    check_pinned(PINNED_SEARCH)


def test_ascent_search_pinned(monkeypatch):
    monkeypatch.setattr(static_cover, "_QUICK_WORK", 0)
    check_pinned(PINNED_ASCENT)


def test_ascent_pinned_under_an_unreachable_cutoff(monkeypatch):
    # No cutoff, and a cutoff below the optimum (which no cover reaches),
    # leave every root-ascent row as pinned.
    monkeypatch.setattr(static_cover, "_QUICK_WORK", 0)
    for seed, exact, gap, selected, total, lower in PINNED_ASCENT:
        inst, t = random_instance(40, 6, seed), 0.5
        if exact:
            inst, t = inst.as_exact(), Fraction(1, 2)
            total, lower = Fraction(total), Fraction(lower)
        cands = enumerate_candidates(inst, t)
        for cutoff in (None, lower / 2):
            sol = solve_exact(cands, target_gap=gap, cutoff=cutoff)
            assert (sol.selected, sol.total_radius_sq, sol.lower_radius_sq) == (
                selected, total, lower), (seed, exact, cutoff)
            assert type(sol.lower_radius_sq) is type(lower)
            assert not sol.timed_out


def test_lex_tiebreak_prefers_smaller_candidate_indices():
    inst = stationary([(1.0, 0.0)], [(0.0, 0.0), (2.0, 0.0)])
    cands = enumerate_candidates(inst, 0.0)
    assert (cands.offset, len(cands)) == ([0, 1], 2)
    sol = solve_exact(cands)
    assert sol.selected == (0,)
    assert brute_force_cover(cands).selected == (0,)


def scaled(inst, factor):
    def pt(p):
        return Point2(p.x * factor, p.y * factor)

    return MovingInstance(
        tuple(pt(s) for s in inst.stations),
        tuple(Trajectory(pt(o.start), pt(o.end)) for o in inst.objects),
    )


# The search first tries the ratio prices for a fixed amount of work, which
# settles instances of this size; without it, the same checks run the root
# subgradient ascent and the search at its multipliers.
both_searches = pytest.mark.parametrize("quick_work", [None, 0])


def use_quick_work(monkeypatch, quick_work):
    if quick_work is not None:
        monkeypatch.setattr(static_cover, "_QUICK_WORK", quick_work)


# "dive" runs the search's primal heuristic at every pop, which the default
# `_DIVE_PERIOD` never reaches at these sizes.
@pytest.mark.parametrize("quick_work", [None, 0, "dive"])
def test_bound_sound_under_scaling(monkeypatch, quick_work):
    # The Lagrangian bound is evaluated in floats less a rounding margin;
    # scaling the plane by 1e-6 or 1e6 must neither lift it above the
    # optimum nor disturb the gap-0 search and its tie-break.
    if quick_work == "dive":
        monkeypatch.setattr(static_cover, "_DIVE_PERIOD", 1)
    else:
        use_quick_work(monkeypatch, quick_work)
    for seed in range(12):
        n, m = random_sizes(seed, 12, 4)
        for factor in (1e-6, 1e6):
            base = scaled(random_instance(n, m, seed), factor)
            for inst, t in ((base, 0.5), (base.as_exact(), Fraction(1, 2))):
                cands = enumerate_candidates(inst, t)
                bf = brute_force_cover(cands)
                for gap in (1e-1, 1e-2, 1e-4, 0.0):
                    sol = solve_exact(cands, target_gap=gap)
                    assert sol.lower_radius_sq <= bf.total_radius_sq, (seed, factor, gap)
                    if isinstance(t, Fraction):
                        assert type(sol.lower_radius_sq) is Fraction, (seed, factor, gap)
                    if gap == 0.0:
                        assert sol.selected == bf.selected, (seed, factor)
                        assert sol.total_radius_sq == bf.total_radius_sq


def milp_optimum(cands):
    """The optimal sum of squared radii over `cands` by HiGHS, through
    scipy: a 0/1 variable per candidate disk, each object in at least one
    chosen disk.  An oracle that shares nothing with the branch and bound
    but the candidates."""
    import numpy as np
    from scipy import optimize, sparse

    rows, cols = [], []
    for s, (order, last) in enumerate(zip(cands.orders, cands.last)):
        for lvl, end in enumerate(last):
            rows.extend(order[: end + 1])
            cols.extend([cands.offset[s] + lvl] * (end + 1))
    cover = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(cands.n_objects, len(cands))
    )
    res = optimize.milp(
        c=[v for fv in cands.fvalues for v in fv],
        constraints=optimize.LinearConstraint(cover, lb=1, ub=np.inf),
        integrality=np.ones(len(cands)),
        bounds=optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0, res.message
    return res.fun


@both_searches
def test_bound_against_milp_at_moderate_size(monkeypatch, quick_work):
    pytest.importorskip("scipy")
    use_quick_work(monkeypatch, quick_work)
    small = [(seed, *random_sizes(seed, 9, 3), 0.5) for seed in range(6)]
    for seed, n, m, t in small + [(0, 40, 6, 0.0), (1, 50, 7, 0.5), (2, 60, 8, 0.0),
                                  (3, 45, 8, 0.5), (4, 60, 6, 0.5), (5, 55, 7, 0.0)]:
        inst = random_instance(n, m, seed)
        cands = enumerate_candidates(inst, t)
        opt = milp_optimum(cands)
        exact = solve_exact(cands, target_gap=0.0)
        assert exact.total_radius_sq == pytest.approx(opt, rel=1e-6), (seed, n)
        coarse = solve_exact(cands, target_gap=1e-2)
        assert coarse.lower_radius_sq <= opt * (1 + 1e-9), (seed, n)
        assert opt <= coarse.total_radius_sq * (1 + 1e-9), (seed, n)
        assert coarse.total_radius_sq <= (1 + 1e-2) * coarse.lower_radius_sq, (seed, n)


def test_lagrangian_margin_covers_rounding():
    # The float Lagrangian value less `_margin` must not exceed the same
    # value computed in exact rationals, at any scale of the plane, over all
    # levels and over the levels up to random caps.
    from kdcover.static_cover import _margin

    rng = Random(5)
    for seed in range(20):
        n, m = random_sizes(seed, 30, 5)
        for factor in (1e-6, 1.0, 1e6):
            inst = scaled(random_instance(n, m, seed), factor).as_exact()
            lv = enumerate_candidates(inst, Fraction(1, 3))
            for capped in (False, True):
                lv.reset_caps()
                caps = random_caps(lv, rng) if capped else [len(v) - 1 for v in lv.values]
                levels = tuple(
                    rng.randrange(-1, len(v)) if rng.random() < 0.3 else -1 for v in lv.values
                )
                open_ = lv.uncovered(lv.committed(levels)[1])
                top = max(max(v) for v in lv.values)
                weights = [rng.uniform(0, 2 * top / n) if o and rng.random() < 0.8 else 0.0
                           for o in open_]
                value, _, scale, _ = lv.lagrangian(levels, weights)
                exact = sum(Fraction(w) for w in weights)
                for s, lvl in enumerate(levels):
                    base = lv.values[s][lvl] if lvl >= 0 else 0
                    best = 0
                    for k in range(lvl + 1, caps[s] + 1):
                        prefix = lv.orders[s][: lv.last[s][k] + 1]
                        covered = sum(Fraction(weights[j]) for j in prefix)
                        best = min(best, lv.values[s][k] - base - covered)
                    exact += best
                assert Fraction(value - _margin(scale, lv)) <= exact, (seed, factor, capped)


def levels_of(cands, selected):
    """Each station's level in a selection, -1 where it has none."""
    return [max((i - start for i in selected if 0 <= i - start < len(vals)), default=-1)
            for start, vals in zip(cands.offset, cands.values)]


@both_searches
def test_fixing_keeps_the_brute_force_optimum(monkeypatch, quick_work):
    """Every level of the exhaustive optimum stays at or below the caps a
    gap-0 solve ends with, and the solve returns that optimum and its
    tie-break, in float and in exact arithmetic, on all four classes."""
    use_quick_work(monkeypatch, quick_work)
    rng = Random(12)
    fixed = 0
    for klass in ("random", "same_slope", "same_start", "same_end"):
        for seed in range(5):
            n, m = rng.randint(8, 12), rng.randint(2, 4)
            base = generate(GenParams(n=n, m=m, seed=seed, instance_class=klass))
            for inst, t in ((base, 0.0), (base, 0.5), (base.as_exact(), Fraction(1, 3))):
                cands = enumerate_candidates(inst, t)
                bf = brute_force_cover(cands)
                sol = solve_exact(cands, target_gap=0.0)
                assert (sol.selected, sol.total_radius_sq) == (
                    bf.selected, bf.total_radius_sq), (klass, seed, t)
                assert all(map(le, levels_of(cands, bf.selected), cands.caps)), (klass, seed, t)
                fixed += sum(len(v) - 1 - cap for v, cap in zip(cands.values, cands.caps))
    assert fixed > 0


def test_fixing_compares_exactly_at_the_incumbents_double():
    """In exact arithmetic `_fix` caps each station at its highest level
    whose forced bound is at most the incumbent's exact cost, also for
    costs a hair below, at and a hair above a bound, which all round to
    the bound's double."""
    from kdcover.static_cover import _margin

    cands = enumerate_candidates(random_instance(12, 3, 4).as_exact(), Fraction(1, 2))
    u = BranchBoundBackend._ratio_prices(cands)
    total, chosen, scale, reduced = cands.lagrangian((-1,) * cands.n_stations, u)
    relaxation = (total, chosen, _margin(scale, cands), reduced)
    bounds = [[total - (red[chosen[s]] if chosen[s] >= 0 else 0.0) + r - relaxation[2]
               for r in red] for s, red in enumerate(reduced)]
    hair = Fraction(1, 1 << 80)
    for cost in sorted({Fraction(b) + d for row in bounds for b in row for d in (-hair, 0, hair)}):
        cands.reset_caps()
        BranchBoundBackend._fix(cands, relaxation, cost)
        assert cands.caps == [max((k for k, b in enumerate(row) if Fraction(b) <= cost),
                                  default=-1) for row in bounds], cost


def test_a_reused_candidates_solves_as_a_fresh_one(monkeypatch):
    """A solve starts from every level whatever caps an earlier solve of the
    same candidates left: solved twice, with no cutoff and then a cutoff
    below the optimum, it returns what a fresh solve returns."""
    monkeypatch.setattr(static_cover, "_QUICK_WORK", 0)
    for seed, exact, gap, *_ in PINNED_ASCENT:
        inst, t = random_instance(40, 6, seed), 0.5
        if exact:
            inst, t = inst.as_exact(), Fraction(1, 2)
        fresh = solve_exact(enumerate_candidates(inst, t), target_gap=gap)
        cands = enumerate_candidates(inst, t)
        first = solve_exact(cands, target_gap=gap)
        caps = list(cands.caps)
        assert caps != [len(v) - 1 for v in cands.values], (seed, exact)
        again = solve_exact(cands, target_gap=gap, cutoff=fresh.lower_radius_sq / 2)
        assert repr(first) == repr(again) == repr(fresh), (seed, exact)
        assert cands.caps == caps, (seed, exact)


def test_an_open_object_past_every_cap_returns_the_incumbent():
    """Caps that leave an open object out of every station's reach give the
    nodes that branch on it no child, so the search runs dry and returns
    the incumbent as optimal, in float and in exact arithmetic."""
    base = random_instance(12, 3, 4)
    for inst, t in ((base, 0.5), (base.as_exact(), Fraction(1, 2))):
        cands = enumerate_candidates(inst, t)
        best = cands.complete((-1,) * cands.n_stations)
        far = cands.orders[0][-1]
        for s in range(cands.n_stations):
            cands.cap(s, cands.rank[s][far] - 1)
        backend = BranchBoundBackend()
        u = backend._ratio_prices(cands)
        got = backend._search(cands, u, best, 0.0, -math.inf, math.inf, math.inf)
        assert got == (best, best[1], "optimal"), t


def test_heuristics_read_levels_past_the_caps():
    """`complete` and `improve` return covers from levels above the caps,
    which the primal heuristics reach by raising stations past them."""
    rng = Random(21)
    for lv in gather_cases():
        for trial in range(6):
            lv.reset_caps()
            caps = random_caps(lv, rng)
            levels = tuple(rng.randrange(max(cap, 0), len(v)) if rng.random() < 0.5 else -1
                           for cap, v in zip(caps, lv.values))
            for got, cost in (lv.complete(levels), lv.improve(*lv.complete(levels))):
                assert lv.committed(got) == (cost, lv.universe)


def test_capped_solves_diving_at_every_pop_return_covers(monkeypatch):
    """Solves whose search runs the primal heuristic at every pop, at sizes
    where the levels are fixed before the search and some dives improve
    levels above the caps, return covers costing what they report."""
    monkeypatch.setattr(static_cover, "_QUICK_WORK", 0)
    monkeypatch.setattr(static_cover, "_DIVE_PERIOD", 1)
    improve, above = Candidates.improve, []

    def counted(self, levels, cost):
        above.append(any(map(gt, levels, self.caps)))
        return improve(self, levels, cost)

    monkeypatch.setattr(Candidates, "improve", counted)
    fixed = 0
    for seed in range(4):
        inst = random_instance(120, 10, seed)
        for exact in (False, True):
            cands = enumerate_candidates(inst.as_exact() if exact else inst,
                                         Fraction(1, 2) if exact else 0.5)
            sol = solve_exact(cands, target_gap=0.0)
            assert covers_all(cands, sol, inst.n), (seed, exact)
            assert sol.total_radius_sq == sum(cands.values[s][lvl] for s, lvl in
                                              enumerate(levels_of(cands, sol.selected))
                                              if lvl >= 0), (seed, exact)
            fixed += sum(len(v) - 1 - cap for v, cap in zip(cands.values, cands.caps))
    assert fixed > 0 and any(above)


def covers_all(cands, sol, n):
    return set().union(*(
        covered(cands, s, i - start)
        for s, start in enumerate(cands.offset)
        for i in sol.selected if 0 <= i - start < len(cands.values[s])
    )) == set(range(n))


@both_searches
def test_cutoff_against_brute_force(monkeypatch, quick_work):
    """Cutoffs below the optimum, between it and the greedy cost, and above
    the greedy cost.  Below the optimum no cover reaches the cutoff and the
    solve is the one without it; otherwise the solve stops at a cover whose
    float cost is at most the cutoff, short of the gap but not timed out."""
    use_quick_work(monkeypatch, quick_work)
    stopped = 0
    for seed in range(40):
        n, m = random_sizes(seed, 12, 4)
        base = random_instance(n, m, seed)
        for inst, t in ((base, 0.5), (base.as_exact(), Fraction(1, 2))):
            cands = enumerate_candidates(inst, t)
            opt = brute_force_cover(cands).total_radius_sq
            greedy = nn_heuristic(inst, t).total_radius_sq
            full = solve_exact(cands)
            for cutoff in (opt * 0.999, (opt + greedy) / 2, greedy * 1.01):
                sol = solve_exact(cands, cutoff=cutoff)
                assert covers_all(cands, sol, n), (seed, cutoff)
                assert sol.lower_radius_sq <= opt, (seed, cutoff)
                assert not sol.timed_out, (seed, cutoff)
                if cutoff < opt:
                    assert (sol.selected, sol.lower_radius_sq) == (
                        full.selected, full.lower_radius_sq), seed
                else:
                    assert float(sol.total_radius_sq) <= float(cutoff), (seed, cutoff)
                    stopped += sol.gap > 0.0
    assert stopped > 0


class FixedBackend(SolverBackend):
    """Returns one selection with a zero bound, as a search that stopped
    at its time limit before proving anything would."""

    def __init__(self, selected):
        self.selected = selected

    def solve(self, candidates, target_gap, time_limit, cutoff=None):
        return list(self.selected), 0, "time_limit"


def test_cutoff_stop_is_not_a_time_out():
    n, m = 12, 3
    inst = random_instance(n, m, 4)
    cands = enumerate_candidates(inst, 0.5)
    # The branch and bound stops at once under a cutoff above its first cover.
    greedy = nn_heuristic(inst, 0.5).total_radius_sq
    sol = solve_exact(cands, cutoff=greedy)
    assert sol.gap > 0.0 and not sol.timed_out


def test_search_past_its_deadline_returns_a_cover_and_a_sound_bound(monkeypatch):
    monkeypatch.setattr(static_cover, "_TIME_CHECK_PERIOD", 1)
    for seed in range(5):
        n, m = random_sizes(seed, 12, 4)
        inst = random_instance(n, m, seed)
        cands = enumerate_candidates(inst, 0.5)
        opt = brute_force_cover(cands).total_radius_sq
        sol = solve_exact(cands, target_gap=1e-4, time_limit=-1.0)
        assert sol.timed_out, seed
        assert covers_all(cands, sol, n), seed
        assert sol.lower_radius_sq <= opt <= sol.total_radius_sq, seed


def inferred_time_out(sol, target_gap, cutoff):
    """The time-out as `solve_exact` once inferred it from the returned gap:
    short of the target gap beyond a float tolerance, with the cover above
    the cutoff or with no cutoff."""
    below_cutoff = cutoff is not None and float(sol.total_radius_sq) <= float(cutoff)
    return not below_cutoff and sol.gap > target_gap and not math.isclose(
        sol.gap, target_gap, rel_tol=1e-9, abs_tol=1e-15)


def test_each_stop_cause(monkeypatch):
    """The branch and bound reports each of its four stop causes, and only
    "time_limit" is a time-out, as the gap inference would have it."""
    base = random_instance(40, 6, 138)
    for inst, t in ((base, 0.5), (base.as_exact(), Fraction(1, 2))):
        cands = enumerate_candidates(inst, t)

        def solve(cause, target_gap=0.0, cutoff=None, time_limit=math.inf):
            sol = solve_exact(cands, target_gap=target_gap, time_limit=time_limit, cutoff=cutoff)
            assert sol.stop == cause, t
            assert sol.timed_out == (cause == "time_limit"), t
            assert sol.timed_out == inferred_time_out(sol, target_gap, cutoff), t
            return sol

        solve("optimal")
        with monkeypatch.context() as patch:
            # The root ascent stops within the gap short of the optimum.
            patch.setattr(static_cover, "_QUICK_WORK", 0)
            sol = solve("gap", target_gap=1e-2)
            assert sol.lower_radius_sq < sol.total_radius_sq, t
        # The search stops at once under a cutoff above its first cover.
        solve("cutoff", cutoff=nn_heuristic(inst, t).total_radius_sq)
        with monkeypatch.context() as patch:
            patch.setattr(static_cover, "_TIME_CHECK_PERIOD", 1)
            solve("time_limit", target_gap=1e-4, time_limit=-1.0)


def test_pinned_searches_stop_where_the_gap_inference_says():
    for seed, exact, gap, *_ in PINNED_SEARCH:
        inst, t = random_instance(40, 6, seed), 0.5
        if exact:
            inst, t = inst.as_exact(), Fraction(1, 2)
        sol = solve_exact(enumerate_candidates(inst, t), target_gap=gap)
        assert sol.stop in ("optimal", "gap"), (seed, exact, gap)
        assert sol.timed_out == inferred_time_out(sol, gap, None), (seed, exact, gap)


def test_a_backend_selection_that_misses_an_object_is_infeasible():
    # Station 0's innermost level, station 1's second level and the empty
    # selection each leave objects uncovered: no solution is built.
    n, m = 12, 3
    cands = enumerate_candidates(random_instance(n, m, 4), 0.5)
    for selected in ((0,), (cands.offset[1] + 1,), ()):
        with pytest.raises(InfeasibleCoverError, match="selection does not cover object"):
            solve_exact(cands, backend=FixedBackend(selected))


def test_a_backend_index_out_of_range_is_rejected():
    """Beside a valid cover, an index below 0, one past the last candidate
    or one that is not an int is named in a ValueError."""
    cands = enumerate_candidates(random_instance(12, 3, 4), 0.5)
    cover = cands.offset[1] - 1  # station 0's top level covers every object
    assert solve_exact(cands, backend=FixedBackend((cover,))).selected == (cover,)
    for bad in (-1, len(cands), 1.0):
        with pytest.raises(ValueError, match=rf"selected candidate {bad!r} is not an index"):
            solve_exact(cands, backend=FixedBackend((bad, cover)))


def test_objects_on_stations_tie_at_zero_increment():
    """Every object sits on a station, so every uncovered object's cheapest
    increment is zero and the search branches on the lowest one."""
    stations = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
    inst = stationary([stations[0], stations[1], stations[0], stations[2]], stations)
    for inst, t in ((inst, 0.5), (inst.as_exact(), Fraction(1, 2))):
        cands = enumerate_candidates(inst, t)
        sol, bf = solve_exact(cands), brute_force_cover(cands)
        assert (sol.selected, sol.total_radius_sq) == (bf.selected, bf.total_radius_sq)
        assert sol.total_radius_sq == 0 and sol.assignment == (0, 1, 0, 2)


class CountingBackend(SolverBackend):
    """A backend written to the signature that took the object count."""

    def solve(self, candidates, n_objects, target_gap, time_limit, cutoff=None):
        raise AssertionError("called with every option one parameter off")


def test_a_backend_that_takes_the_object_count_fails_loudly():
    # `solve_exact` passes the options by keyword, so the old parameter
    # list misses `n_objects` instead of taking the gap in its place.
    cands = enumerate_candidates(random_instance(8, 2, 0), 0.5)
    with pytest.raises(TypeError, match="n_objects"):
        solve_exact(cands, backend=CountingBackend())


# Element-by-element references for the O(nm) passes that `Candidates` runs
# as C-level gathers: each pass must return the same values, bit for bit
# (compared by repr, which tells -0.0 from 0.0), and the same types.


def reference_lagrangian(lv, levels, weights, caps):
    total = sum(weights)
    scale = total * (lv.n_stations + 2)
    chosen = list(levels)
    reduced_all = []
    for s in range(lv.n_stations):
        fv = lv.fvalues[s]
        lvl, cap = levels[s], caps[s]
        scale += 3.0 * fv[-1]
        if lvl >= cap:
            reduced_all.append(None)
            continue
        sums = list(accumulate(map(weights.__getitem__, lv.orders[s][: lv.last[s][cap] + 1])))
        reduced = list(map(sub, fv[lvl + 1 : cap + 1],
                           map(sums.__getitem__, lv.last[s][lvl + 1 : cap + 1])))
        reduced_all.append(reduced)
        low = min(reduced)
        gain = low - (fv[lvl] if lvl >= 0 else 0.0)
        if gain < 0.0:
            total += gain
            chosen[s] = lvl + 1 + reduced.index(low)
    return total, chosen, scale, reduced_all


def reference_cover_counts(lv, levels):
    count = [0] * lv.n_objects
    for s, lvl in enumerate(levels):
        if lvl >= 0:
            for j in lv.orders[s][: lv.last[s][lvl] + 1]:
                count[j] += 1
    return count


def reference_cheapest_raise(lv, j, cur):
    return min(zip(map(sub, lv.freach[j], cur), range(lv.n_stations)))


def reference_min_increments(lv, levels):
    cols = []
    for s, lvl in enumerate(levels):
        reach = lv.reach[s]
        if lvl >= 0:
            cur = lv.values[s][lvl]
            reach = [r - cur for r in reach]
        cols.append(reach)
    return [min(incs) for incs in zip(*cols)]


def random_caps(lv, rng):
    """Each station capped at a random level, -1 (no level) included."""
    caps = [rng.randrange(-1, len(v)) for v in lv.values]
    for s, k in enumerate(caps):
        lv.cap(s, k)
    return caps


def gather_cases():
    """Candidates on random and same-start instances (whose objects share
    one point at t=0, so each station's levels tie), with one object or one
    station, on an integer grid (partial ties), and in exact arithmetic."""
    for seed in range(4):
        for klass in ("random", "same_start"):
            inst = generate(GenParams(n=30, m=5, seed=seed, instance_class=klass))
            yield enumerate_candidates(inst, 0.0)
            yield enumerate_candidates(inst, 0.5)
            yield enumerate_candidates(inst.as_exact(), Fraction(1, 3))
    yield enumerate_candidates(stationary([(1.0, 2.0)], [(0.0, 0.0), (3.0, 1.0)]), 0.0)
    yield enumerate_candidates(random_instance(20, 1, 3), 0.25)
    yield enumerate_candidates(stationary([(1.0, 2.0)], [(0.0, 0.0)]), 0.0)
    grid = Random(100)
    yield enumerate_candidates(stationary(
        [(grid.randint(0, 4), grid.randint(0, 4)) for _ in range(40)],
        [(grid.randint(0, 4), grid.randint(0, 4)) for _ in range(6)]), 0.0)


def test_gathers_match_element_by_element_references():
    """At the top caps and at random ones, with committed levels up to the
    top, some past the caps: the relaxation reads levels up to the caps,
    the cover counts and increments every level."""
    rng = Random(8)
    tied = capped = False
    for lv in gather_cases():
        tied |= any(ends is not None for ends in lv.ends)
        top = max(max(fv) for fv in lv.fvalues) or 1.0
        for trial in range(24):
            lv.reset_caps()
            caps = random_caps(lv, rng) if trial % 2 else [len(v) - 1 for v in lv.values]
            capped |= caps != [len(v) - 1 for v in lv.values]
            # Committed levels, the top one included, or none at all.
            levels = tuple(rng.randrange(-1, len(v)) if trial > 1 and rng.random() < 0.4 else -1
                           for v in lv.values)
            open_ = lv.uncovered(lv.committed(levels)[1])
            weights = [rng.uniform(0, 2 * top / lv.n_objects) if o and rng.random() < 0.8
                       else 0.0 for o in open_]
            assert repr(lv.lagrangian(levels, weights)) == repr(
                reference_lagrangian(lv, levels, weights, caps))
            assert repr(lv.cover_counts(levels)) == repr(reference_cover_counts(lv, levels))
            assert repr(lv.min_increments(levels)) == repr(
                reference_min_increments(lv, levels))
            cur = [fv[lvl] if lvl >= 0 else 0.0 for fv, lvl in zip(lv.fvalues, levels)]
            for j in range(lv.n_objects):
                assert repr(lv.cheapest_raise(j, cur)) == repr(
                    reference_cheapest_raise(lv, j, cur))
    assert tied and capped


def test_candidates_without_objects():
    lv = enumerate_candidates(MovingInstance((Point2(0.0, 0.0), Point2(1.0, 1.0)), ()), 0.0)
    assert (lv.values, lv.orders, lv.last, lv.ends) == ([[], []], [(), ()], [[], []], [None, None])
    assert [gather([]) for gather in lv.gather] == [(), ()]
    assert lv.cover_counts((-1, -1)) == lv.min_increments((-1, -1)) == []
