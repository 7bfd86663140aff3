import math
from fractions import Fraction

import pytest

from conftest import random_instance, random_sizes
from kdcover.geometry import MovingInstance, Point2, Trajectory
from kdcover.static_cover import (
    BranchBoundBackend,
    InfeasibleCoverError,
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


def test_enumerate_examples():
    inst = stationary([(1.0, 0.0), (3.0, 0.0)], [(0.0, 0.0)])
    cands = enumerate_candidates(inst, 0.0)
    assert [(c.radius_sq, sorted(c.covered)) for c in cands] == [(1.0, [0]), (9.0, [0, 1])]
    assert all(c.support_index in c.covered for c in cands)

    inst = stationary([(1.0, 0.0)], [(0.0, 0.0), (5.0, 0.0)])
    cands = enumerate_candidates(inst, 0.0)
    assert [(c.station_index, c.radius_sq) for c in cands] == [(0, 1.0), (1, 16.0)]

    empty = MovingInstance((Point2(0.0, 0.0),), ())
    assert enumerate_candidates(empty, 0.0) == []


def test_enumerate_dedups_equidistant():
    inst = stationary([(1.0, 0.0), (-1.0, 0.0), (0.0, 2.0)], [(0.0, 0.0)])
    cands = enumerate_candidates(inst, 0.0)
    assert [(c.radius_sq, sorted(c.covered), c.support_index) for c in cands] == [
        (1.0, [0, 1], 0),
        (4.0, [0, 1, 2], 2),
    ]


def test_candidate_chains_nested():
    for seed in range(20):
        n, m = random_sizes(seed, 12, 4)
        inst = random_instance(n, m, seed)
        cands = enumerate_candidates(inst, 0.25)
        assert len(cands) <= n * m
        by_station = {}
        for c in cands:
            by_station.setdefault(c.station_index, []).append(c)
        for chain in by_station.values():
            assert all(c.order is chain[0].order for c in chain)
            for prev, cur in zip(chain, chain[1:]):
                assert prev.radius_sq < cur.radius_sq
                assert prev.covered < cur.covered


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
    exact = solve_exact(enumerate_candidates(gap_demo, 0.0), 2, 2)
    assert exact.total_radius_sq == pytest.approx(4.41)
    assert exact.cost == pytest.approx(13.8544, abs=1e-3)
    assert exact.gap == 0.0


def test_solve_exact_trivial_and_errors():
    assert solve_exact([], 0, 3).total_radius_sq == 0
    # n_objects names an object the candidate set does not have.
    bad = enumerate_candidates(stationary([(1.0, 0.0)], [(0.0, 0.0)]), 0.0)
    with pytest.raises(InfeasibleCoverError):
        solve_exact(bad, 2, 1)
    with pytest.raises(InfeasibleCoverError):
        brute_force_cover(bad, 2, 1)


def test_brute_force_examples_and_guard():
    inst = stationary([(1.0, 0.0), (3.0, 0.0)], [(0.0, 0.0)])
    sol = brute_force_cover(enumerate_candidates(inst, 0.0), 2, 1)
    assert sol.total_radius_sq == pytest.approx(9.0)

    two = stationary([(0.5, 0.0), (9.5, 0.0)], [(0.0, 0.0), (10.0, 0.0)])
    sol = brute_force_cover(enumerate_candidates(two, 0.0), 2, 2)
    assert sol.total_radius_sq == pytest.approx(0.5)
    assert len(sol.selected) == 2

    big = random_instance(13, 2, 0)
    with pytest.raises(ValueError):
        brute_force_cover(enumerate_candidates(big, 0.0), 13, 2)


def test_exact_matches_brute_force_random():
    for seed in range(60):
        n, m = random_sizes(seed, 8, 3)
        inst = random_instance(n, m, seed)
        cands = enumerate_candidates(inst, 0.5)
        ex = solve_exact(cands, n, m)
        bf = brute_force_cover(cands, n, m)
        assert ex.total_radius_sq == pytest.approx(bf.total_radius_sq, rel=1e-9)
        assert ex.selected == bf.selected  # lexicographic tie-break agreement
        nn = nn_heuristic(inst, 0.5)
        assert nn.total_radius_sq >= ex.total_radius_sq - 1e-9


def test_exact_arithmetic_matches_brute_exactly():
    for seed in range(15):
        n, m = random_sizes(seed, 6, 3)
        inst = random_instance(n, m, seed).as_exact()
        cands = enumerate_candidates(inst, Fraction(1, 3))
        ex = solve_exact(cands, n, m)
        bf = brute_force_cover(cands, n, m)
        assert ex.total_radius_sq == bf.total_radius_sq  # exact equality


def test_solution_coverage_invariant():
    for seed in range(25):
        n, m = random_sizes(seed, 10, 4)
        inst = random_instance(n, m, seed)
        for sol in (
            nn_heuristic(inst, 0.75),
            solve_exact(enumerate_candidates(inst, 0.75), n, m),
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
        sol = solve_exact(cands, 40, 6, target_gap=gap)
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
        coarse = solve_exact(cands, 30, 5, target_gap=0.01)
        tight = solve_exact(cands, 30, 5, target_gap=0.0)
        assert coarse.lower_radius_sq <= tight.total_radius_sq * (1 + 1e-12)
        assert coarse.total_radius_sq >= tight.total_radius_sq - 1e-9
        assert coarse.gap <= 0.01 + 1e-12


# Selections and bounds of the search on instances beyond the brute-force
# guard, recorded from the set-based candidate layout: (seed, exact
# arithmetic, target gap, selected, total_radius_sq, lower_radius_sq).
PINNED_SEARCH = [
    (138, False, 1e-2, (45, 80, 196), 3732.2416148454217, 3711.4876947635207),
    (138, False, 0.0, (44, 80, 196), 3711.4876947635207, 3711.4876947635207),
    (138, True, 1e-2, (45, 80, 196),
     "591397290406946850567117041290017/158456325028528675187087900672",
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
    (182, False, 1e-2, (3, 52, 139, 165, 201), 3432.3025468279498, 3412.2728813413332),
    (182, False, 0.0, (2, 52, 139, 165, 201), 3412.272881341333, 3412.272881341333),
    (182, True, 1e-2, (3, 52, 139, 165, 201),
     "543870047956416280081557207060885/158456325028528675187087900672",
     "1081392441543712447652587544842497/316912650057057350374175801344"),
    (182, True, 0.0, (2, 52, 139, 165, 201),
     "1081392441543712447652587544842497/316912650057057350374175801344",
     "1081392441543712447652587544842497/316912650057057350374175801344"),
]


def test_search_pinned_beyond_oracle():
    for seed, exact, gap, selected, total, lower in PINNED_SEARCH:
        inst = random_instance(40, 6, seed)
        t = 0.5
        if exact:
            inst, t = inst.as_exact(), Fraction(1, 2)
            total, lower = Fraction(total), Fraction(lower)
        sol = solve_exact(enumerate_candidates(inst, t), 40, 6, target_gap=gap)
        assert sol.selected == selected
        assert sol.total_radius_sq == total
        assert sol.lower_radius_sq == lower
        assert type(sol.total_radius_sq) is type(total)


def test_lex_tiebreak_prefers_smaller_candidate_indices():
    inst = stationary([(1.0, 0.0)], [(0.0, 0.0), (2.0, 0.0)])
    cands = enumerate_candidates(inst, 0.0)
    assert [c.station_index for c in cands] == [0, 1]
    sol = solve_exact(cands, 1, 2)
    assert sol.selected == (0,)
    assert brute_force_cover(cands, 1, 2).selected == (0,)


def test_milp_backend_if_available():
    scipy = pytest.importorskip("scipy")
    from kdcover.static_cover import MilpBackend

    for seed in range(6):
        n, m = random_sizes(seed, 9, 3)
        inst = random_instance(n, m, seed)
        cands = enumerate_candidates(inst, 0.5)
        ref = solve_exact(cands, n, m)
        got = solve_exact(cands, n, m, backend=MilpBackend())
        assert got.total_radius_sq == pytest.approx(ref.total_radius_sq, rel=1e-6)
        assert got.lower_radius_sq <= ref.total_radius_sq * (1 + 1e-6)
