"""Adversarial degenerate configurations, exercised in both arithmetic modes.

These are the inputs the exact mode exists for: coincident start points,
mirrored trajectories, equidistant stations, repeated distances.  Float
mode must stay feasible within its tolerance; exact mode must agree with
it on the certified value.
"""

import math
from fractions import Fraction

import pytest

from kdcover.certificate import check_feasible
from kdcover.geometry import MovingInstance, Point2, Trajectory
from kdcover.instances import GenParams, generate
from kdcover.kinetic import ImprovementFlags, extend
from kdcover.minmax import SolverConfig, solve_minmax
from kdcover.static_cover import enumerate_candidates, nn_heuristic, solve_exact

ALL_FLAGS = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)


def solve_both_modes(inst, **cfg):
    f = solve_minmax(inst, SolverConfig(flags=ALL_FLAGS, **cfg))
    x = solve_minmax(inst, SolverConfig(flags=ALL_FLAGS, exact_arithmetic=True, **cfg))
    assert x.upper == pytest.approx(f.upper, rel=1e-9)
    for res in (f, x):
        assert check_feasible(res.timeline.segments, inst).ok
        assert res.lower <= res.upper * (1 + 1e-12)
    return f, x


def test_shared_start_fan():
    # Everything coincides at t=0; supports at the anchor are pure ties.
    objs = tuple(
        Trajectory(Point2(5.0, 5.0), Point2(5.0 + 3.0 * k, 5.0 + (k % 3)))
        for k in range(1, 6)
    )
    inst = MovingInstance((Point2(0.0, 0.0), Point2(20.0, 5.0)), objs)
    solve_both_modes(inst)


def test_mirrored_pairs_identical_polynomials():
    # Pairs of objects with identical squared-distance polynomials to the
    # station: the difference is identically zero, which must be a tie, not
    # an event source.
    inst = MovingInstance(
        (Point2(0.0, 0.0),),
        (
            Trajectory(Point2(1.0, 0.0), Point2(1.0, 1.0)),
            Trajectory(Point2(-1.0, 0.0), Point2(-1.0, -1.0)),
            Trajectory(Point2(0.0, 2.0), Point2(2.0, 2.0)),
            Trajectory(Point2(0.0, -2.0), Point2(-2.0, -2.0)),
        ),
    )
    segs = extend((0, 0, 0, 0), 0.0, "forward", 1.0, ImprovementFlags(), inst)
    assert check_feasible(segs, inst).ok
    solve_both_modes(inst)


def test_equidistant_stations_and_repeated_distances():
    # Objects sit at identical distances from two symmetric stations and
    # from each other: candidate dedup, NN tie-breaks, and the exact solver
    # all hit repeated values.
    inst = MovingInstance(
        (Point2(-4.0, 0.0), Point2(4.0, 0.0)),
        (
            Trajectory(Point2(0.0, 3.0), Point2(0.0, -3.0)),
            Trajectory(Point2(0.0, -3.0), Point2(0.0, 3.0)),
            Trajectory(Point2(-1.0, 0.0), Point2(1.0, 0.0)),
            Trajectory(Point2(1.0, 0.0), Point2(-1.0, 0.0)),
        ),
    )
    cands = enumerate_candidates(inst, 0.0)
    assert len(cands) < inst.n * inst.m  # dedup collapsed repeated radii
    nn = nn_heuristic(inst, 0.0)
    ex = solve_exact(cands)
    assert nn.total_radius_sq >= ex.total_radius_sq - 1e-12
    solve_both_modes(inst)


def test_same_slope_convoy():
    inst = generate(GenParams(n=12, m=3, seed=6, instance_class="same_slope"))
    solve_both_modes(inst)


def test_collinear_crossing_chain():
    # Objects crossing a line of stations; handovers chain along the axis.
    stations = tuple(Point2(10.0 * k, 0.0) for k in range(4))
    objs = tuple(
        Trajectory(Point2(2.0 + 3.0 * k, 0.0), Point2(28.0 - 3.0 * k, 0.0))
        for k in range(4)
    )
    inst = MovingInstance(stations, objs)
    f, x = solve_both_modes(inst)
    assert f.gap <= 1e-4
