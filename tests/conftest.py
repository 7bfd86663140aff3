import math
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kdcover.geometry import MovingInstance, Point2, Trajectory  # noqa: E402
from kdcover.static_cover import (Candidates, StaticSolution,  # noqa: E402
                                  _solution_from_selection)


def random_instance(n: int, m: int, seed: int, canvas=100.0,
                    len_min=25.0, len_max=50.0) -> MovingInstance:
    """Uniform stations and trajectories, endpoints kept inside the canvas."""
    rng = Random(seed)
    stations = tuple(
        Point2(rng.uniform(0, canvas), rng.uniform(0, canvas)) for _ in range(m)
    )
    objects = []
    for _ in range(n):
        while True:
            sx, sy = rng.uniform(0, canvas), rng.uniform(0, canvas)
            ang = rng.uniform(0, 2 * math.pi)
            length = rng.uniform(len_min, len_max)
            ex, ey = sx + length * math.cos(ang), sy + length * math.sin(ang)
            if 0 <= ex <= canvas and 0 <= ey <= canvas:
                break
        objects.append(Trajectory(Point2(sx, sy), Point2(ex, ey)))
    return MovingInstance(stations, tuple(objects), canvas=(canvas, canvas))


def grid_instance(seed: int, scale=1) -> MovingInstance:
    """A seeded instance on the integer grid 0..4, every coordinate times
    `scale`, with 1 to 3 stations and 1 to 5 objects.  Half the time an
    object's start or end is one of one or two shared hub points, so that
    members tie, touch and cross at equal times."""
    rng = Random(seed)

    def point():
        return rng.randint(0, 4), rng.randint(0, 4)

    hubs = [point() for _ in range(rng.randint(1, 2))]

    def end():
        return rng.choice(hubs) if rng.random() < 0.5 else point()

    def scaled(xy):
        return Point2(xy[0] * scale, xy[1] * scale)

    m, n = rng.randint(1, 3), rng.randint(1, 5)
    stations = tuple(scaled(point()) for _ in range(m))
    return MovingInstance(stations, tuple(Trajectory(scaled(end()), scaled(end())) for _ in range(n)))


def fraction_image(inst: MovingInstance) -> MovingInstance:
    """The instance with every coordinate as the `Fraction` of its value:
    the same numbers, and so the same integer lift."""

    def image(p: Point2) -> Point2:
        return Point2(Fraction(p.x), Fraction(p.y))

    return MovingInstance(tuple(map(image, inst.stations)),
                          tuple(Trajectory(image(o.start), image(o.end)) for o in inst.objects),
                          inst.canvas, dict(inst.metadata))


def random_sizes(seed: int, n_max: int, m_max: int) -> tuple[int, int]:
    rng = Random(seed * 7919 + 13)
    return rng.randint(1, n_max), rng.randint(1, m_max)


def assert_timelines_agree(got, want, case=None):
    """Float segments `got` against exact-arithmetic segments `want`: the
    same count, assignments and supports, and boundaries within 1e-9."""
    assert len(got) == len(want), case
    for a, b in zip(got, want):
        assert (a.assignment, a.supports) == (b.assignment, b.supports), case
        assert abs(a.t_start - float(b.t_start)) <= 1e-9, case
        assert abs(a.t_end - float(b.t_end)) <= 1e-9, case


BRUTE_FORCE_MAX_OBJECTS = 12
_BRUTE_FORCE_MAX_COMBOS = 5_000_000


def brute_force_cover(candidates: Candidates) -> StaticSolution:
    """Exhaustive optimum over per-station radius-level choices.

    The stationary oracle, guarded to small instances.  Unlike the backend it
    walks each level's coverage set, read off the station's order, so it
    stays independent of the masks, ranks and relaxation the branch and
    bound exploits.
    """
    n = candidates.n_objects
    if n > BRUTE_FORCE_MAX_OBJECTS:
        raise ValueError(f"brute force is guarded to n <= {BRUTE_FORCE_MAX_OBJECTS}, got {n}")
    options, covered_by, cost_of = [], [], []
    combos = 1
    for s, last in enumerate(candidates.last):
        combos *= len(last) + 1
        if combos > _BRUTE_FORCE_MAX_COMBOS:
            raise ValueError("instance exceeds brute force combination guard")
        options.append([None] + [candidates.offset[s] + k for k in range(len(last))])
        covered_by.extend(frozenset(candidates.orders[s][: e + 1]) for e in last)
        cost_of.extend(candidates.values[s])
    universe = frozenset(range(n))
    best_cost = None
    best_sel = None

    def walk(depth, chosen, covered, cost):
        nonlocal best_cost, best_sel
        if best_cost is not None and cost > best_cost:
            return
        if depth == len(options):
            if covered == universe:
                sel = tuple(sorted(chosen))
                if best_cost is None or cost < best_cost or (
                    cost == best_cost and sel < best_sel
                ):
                    best_cost, best_sel = cost, sel
            return
        for opt in options[depth]:
            if opt is None:
                walk(depth + 1, chosen, covered, cost)
            else:
                cost_opt = cost + cost_of[opt]
                walk(depth + 1, chosen + [opt], covered | covered_by[opt], cost_opt)

    walk(0, [], frozenset(), 0)
    return _solution_from_selection(candidates, best_sel, best_cost, "optimal")
