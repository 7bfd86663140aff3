"""The whole min-max solver against an exact brute-force optimum on tiny
integer-grid instances (differential testing, McKeeman 1998).

`minmax_optimum` shares nothing with the solver but the exact number type,
the root finder and `sign_ahead`: it enumerates every cover between
consecutive times at which two objects are equally far from a station, and
takes the lower envelope's maximum at the piece ends and at the covers'
crossings.
"""

import json
import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, combinations, product

import pytest

from conftest import grid_instance
from kdcover.certificate import result_to_json, verify_result
from kdcover.exactarith import QuadraticNumber, poly_parts
from kdcover.geometry import quadratic_roots, sign_ahead
from kdcover.kinetic import ImprovementFlags
from kdcover.minmax import SolverConfig, solve_minmax

ALL_FLAGS = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)
SEEDS = range(40)
TINY = 2.0 ** -30  # exact in binary


def minmax_optimum(inst):
    """OPT* = max over t in [0, 1] of OPT(t), exactly: OPT(t) is the least,
    over every cover, of the summed largest squared distance per station.

    Between consecutive piece ends, the times at which two objects are
    equally far from one station, each station's order of its objects is
    fixed, so a cover is a level per station (a prefix of that order, or
    none) and its cost one quadratic that opens upward.  OPT is then the
    lower envelope of convex quadratics, whose maximum lies at a piece end
    or where two of them cross.  Only the covers that no single level can
    lower are kept: every other costs at least as much over the piece.
    """
    ends_of = chain.from_iterable((o.start, o.end) for o in inst.objects)
    coords = [Fraction(v) for p in chain(inst.stations, ends_of) for v in (p.x, p.y)]
    scale = math.lcm(*(v.denominator for v in coords))
    ints = iter([int(v * scale) for v in coords])
    stations = [(next(ints), next(ints)) for _ in inst.stations]
    objects = [(next(ints), next(ints), next(ints), next(ints)) for _ in inst.objects]
    polys = []
    for x, y in stations:
        row = []
        for sx, sy, ex, ey in objects:
            rx, ry, vx, vy = sx - x, sy - y, ex - sx, ey - sy
            row.append((vx * vx + vy * vy, 2 * (rx * vx + ry * vy), rx * rx + ry * ry))
        polys.append(row)

    def diff(f, g):
        return f[0] - g[0], f[1] - g[1], f[2] - g[2]

    def value(f, t):
        P, Q = poly_parts(*f, t)
        return QuadraticNumber(P, Q, t.r * t.r, t.d)

    zero, one = QuadraticNumber(0, 0, 1, 0), QuadraticNumber(1, 0, 1, 0)
    ends = {zero, one}
    for row in polys:
        for f, g in combinations(set(row), 2):
            ends.update(quadratic_roots(*diff(f, g), 0, 1))
    ends = sorted(ends)
    n, everyone = len(objects), (1 << len(objects)) - 1
    best = zero
    for u, v in zip(ends, ends[1:]):
        orders = [sorted(range(n), key=cmp_to_key(lambda i, j: sign_ahead(*diff(row[i], row[j]), u)))
                  for row in polys]
        prefix = [[sum(1 << j for j in order[:k]) for k in range(n + 1)] for order in orders]

        def covers(levels):
            mask = 0
            for pre, k in zip(prefix, levels):
                mask |= pre[k]
            return mask == everyone

        costs = set()
        for levels in product(range(n + 1), repeat=len(polys)):
            if covers(levels) and not any(
                    k and covers(levels[:s] + (k - 1,) + levels[s + 1:])
                    for s, k in enumerate(levels)):
                picked = [row[order[k - 1]] for row, order, k in zip(polys, orders, levels) if k]
                costs.add(tuple(map(sum, zip((0, 0, 0), *picked))))
        times = {u, v}
        for f, g in combinations(costs, 2):
            times.update(quadratic_roots(*diff(f, g), u, v))
        for t in times:
            best = max(best, min(value(f, t) for f in costs))
    return best * Fraction(1, scale * scale)


def solve(inst, backend, flags, exact):
    """A gap-0 solve whose result file `verify_result` passes."""
    config = SolverConfig(static_backend=backend, flags=flags, target_gap=0.0,
                          exact_arithmetic=exact)
    result = solve_minmax(inst, config)
    doc = json.loads(result_to_json("grid", backend, flags, {}, result))
    assert verify_result(doc, inst) == []
    return result


def assert_solves_hold(inst, arithmetics):
    """Every backend, with all flags and none, in each arithmetic: the
    interval [lower, upper] holds pi * OPT* (within 1e-9 relative in
    float), and the exact backend in exact arithmetic reaches OPT*."""
    opt = minmax_optimum(inst)
    peak = math.pi * float(opt)
    for backend, flags, exact in product(("exact", "nn"), (ALL_FLAGS, ImprovementFlags()),
                                         arithmetics):
        case = (backend, flags, exact)
        result = solve(inst, backend, flags, exact)
        slack = 0.0 if exact else 1e-9
        assert result.lower <= peak * (1 + slack), case
        assert peak * (1 - slack) <= result.upper, case
        if exact and backend == "exact":
            assert result.gap == 0.0, case
            assert result.timeline.value == opt, case


@pytest.mark.parametrize("seed", SEEDS)
def test_solves_hold_the_exact_optimum(seed):
    assert_solves_hold(grid_instance(seed), (False, True))


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_solves_at_a_tiny_scale_reach_the_exact_optimum(seed):
    """The same instances times 2**-30, whose optimum is OPT* times 2**-60.
    Exact arithmetic alone: float solves at this scale tie every value
    within their absolute tolerances."""
    inst = grid_instance(seed, TINY)
    assert minmax_optimum(inst) == minmax_optimum(grid_instance(seed)) * Fraction(1, 2 ** 60)
    assert_solves_hold(inst, (True,))
