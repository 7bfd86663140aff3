"""Metamorphic tests: maps of the input that change nothing a correct solver
may certify (Chen et al. 2018, "Metamorphic testing: a review of challenges
and opportunities", ACM Computing Surveys 51(1)).

Each map is exact in binary: the seven non-identity symmetries of the
square, every trajectory reversed (the timeline mirrors t -> 1 - t), the
stations and objects each listed in reverse (the timeline is relabelled),
and every coordinate as its `Fraction`.  For every image the result must
pass `verify_result`, its timeline mapped back must pass `check_feasible`
on the original instance, and its certified [lower, upper] must overlap the
original's.  A symmetry leaves every squared distance bit-identical, so
(upper, lower) must be too; in exact arithmetic every map must give the
same values when both solves certify gap 0.  Exact arithmetic solves on the
integer lift, which the Fractions share with the floats, so there they must
give the same timeline, upper and lower whatever the gap.
"""

import json

import pytest

from conftest import fraction_image
from kdcover.certificate import check_feasible, result_to_json, verify_result
from kdcover.envelope import TimelineSegment
from kdcover.geometry import MovingInstance, Point2, QuadraticPoly, Trajectory
from kdcover.instances import CLASSES, GenParams, generate
from kdcover.kinetic import ImprovementFlags
from kdcover.minmax import SolverConfig, solve_minmax

ALL_FLAGS = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)


def symmetry(element):
    """Symmetry `element` (1..7) of the square on instances: bit 2 swaps the
    axes, bit 0 negates x, bit 1 negates y.  Indices and times stay."""
    swap, sx, sy = element & 4, -1 if element & 1 else 1, -1 if element & 2 else 1

    def point(p):
        x, y = (p.y, p.x) if swap else (p.x, p.y)
        return Point2(sx * x, sy * y)

    def image(inst):
        return MovingInstance(tuple(map(point, inst.stations)),
                              tuple(Trajectory(point(o.start), point(o.end))
                                    for o in inst.objects))

    return image, list


def reversal():
    """Every trajectory run from its end to its start; a segment over
    [t0, t1] maps back to [1 - t1, 1 - t0], its objective to p(1 - t)."""

    def image(inst):
        return MovingInstance(inst.stations, tuple(Trajectory(o.end, o.start)
                                                   for o in inst.objects))

    def back(segments):
        return [TimelineSegment(1.0 - float(seg.t_end), 1.0 - float(seg.t_start),
                                seg.assignment, seg.supports,
                                QuadraticPoly(seg.poly.a, -2 * seg.poly.a - seg.poly.b,
                                              seg.poly.a + seg.poly.b + seg.poly.c))
                for seg in reversed(segments)]

    return image, back


def relabelling():
    """Stations and objects each listed in reverse: station s becomes
    m - 1 - s and object j becomes n - 1 - j."""

    def image(inst):
        return MovingInstance(inst.stations[::-1], inst.objects[::-1])

    def back(segments):
        out = []
        for seg in segments:
            m = len(seg.supports)
            out.append(TimelineSegment(
                seg.t_start, seg.t_end,
                tuple(m - 1 - s for s in seg.assignment[::-1]),
                tuple(None if sup is None else len(seg.assignment) - 1 - sup
                      for sup in seg.supports[::-1]),
                seg.poly))
        return out

    return image, back


MAPS = {**{f"symmetry{e}": symmetry(e) for e in range(1, 8)},
        "reversal": reversal(), "relabelling": relabelling(),
        "fractions": (fraction_image, list)}


def solve(inst, backend, exact):
    """The result of `backend` with every flag, and its parsed result file."""
    config = SolverConfig(static_backend=backend, flags=ALL_FLAGS, exact_arithmetic=exact)
    result = solve_minmax(inst, config)
    return result, json.loads(result_to_json("image", backend, ALL_FLAGS, {}, result))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("backend", ["exact", "nn"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("klass", CLASSES)
def test_every_map_keeps_the_certificate(klass, seed, backend, exact):
    inst = generate(GenParams(n=12, m=3, seed=seed, instance_class=klass))
    base, doc = solve(inst, backend, exact)
    assert verify_result(doc, inst) == []
    for name, (image_of, back) in MAPS.items():
        image = image_of(inst)
        result, doc = solve(image, backend, exact)
        assert verify_result(doc, image) == [], name
        report = check_feasible(back(result.timeline.segments), inst)
        assert report.ok, (name, report)
        slack = 1 + 1e-12
        assert max(base.lower, result.lower) <= min(base.upper, result.upper) * slack, name
        if name.startswith("symmetry") or exact and base.gap == result.gap == 0:
            assert (result.upper, result.lower) == (base.upper, base.lower), name
        if exact and name == "fractions":
            assert result.timeline == base.timeline
            assert (result.upper, result.lower) == (base.upper, base.lower)
