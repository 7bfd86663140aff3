import math
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_instance, random_sizes
from kdcover.envelope import (
    SolutionTimeline,
    TimelineSegment,
    argmax_timeline,
    merge_lower_envelope,
    merge_partial,
    segment_at,
    timeline_cost,
)
from kdcover.geometry import QuadraticPoly, quadratic_roots
from kdcover.kinetic import ImprovementFlags, extend
from kdcover.static_cover import nn_heuristic


def seg(t0, t1, a, b, c, tag=0):
    return TimelineSegment(t0, t1, (tag,), (None,), QuadraticPoly(a, b, c))


def single(a, b, c):
    return SolutionTimeline((seg(0.0, 1.0, a, b, c),))


def test_timeline_cost_examples():
    tl = single(1.0, 0.0, 1.0)  # t^2 + 1
    assert timeline_cost(tl, 1.0) == pytest.approx(2.0)
    assert timeline_cost(tl, 0.0) == pytest.approx(1.0)
    two = SolutionTimeline((seg(0.0, 0.5, 1.0, 0.0, 0.0), seg(0.5, 1.0, 1.0, -2.0, 1.0)))
    assert timeline_cost(two, 0.5) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        timeline_cost(tl, 1.5)


def test_segment_at_boundary_uses_later_segment():
    drop = SolutionTimeline(
        (seg(0.0, 0.5, 0.0, 0.0, 4.0, tag=0), seg(0.5, 1.0, 0.0, 0.0, 1.0, tag=1))
    )
    assert segment_at(drop, 0.5).assignment == (1,)
    assert timeline_cost(drop, 0.5) == pytest.approx(1.0)


def test_argmax_examples():
    assert argmax_timeline(single(1.0, 0.0, 1.0)) == (1.0, 2.0)
    two = SolutionTimeline((seg(0.0, 0.5, 1.0, 0.0, 0.0), seg(0.5, 1.0, 1.0, -2.0, 1.0)))
    t, v = argmax_timeline(two)
    assert (t, v) == (0.5, 0.25)
    const = single(0.0, 0.0, 3.0)
    assert argmax_timeline(const) == (0.0, 3.0)


def test_intersect_examples():
    f, g = QuadraticPoly(1.0, 0.0, 0.0), QuadraticPoly(1.0, -2.0, 1.0)
    d = f - g
    assert quadratic_roots(d.a, d.b, d.c, 0.0, 1.0) == (0.5,)
    d = f - f
    assert d.is_zero and quadratic_roots(d.a, d.b, d.c, 0.0, 1.0) == ()
    d = QuadraticPoly(1.0, 0.0, 2.0) - f
    assert quadratic_roots(d.a, d.b, d.c, 0.0, 1.0) == ()


def test_merge_examples():
    a = single(1.0, 0.0, 0.0)  # t^2
    b = SolutionTimeline((seg(0.0, 1.0, 1.0, -2.0, 1.0, tag=1),))  # (t-1)^2
    merged = merge_lower_envelope(a, b)
    assert len(merged.segments) == 2
    assert merged.segments[0].t_end == pytest.approx(0.5)
    assert merged.segments[0].assignment == (0,)
    assert merged.segments[1].assignment == (1,)
    for t in (0.1, 0.5, 0.9):
        assert timeline_cost(merged, t) == pytest.approx(min(t * t, (t - 1) ** 2))

    same = merge_lower_envelope(a, a)
    for t in (0.0, 0.3, 1.0):
        assert timeline_cost(same, t) == pytest.approx(t * t)

    lowc = single(0.0, 0.0, 1.0)
    highc = SolutionTimeline((seg(0.0, 1.0, 0.0, 0.0, 2.0, tag=1),))
    dom = merge_lower_envelope(lowc, highc)
    assert all(s.assignment == (0,) for s in dom.segments)


def test_merge_keeps_first_argument_on_ties():
    a = single(1.0, 0.0, 0.0)
    b = SolutionTimeline((seg(0.0, 1.0, 1.0, 0.0, 0.0, tag=1),))
    merged = merge_lower_envelope(a, b)
    assert all(s.assignment == (0,) for s in merged.segments)


def random_timeline(rng: Random, tag: int) -> SolutionTimeline:
    cuts = sorted(rng.uniform(0.05, 0.95) for _ in range(rng.randrange(0, 4)))
    bounds = [0.0] + cuts + [1.0]
    segs = []
    for i, (x, y) in enumerate(zip(bounds, bounds[1:])):
        a = rng.uniform(0.0, 30.0)
        b = rng.uniform(-40.0, 40.0)
        c = rng.uniform(0.0, 50.0)
        segs.append(seg(x, y, a, b, c, tag=tag * 100 + i))
    return SolutionTimeline(tuple(segs))


def test_merge_is_pointwise_min_random():
    rng = Random(5)
    for trial in range(60):
        a = random_timeline(rng, 1)
        b = random_timeline(rng, 2)
        merged = merge_lower_envelope(a, b)
        for i in range(200):
            t = i / 199
            want = min(timeline_cost(a, t), timeline_cost(b, t))
            got = timeline_cost(merged, t)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (trial, t)


def test_merge_commutative_and_associative_pointwise():
    rng = Random(17)
    for _ in range(20):
        a, b, c = (random_timeline(rng, k) for k in range(3))
        ab = merge_lower_envelope(a, b)
        ba = merge_lower_envelope(b, a)
        abc = merge_lower_envelope(ab, c)
        bca = merge_lower_envelope(merge_lower_envelope(b, c), a)
        for i in range(100):
            t = i / 99
            assert timeline_cost(ab, t) == pytest.approx(timeline_cost(ba, t), rel=1e-9, abs=1e-9)
            assert timeline_cost(abc, t) == pytest.approx(timeline_cost(bca, t), rel=1e-9, abs=1e-9)


def test_merge_output_contiguous():
    rng = Random(23)
    for _ in range(40):
        merged = merge_lower_envelope(random_timeline(rng, 1), random_timeline(rng, 2))
        assert merged.segments[0].t_start == 0.0
        assert merged.segments[-1].t_end == 1.0
        for prev, cur in zip(merged.segments, merged.segments[1:]):
            assert prev.t_end == cur.t_start


def test_merge_partial_keeps_full_outside_window():
    rng = Random(31)
    for _ in range(20):
        full = random_timeline(rng, 1)
        lo, mid, hi = sorted(rng.uniform(0.05, 0.95) for _ in range(3))
        part = SolutionTimeline((seg(lo, mid, rng.uniform(0.0, 30.0), rng.uniform(-40.0, 40.0),
                                     rng.uniform(0.0, 50.0), tag=200),
                                 seg(mid, hi, rng.uniform(0.0, 30.0), rng.uniform(-40.0, 40.0),
                                     rng.uniform(0.0, 50.0), tag=201)))
        merged = merge_partial(full, part)
        assert merged.span == full.span
        for prev, cur in zip(merged.segments, merged.segments[1:]):
            assert prev.t_end is cur.t_start
        for i in range(200):
            t = i / 199
            if lo < t < hi:
                want = min(timeline_cost(full, t), timeline_cost(part, t))
            elif t < lo or t > hi:
                want = timeline_cost(full, t)
                assert segment_at(merged, t).assignment == segment_at(full, t).assignment
            else:
                continue
            assert timeline_cost(merged, t) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_merge_partial_over_the_full_span_is_the_lower_envelope():
    rng = Random(37)
    for _ in range(40):
        a = random_timeline(rng, 1)
        b = random_timeline(rng, 2)
        assert merge_partial(a, b).segments == merge_lower_envelope(a, b).segments
    with pytest.raises(ValueError):
        merge_lower_envelope(a, SolutionTimeline((seg(0.0, 0.5, 1.0, 0.0, 0.0),)))


def test_argmax_skips_excluded_times():
    two = SolutionTimeline((seg(0.0, 0.5, 0.0, 0.0, 4.0), seg(0.5, 1.0, 1.0, 0.0, 0.0)))
    assert argmax_timeline(two) == (0.0, 4.0)
    assert argmax_timeline(two, excluded=[0.0]) == (0.5, 4.0)
    assert argmax_timeline(two, excluded=[0.0, 0.5]) == (1.0, 1.0)
    assert argmax_timeline(two, excluded=[0.0, 0.5, 1.0]) == (None, None)


def test_argmax_bounds_sampled_max():
    for seed in range(10):
        n, m = random_sizes(seed, 12, 4)
        inst = random_instance(n, m, seed)
        sol = nn_heuristic(inst, 0.0)
        segs = extend(sol.assignment, 0.0, "forward", 1.0, ImprovementFlags(), inst)
        tl = SolutionTimeline(tuple(segs))
        _, peak = argmax_timeline(tl)
        sampled = max(timeline_cost(tl, i / 9999) for i in range(10000))
        assert sampled <= peak + 1e-9 * max(1.0, abs(peak))
        assert peak <= sampled * (1 + 1e-3) + 1e-6  # endpoints are sampled densely


coeff = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(coeff, coeff, coeff, coeff, coeff, coeff, st.integers(0, 99))
def test_merge_single_segments_is_pointwise_min(a2, a1, a0, b2, b1, b0, i):
    a = SolutionTimeline((seg(0.0, 1.0, abs(a2), a1, abs(a0), tag=0),))
    b = SolutionTimeline((seg(0.0, 1.0, abs(b2), b1, abs(b0), tag=1),))
    merged = merge_lower_envelope(a, b)
    t = i / 99
    want = min(timeline_cost(a, t), timeline_cost(b, t))
    assert timeline_cost(merged, t) == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.xfail(strict=True, reason="merge_lower_envelope keeps b, the higher timeline, "
                                      "over all of [0, 1]")
def test_merge_keeps_the_lower_of_two_near_tangent_timelines():
    """A falsifying example of the property above, fixed: a = 0 and
    b = t**2 - 5.960464477539063e-08 t + 7.933232404264173e-13, one
    segment each over [0, 1].  b is above a everywhere (its minimum is
    about 7.9e-13), yet the merge returns b alone, which reads 1.02e-4 at
    t = 1/99 where a reads 0."""
    a = SolutionTimeline((seg(0.0, 1.0, 0.0, 0.0, 0.0, tag=0),))
    b = SolutionTimeline((seg(0.0, 1.0, 1.0, -5.960464477539063e-08, 7.933232404264173e-13,
                              tag=1),))
    merged = merge_lower_envelope(a, b)
    assert timeline_cost(merged, 1 / 99) == 0.0


def test_merge_settles_a_float_tie_at_the_far_end():
    # 1e-9 * (t + 1) is within the float tolerance of 0 at t = 0 (value and
    # slope alike) but above it by t = 1, so b is the cheaper one throughout.
    a = SolutionTimeline((seg(0.0, 1.0, 0.0, 1e-9, 1e-9, tag=0),))
    b = SolutionTimeline((seg(0.0, 1.0, 0.0, 0.0, 0.0, tag=1),))
    merged = merge_lower_envelope(a, b)
    assert [s.assignment for s in merged.segments] == [(1,)]
    assert timeline_cost(merged, 1 / 99) == 0.0


def test_timeline_contiguity_validation():
    with pytest.raises(ValueError):
        SolutionTimeline((seg(0.0, 0.4, 1, 0, 0), seg(0.6, 1.0, 1, 0, 0)))
    with pytest.raises(ValueError):
        SolutionTimeline(())
