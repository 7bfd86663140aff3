"""Piecewise-quadratic solution timelines over a time window.

A timeline is a contiguous list of segments, each holding a constant
object-to-station assignment, the per-station support objects, and the
segment's objective polynomial.  Solver-produced timelines store the
objective as the sum of squared support radii (area / pi) so exact mode
keeps rational coefficients; the functions here are unit-agnostic and
evaluate whatever polynomial a segment carries.

`merge_partial` is the one lower-envelope routine: it folds a timeline over
any window of another into it, and `merge_lower_envelope` is its case of
two timelines over the same span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .geometry import (QuadraticPoly, _double, compare_event_times, quadratic_roots,
                       sign_ahead, value_bound)

__all__ = [
    "Assignment",
    "TimelineSegment",
    "SolutionTimeline",
    "timeline_cost",
    "segment_at",
    "argmax_timeline",
    "merge_partial",
    "merge_lower_envelope",
]

Assignment = tuple[int, ...]


@dataclass(frozen=True)
class TimelineSegment:
    """Maximal interval with a fixed assignment.

    `supports[i]` is the object defining station i's radius (None when the
    station has no assigned objects), and `poly` evaluated anywhere in the
    segment equals the sum over stations of the support's squared distance.
    """

    t_start: object
    t_end: object
    assignment: Assignment
    supports: tuple[Optional[int], ...]
    poly: QuadraticPoly


@dataclass(frozen=True)
class SolutionTimeline:
    """Contiguous segments; `value` is the peak objective over the span."""

    segments: tuple[TimelineSegment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("timeline needs at least one segment")
        prev = self.segments[0]
        for seg in self.segments[1:]:
            if compare_event_times(prev.t_end, seg.t_start) != 0:
                raise ValueError(
                    f"gap or overlap between segments at {prev.t_end!r} / {seg.t_start!r}"
                )
            prev = seg
        object.__setattr__(self, "value", argmax_timeline(self)[1])

    @property
    def span(self):
        return self.segments[0].t_start, self.segments[-1].t_end


def segment_at(timeline: SolutionTimeline, t) -> TimelineSegment:
    """Covering segment for t; at a shared boundary the later segment wins
    (an assignment change may drop the objective discontinuously)."""
    lo, hi = timeline.span
    if compare_event_times(t, lo) < 0 or compare_event_times(t, hi) > 0:
        raise ValueError(f"time {t!r} outside timeline span [{lo!r}, {hi!r}]")
    for seg in reversed(timeline.segments):
        if compare_event_times(seg.t_start, t) <= 0:
            return seg
    return timeline.segments[0]


def timeline_cost(timeline: SolutionTimeline, t):
    """Objective of the covering segment at t."""
    return segment_at(timeline, t).poly(t)


def argmax_timeline(timeline: SolutionTimeline, excluded=()) -> tuple:
    """Peak (t, value) over the segment endpoints whose time is not in
    `excluded`, or (None, None) when every endpoint is excluded.

    Every segment objective opens upward, so only segment endpoints are
    inspected; ties resolve to the smallest t.

    A timeline with exact coefficients is filtered first: each endpoint's
    value is bounded by `value_bound` on the doubles of its coefficients
    and time, and only the endpoints whose upper bound reaches the largest
    lower bound are evaluated exactly, in the same order and with the same
    strict test (`_near_peak`).  Every endpoint left out is strictly below
    one of those, so the peak and its tie-break are those of evaluating
    every endpoint.
    """
    ends = [(t, seg.poly) for seg in timeline.segments for t in (seg.t_start, seg.t_end)
            if not (excluded and any(compare_event_times(t, ex) == 0 for ex in excluded))]
    if ends and not isinstance(ends[0][1].a, float):
        ends = _near_peak(ends)
    best_t = None
    best_v = None
    for t, p in ends:
        v = p(t)
        if best_v is None or v > best_v:
            best_t, best_v = t, v
    return best_t, best_v


def _near_peak(ends) -> list:
    """The (t, poly) endpoints, in order, whose `value_bound` upper bound
    reaches the largest lower bound."""
    bounds, last = [], None
    for t, p in ends:
        if p is not last:  # a segment's two endpoints share its coefficients
            last = p
            coefs = (_double(p.a), _double(p.b), _double(p.c))
        bounds.append(value_bound(coefs, float(t)))
    floor = max([v - e for v, e in bounds])
    return [end for end, (v, e) in zip(ends, bounds) if v + e >= floor]


def _clip(segments, lo, hi) -> list[TimelineSegment]:
    """The segments restricted to [lo, hi]; pieces left empty are dropped."""
    out = []
    for seg in segments:
        if compare_event_times(seg.t_start, hi) >= 0:
            break
        s = lo if compare_event_times(seg.t_start, lo) < 0 else seg.t_start
        e = hi if compare_event_times(seg.t_end, hi) > 0 else seg.t_end
        if compare_event_times(s, e) < 0:
            out.append(TimelineSegment(s, e, seg.assignment, seg.supports, seg.poly))
    return out


def _merge_core(a_segments, b_segments) -> list[TimelineSegment]:
    """Pointwise-minimum scan over two segment lists covering the same span."""
    out: list[TimelineSegment] = []
    i = j = 0
    u = a_segments[0].t_start

    def emit(x, y, seg_src):
        if out and out[-1].poly == seg_src.poly and out[-1].assignment == seg_src.assignment \
                and out[-1].supports == seg_src.supports:
            prev = out[-1]
            out[-1] = TimelineSegment(prev.t_start, y, prev.assignment, prev.supports, prev.poly)
        else:
            out.append(TimelineSegment(x, y, seg_src.assignment, seg_src.supports, seg_src.poly))

    while i < len(a_segments) and j < len(b_segments):
        sa, sb = a_segments[i], b_segments[j]
        v = sa.t_end if compare_event_times(sa.t_end, sb.t_end) <= 0 else sb.t_end
        if compare_event_times(u, v) < 0:
            a, b, c = sa.poly.a - sb.poly.a, sa.poly.b - sb.poly.b, sa.poly.c - sb.poly.c
            cuts = [r for r in quadratic_roots(a, b, c, u, v)
                    if compare_event_times(r, u) > 0 and compare_event_times(r, v) < 0]
            pieces = [u] + cuts + [v]
            for x, y in zip(pieces, pieces[1:]):
                if compare_event_times(x, y) >= 0:
                    continue
                # the difference keeps one sign inside the piece; a float tie at x
                # (within tolerance) is settled at the far end y.
                s = sign_ahead(a, b, c, x) or sign_ahead(a, b, c, y, -1)
                emit(x, y, sa if s <= 0 else sb)
        u = v
        if compare_event_times(sa.t_end, v) <= 0:
            i += 1
        if compare_event_times(sb.t_end, v) <= 0:
            j += 1
    return out


def merge_partial(full: SolutionTimeline, part: SolutionTimeline) -> SolutionTimeline:
    """Lower envelope of `full` with `part`, whose span lies inside full's.

    Outside part's window `full` is copied, clipped at the window edges;
    inside, the pointwise minimum is taken and ties keep `full`'s
    assignment.  The result spans exactly full's span, and each segment
    starts exactly where the one before it ends.
    """
    flo, fhi = full.span
    plo, phi = part.span
    pieces = (_clip(full.segments, flo, plo)
              + _merge_core(_clip(full.segments, plo, phi), part.segments)
              + _clip(full.segments, phi, fhi))
    out = []
    start = flo
    for k, seg in enumerate(pieces):
        end = fhi if k == len(pieces) - 1 else seg.t_end
        out.append(TimelineSegment(start, end, seg.assignment, seg.supports, seg.poly))
        start = end
    return SolutionTimeline(tuple(out))


def merge_lower_envelope(a: SolutionTimeline, b: SolutionTimeline) -> SolutionTimeline:
    """Pointwise minimum of two timelines over the same span.

    The result carries the assignment of the cheaper input everywhere; on
    subintervals where the two agree identically, the first argument wins.
    """
    alo, ahi = a.span
    blo, bhi = b.span
    if compare_event_times(alo, blo) != 0 or compare_event_times(ahi, bhi) != 0:
        raise ValueError("merge requires timelines over the same span")
    return merge_partial(a, b)
