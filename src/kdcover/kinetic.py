"""Event-driven extension of a stationary assignment over time.

Keeping an assignment fixed, each station's radius follows its farthest
assigned object (the support).  Supports swap when two assigned objects
become equidistant from their station; with the handover improvement
(imp_ext) a station may also pass its support object to another station
at the moment the transfer leaves total cost unchanged and the cost
strictly decreases afterwards.  With the duplicate-coverage improvement
(no_dup) supports already inside another disk are handed over at every
event (`dedup_improve`).

`_Extender` is the one event engine: `iter_extend` and `extend` walk its
events from an anchor time toward a stop time, caching each station's next
event and invalidating caches only when the affected station changes.
The engine is written once for float and exact coordinates; every
tolerance lives in the `geometry` predicates it calls (`compare_event_times`,
`compare_values`, `sign_ahead`).  `check_feasible` samples a finished
timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .envelope import Assignment, TimelineSegment
from .geometry import (
    MovingInstance,
    QuadraticPoly,
    ZERO_POLY,
    compare_event_times,
    compare_values,
    quadratic_roots,
    sign_ahead,
    squared_distance_poly,
)

__all__ = [
    "ImprovementFlags",
    "FeasibilityReport",
    "dedup_improve",
    "extend",
    "iter_extend",
    "check_feasible",
]

# Largest relative violation `check_feasible` accepts.
FEASIBILITY_TOL = 1e-7


@dataclass(frozen=True)
class ImprovementFlags:
    """The three optional improvement strategies.

    no_dup: reassign support objects already covered by another disk.
    imp_ext: emit pairwise handover events during extension.
    part_ext: stop re-extension at the first crossing with the incumbent
    (consumed by the min-max driver, not by `extend` itself).
    """

    no_dup: bool = False
    imp_ext: bool = False
    part_ext: bool = False


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    worst_violation: float
    worst_time: float | None = None
    worst_object: int | None = None


class _Extender:
    """State machine for one extension run.

    Holds the distance polynomials, the mutable assignment, per-station
    member lists and supports, and the event caches.  One instance serves a
    single directional sweep; forward and backward sweeps of an anchor use
    separate instances.
    """

    def __init__(self, instance: MovingInstance, assignment: Assignment, direction: int):
        self.instance = instance
        self.direction = direction  # +1 forward, -1 backward
        self.polys = [
            [squared_distance_poly(st, obj) for obj in instance.objects]
            for st in instance.stations
        ]
        self.assignment = list(assignment)
        self.members: list[list[int]] = [[] for _ in instance.stations]
        for j, s in enumerate(self.assignment):
            self.members[s].append(j)
        self.supports: list[Optional[int]] = [None] * instance.m

    # -- state helpers ----------------------------------------------------

    def _tie_group(self, station: int, t) -> list[int]:
        objs = self.members[station]
        if not objs:
            return []
        vals = [(self.polys[station][o](t), o) for o in objs]
        vmax = max(v for v, _ in vals)
        return [o for v, o in vals if compare_values(v, vmax) >= 0]

    def _pick_support(self, station: int, t) -> Optional[int]:
        group = self._tie_group(station, t)
        if not group:
            return None
        if len(group) == 1:
            return group[0]
        return self._resolve(station, group, t)

    def _resolve(self, station: int, group: list[int], t) -> int:
        """Support among equidistant objects: the one growing fastest in the
        travel direction, then the larger curvature, then the lower index."""
        best = None
        best_key = None
        for o in group:
            p = self.polys[station][o]
            key = (self.direction * p.derivative_at(t), p.a)
            if best is None or key > best_key or (key == best_key and o < best):
                best, best_key = o, key
        return best

    def refresh_supports(self, t):
        for s in range(self.instance.m):
            self.supports[s] = self._pick_support(s, t)

    def objective_poly(self) -> QuadraticPoly:
        poly = ZERO_POLY
        for s, sup in enumerate(self.supports):
            if sup is not None:
                poly = poly + self.polys[s][sup]
        return poly

    # -- event scanning ---------------------------------------------------

    def _ahead(self, t, cursor) -> bool:
        return compare_event_times(t, cursor) * self.direction > 0

    def _travel_sorted(self, times):
        return sorted(times, reverse=(self.direction < 0))

    def _window(self, cursor, t_stop):
        return (cursor, t_stop) if self.direction > 0 else (t_stop, cursor)

    def support_change_after(self, station: int, cursor, t_stop):
        """Earliest time strictly ahead of the cursor at which some other
        assigned object overtakes the station's current support."""
        sup = self.supports[station]
        if sup is None or len(self.members[station]) < 2:
            return None
        lo, hi = self._window(cursor, t_stop)
        p_sup = self.polys[station][sup]
        best = None
        for o in self.members[station]:
            if o == sup:
                continue
            diff = self.polys[station][o] - p_sup
            result = quadratic_roots(diff, lo, hi)
            if result.identically_zero:
                continue  # equidistant for all time: tie, not an event
            for root in self._travel_sorted(result.times):
                if not self._ahead(root, cursor):
                    continue
                if best is not None and not self._ahead(best, root):
                    break
                if sign_ahead(diff, root, self.direction) > 0:
                    best = root
                    break
        return best

    def apply_support_change(self, station: int, t) -> None:
        self.supports[station] = self._pick_support(station, t)

    def _second_support(self, station: int, t) -> Optional[int]:
        sup = self.supports[station]
        rest = [o for o in self.members[station] if o != sup]
        if not rest:
            return None
        best = None
        best_v = None
        for o in rest:
            v = self.polys[station][o](t)
            if best_v is None or v > best_v or (v == best_v and o < best):
                best, best_v = o, v
        return best

    def _handover_polys(self, s1: int, s2: int, cursor):
        b = self.supports[s1]
        if b is None:
            return None
        a2 = self._second_support(s1, cursor)
        c = self.supports[s2]
        p_a = self.polys[s1][a2] if a2 is not None else ZERO_POLY
        p_c = self.polys[s2][c] if c is not None else ZERO_POLY
        before = self.polys[s1][b] + p_c
        after = p_a + self.polys[s2][b]
        return b, before, after

    def handover_after(self, s1: int, s2: int, cursor, t_stop):
        """Earliest strict-improvement handover of s1's support to s2."""
        setup = self._handover_polys(s1, s2, cursor)
        if setup is None:
            return None
        b, before, after = setup
        diff = before - after
        lo, hi = self._window(cursor, t_stop)
        result = quadratic_roots(diff, lo, hi)
        if result.identically_zero:
            return None
        for root in self._travel_sorted(result.times):
            if not self._ahead(root, cursor):
                continue
            if sign_ahead(diff, root, self.direction) > 0:
                return (root, b)
        return None

    def handover_still_improves(self, s1: int, s2: int, obj: int, t) -> bool:
        """Re-check a cached handover against the live state at its time.

        Support structure may have drifted since the event was computed (the
        second-furthest object of s1 can change without an event); a stale
        event must not be applied unless it still does not increase cost.
        """
        setup = self._handover_polys(s1, s2, t)
        if setup is None or setup[0] != obj:
            return False
        _, before, after = setup
        return compare_values(after(t), before(t)) <= 0

    def apply_handover(self, s1: int, s2: int, obj: int, t) -> None:
        self.members[s1].remove(obj)
        self.members[s2].append(obj)
        self.assignment[obj] = s2
        self.supports[s1] = self._pick_support(s1, t)
        self.supports[s2] = self._pick_support(s2, t)

    def apply_dedup(self, t) -> list[int]:
        """Run the duplicate-coverage improvement in place; returns the
        stations whose assignments changed."""
        new_assignment = dedup_improve(tuple(self.assignment), t, self.instance)
        touched = set()
        for j, (old, new) in enumerate(zip(self.assignment, new_assignment)):
            if old != new:
                touched.add(old)
                touched.add(new)
                self.members[old].remove(j)
                self.members[new].append(j)
                self.assignment[j] = new
        for s in touched:
            self.supports[s] = self._pick_support(s, t)
        return sorted(touched)


def dedup_improve(assignment: Assignment, t, instance: MovingInstance) -> Assignment:
    """While some station's support object lies inside another station's
    disk, hand that support to the covering station (the first station's
    radius then shrinks to its next-furthest object).  Never increases cost
    at time t; idempotent at its fixpoint."""
    n, m = instance.n, instance.m
    if n == 0:
        return tuple(assignment)
    stations, objects = instance.stations, instance.objects
    positions: list = [None] * n
    table: list[list] = [[None] * n for _ in range(m)]

    def d2(s, o):
        """Squared distance at t, computed on first read; the arithmetic is
        that of `Trajectory.at` followed by the coordinate differences."""
        v = table[s][o]
        if v is None:
            p = positions[o]
            if p is None:
                tr = objects[o]
                p = positions[o] = (
                    tr.start.x + t * (tr.end.x - tr.start.x),
                    tr.start.y + t * (tr.end.y - tr.start.y),
                )
            st = stations[s]
            dx, dy = st.x - p[0], st.y - p[1]
            v = table[s][o] = dx * dx + dy * dy
        return v

    assign = list(assignment)
    members: list[list[int]] = [[] for _ in range(m)]
    for j, s in enumerate(assign):
        members[s].append(j)

    def support_of(s):
        if not members[s]:
            return None
        return max(members[s], key=lambda o: (d2(s, o), -o))

    radius = [0] * m
    sup = [support_of(s) for s in range(m)]
    for s in range(m):
        if sup[s] is not None:
            radius[s] = d2(s, sup[s])

    for _ in range(n * m + m):
        moved = False
        for s in range(m):
            o = sup[s]
            if o is None or radius[s] == 0:
                continue
            best = None
            for s2 in range(m):
                if s2 == s or radius[s2] == 0:
                    continue
                d = d2(s2, o)
                if compare_values(d, radius[s2]) <= 0 and (best is None or (d, s2) < best):
                    best = (d, s2)
            if best is None:
                continue
            s2 = best[1]
            members[s].remove(o)
            members[s2].append(o)
            assign[o] = s2
            sup[s] = support_of(s)
            radius[s] = d2(s, sup[s]) if sup[s] is not None else 0
            sup[s2] = support_of(s2)
            radius[s2] = d2(s2, sup[s2])
            moved = True
            break
        if not moved:
            break
    return tuple(assign)


def iter_extend(
    assignment: Assignment,
    t_anchor,
    direction: str,
    t_stop,
    flags: ImprovementFlags,
    instance: MovingInstance,
) -> Iterator[TimelineSegment]:
    """Generate constant-assignment segments from the anchor toward t_stop.

    Segment boundaries are support changes (always) and handovers (with
    imp_ext); with no_dup the duplicate-coverage improvement runs at the
    anchor and at every event time.  Segments are yielded in travel order;
    backward sweeps yield segments whose t_start/t_end are still ascending.
    """
    dir_sign = 1 if direction == "forward" else -1
    ext = _Extender(instance, assignment, dir_sign)
    cursor = t_anchor
    if flags.no_dup and instance.n:
        ext.apply_dedup(cursor)
    ext.refresh_supports(cursor)
    if instance.n == 0 or compare_event_times(t_anchor, t_stop) == 0:
        a, b = (t_anchor, t_stop) if dir_sign > 0 else (t_stop, t_anchor)
        yield TimelineSegment(a, b, tuple(ext.assignment), tuple(ext.supports), ext.objective_poly())
        return

    m = instance.m
    sc_cache: dict[int, object] = {}
    ho_cache: dict[tuple[int, int], object] = {}
    pairs = [(s1, s2) for s1 in range(m) for s2 in range(m) if s1 != s2] if flags.imp_ext else []

    def invalidate(stations):
        for s in stations:
            sc_cache.pop(s, None)
        if flags.imp_ext:
            for pair in list(ho_cache):
                if pair[0] in stations or pair[1] in stations:
                    del ho_cache[pair]

    def make_segment(start, end):
        a, b = (start, end) if dir_sign > 0 else (end, start)
        return TimelineSegment(a, b, tuple(ext.assignment), tuple(ext.supports), ext.objective_poly())

    while True:
        for s in range(m):
            if s not in sc_cache:
                sc_cache[s] = ext.support_change_after(s, cursor, t_stop)
        for pair in pairs:
            if pair not in ho_cache:
                found = ext.handover_after(*pair, cursor, t_stop)
                ho_cache[pair] = found

        def tie_key(kind, ident):
            return (kind,) + (ident if isinstance(ident, tuple) else (ident,))

        best = None  # (time, kind, ident, payload); kind 0 = support change
        candidates = [(t, 0, s, None) for s in range(m) if (t := sc_cache[s]) is not None]
        candidates += [
            (found[0], 1, pair, found[1])
            for pair in pairs
            if (found := ho_cache[pair]) is not None
        ]
        for cand in candidates:
            if best is None:
                best = cand
                continue
            c = compare_event_times(cand[0], best[0])
            if c * dir_sign < 0 or (
                c == 0 and tie_key(cand[1], cand[2]) < tie_key(best[1], best[2])
            ):
                best = cand

        if best is None:
            yield make_segment(cursor, t_stop)
            return
        t_ev, kind, ident, payload = best
        if kind == 1:
            s1, s2 = ident
            if not ext.handover_still_improves(s1, s2, payload, t_ev):
                ho_cache[ident] = ext.handover_after(s1, s2, t_ev, t_stop)
                continue
        yield make_segment(cursor, t_ev)
        cursor = t_ev
        if compare_event_times(cursor, t_stop) == 0:
            return  # event at the window edge: no trailing empty segment
        if kind == 0:
            ext.apply_support_change(ident, t_ev)
            touched = {ident}
        else:
            s1, s2 = ident
            ext.apply_handover(s1, s2, payload, t_ev)
            touched = {s1, s2}
        if flags.no_dup:
            touched.update(ext.apply_dedup(t_ev))
        invalidate(touched)


def extend(
    assignment: Assignment,
    t_anchor,
    direction: str,
    t_stop,
    flags: ImprovementFlags,
    instance: MovingInstance,
) -> list[TimelineSegment]:
    """Materialized `iter_extend`, in ascending time order."""
    segments = list(iter_extend(assignment, t_anchor, direction, t_stop, flags, instance))
    if direction == "backward":
        segments.reverse()
    return segments


def check_feasible(
    segments, instance: MovingInstance, sample_count: int = 1000
) -> FeasibilityReport:
    """Sample the segments uniformly and verify that every object sits inside
    its assigned station's disk (radius taken from the segment supports).

    The reported violation is relative: (d2 - r2) / max(r2, 1), and the
    timeline passes when it is at most `FEASIBILITY_TOL`.  A sample count
    below 1 is an error: it would check nothing.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    segments = list(segments)
    if not segments:
        return FeasibilityReport(True, 0.0)
    if instance.n == 0:
        return FeasibilityReport(True, 0.0)
    lo = float(segments[0].t_start)
    hi = float(segments[-1].t_end)
    polys = [
        [squared_distance_poly(st, obj) for obj in instance.objects]
        for st in instance.stations
    ]
    worst = 0.0
    worst_t = None
    worst_obj = None
    k = 0
    for i in range(sample_count):
        t = lo + (hi - lo) * i / (sample_count - 1) if sample_count > 1 else lo
        while k + 1 < len(segments) and float(segments[k].t_end) < t:
            k += 1
        seg = segments[k]
        radius = [0.0] * instance.m
        for s, sup in enumerate(seg.supports):
            if sup is not None:
                radius[s] = float(polys[s][sup](t))
        for j, s in enumerate(seg.assignment):
            d2 = float(polys[s][j](t))
            violation = (d2 - radius[s]) / max(radius[s], 1.0)
            if violation > worst:
                worst, worst_t, worst_obj = violation, t, j
    return FeasibilityReport(worst <= FEASIBILITY_TOL, worst, worst_t, worst_obj)
