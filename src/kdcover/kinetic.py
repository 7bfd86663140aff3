"""Event-driven extension of a stationary assignment over time.

Keeping an assignment fixed, each station's radius follows its farthest
assigned object (the support).  Supports swap when two assigned objects
become equidistant from their station; with the handover improvement
(imp_ext) a station may also pass its support object to another station
at the moment the transfer leaves total cost unchanged and the cost
strictly decreases afterwards.  With the duplicate-coverage improvement
(no_dup) supports already inside another disk are handed over at every
event (`apply_dedup`; `dedup_improve` runs it once, at one time).

`_Extender` is the one event engine: `iter_extend` and `extend` walk its
events from an anchor time toward a stop time.  The engine keeps its state
across events and recomputes only what an event touched:

- distance rows: each station-object squared-distance polynomial is built
  on its first read (`DistanceRow`) and kept;
- supports: re-picked for the stations an event touched;
- runner-ups: a station's largest non-support object is scanned at most
  once per cursor and dropped when that station changes;
- support changes: rescanned for the touched stations, except that a
  station which only gained members resumes its scan at the new members;
- handovers: a pair involving a touched station keeps its queued time when
  its inputs (s1's support and runner-up, s2's support) are unchanged and
  the time is still ahead of the cursor; pairs away from the touched
  stations stay stale and are re-checked before they are applied;
- duplicate coverage (`apply_dedup`): a station whose support is clear of
  its runner-up keeps it, and only the others are rescanned from the
  objects' positions;
- the next event: one queue (`_EventQueue`) in place of a scan over every
  cached event.

The engine is written once for float and exact coordinates; every
tolerance lives in the `geometry` predicates it calls (`compare_event_times`,
`compare_values` with its `tolerance_band`, `sign_ahead`).  `check_feasible`
samples a finished timeline.
"""

from __future__ import annotations

import heapq
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
    tolerance_band,
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

# Event kinds; the lower kind wins a tie in time.
SUPPORT_CHANGE, HANDOVER = 0, 1


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


class DistanceRow(dict):
    """Squared-distance polynomials from one station to the objects, keyed
    by object index; each is built on its first read."""

    __slots__ = ("station", "objects")

    def __init__(self, station, objects):
        super().__init__()
        self.station = station
        self.objects = objects

    def __missing__(self, obj: int) -> QuadraticPoly:
        poly = self[obj] = squared_distance_poly(self.station, self.objects[obj])
        return poly


def distance_rows(instance: MovingInstance) -> list[DistanceRow]:
    return [DistanceRow(st, instance.objects) for st in instance.stations]


class _EventQueue:
    """The queued next event of every support change and handover pair.

    Entries sit in a heap keyed by their time as a float, in travel order;
    an entry whose event was replaced since is skipped, and the heap is
    rebuilt from the live entries when skipped ones pile up.

    `next` returns the event that a scan of every live event in (kind,
    ident) order picks when it takes each event strictly earlier, under
    `compare_event_times`, than the one it holds: the earliest event, then
    the lowest (kind, ident).  That choice only depends on the chain of
    entries whose keys compare equal one after the other, starting at the
    smallest key.  Every other key lies beyond the tolerance from all chain
    keys, so its event is strictly later than every chain event, and the
    scan takes the first chain entry it meets and never lets go of the
    chain.
    """

    def __init__(self, direction: int):
        self.direction = direction
        self.heap: list = []
        self.live: dict = {}  # (kind, ident) -> (time, payload, its heap item)

    def set(self, kind: int, ident, time, payload=None) -> None:
        """Queue `time` as the next event of (kind, ident), or nothing for
        None, replacing what was queued."""
        if time is None:
            self.live.pop((kind, ident), None)
            return
        item = (self.direction * float(time), kind, ident)
        self.live[(kind, ident)] = (time, payload, item)
        heapq.heappush(self.heap, item)
        if len(self.heap) > 4 * len(self.live) + 64:
            self.heap = [entry[2] for entry in self.live.values()]
            heapq.heapify(self.heap)

    def get(self, kind: int, ident):
        entry = self.live.get((kind, ident))
        return None if entry is None else entry[0]

    def next(self):
        """(time, kind, ident, payload) of the next event, or None."""
        heap, live = self.heap, self.live
        chain = []
        while heap:
            item = heap[0]
            entry = live.get((item[1], item[2]))
            if entry is None or entry[2] is not item:
                heapq.heappop(heap)
                continue
            if chain and compare_event_times(item[0], chain[-1][0]) != 0:
                break
            chain.append(heapq.heappop(heap))
        for item in chain:
            heapq.heappush(heap, item)
        best = None
        for _, kind, ident in sorted(chain, key=lambda item: item[1:]):
            t = live[(kind, ident)][0]
            if best is None or compare_event_times(t, best[0]) * self.direction < 0:
                best = (t, kind, ident)
        if best is None:
            return None
        t, kind, ident = best
        return t, kind, ident, live[(kind, ident)][1]


class _Extender:
    """State machine for one extension run.

    Holds the distance rows, the mutable assignment, per-station member
    lists, supports and runner-ups, and the event queue with the inputs of
    each cached handover.  One instance serves a single directional sweep;
    forward and backward sweeps of an anchor use separate instances.
    """

    def __init__(self, instance: MovingInstance, assignment: Assignment, direction: int,
                 t_stop, flags: ImprovementFlags):
        self.instance = instance
        self.direction = direction  # +1 forward, -1 backward
        self.t_stop = t_stop
        self.flags = flags
        self.polys = distance_rows(instance)
        self.assignment = list(assignment)
        self.members: list[list[int]] = [[] for _ in instance.stations]
        for j, s in enumerate(self.assignment):
            self.members[s].append(j)
        self.supports: list[Optional[int]] = [None] * instance.m
        self.runner: dict[int, Optional[int]] = {}  # runner-ups at `runner_time`
        self.runner_time = None
        self.removals = [0] * instance.m  # objects each station has given up
        # Inputs and cursor each queued event was computed from (plus, for
        # support changes, the number of members scanned).
        self.change_inputs: dict = {}
        self.handover_inputs: dict = {}
        self.queue = _EventQueue(direction)

    # -- state helpers ----------------------------------------------------

    def _tie_group(self, station: int, t) -> list[int]:
        objs = self.members[station]
        if not objs:
            return []
        # p(t) written out, as in QuadraticPoly.__call__
        vals = [(p.a * t + p.b) * t + p.c for p in map(self.polys[station].__getitem__, objs)]
        vmax = max(vals)
        lo = tolerance_band(vmax)[0]
        return [o for v, o in zip(vals, objs) if v >= lo and compare_values(v, vmax) >= 0]

    def _pick_support(self, station: int, t) -> None:
        group = self._tie_group(station, t)
        if not group:
            sup = None
        elif len(group) == 1:
            sup = group[0]
        else:
            sup = self._resolve(station, group, t)
        self.supports[station] = sup
        self.runner.pop(station, None)

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

    def objective_poly(self) -> QuadraticPoly:
        poly = ZERO_POLY
        for s, sup in enumerate(self.supports):
            if sup is not None:
                poly = poly + self.polys[s][sup]
        return poly

    def _move(self, obj: int, s1: int, s2: int) -> None:
        self.members[s1].remove(obj)
        self.removals[s1] += 1
        self.members[s2].append(obj)
        self.assignment[obj] = s2

    # -- event scanning ---------------------------------------------------

    def _ahead(self, t, cursor) -> bool:
        return compare_event_times(t, cursor) * self.direction > 0

    def _not_behind(self, t, ref) -> bool:
        """t is at or ahead of ref in the travel direction, compared raw."""
        return t >= ref if self.direction > 0 else t <= ref

    def _travel_sorted(self, times):
        return sorted(times, reverse=(self.direction < 0))

    def _window(self, cursor):
        return (cursor, self.t_stop) if self.direction > 0 else (self.t_stop, cursor)

    def support_change_after(self, station: int, cursor, objs=None, best=None):
        """Earliest time strictly ahead of the cursor at which some other
        assigned object overtakes the station's current support.

        `objs` and `best` resume a scan: the members still to look at, and
        the result over the members before them."""
        sup = self.supports[station]
        if sup is None or len(self.members[station]) < 2:
            return None
        lo, hi = self._window(cursor)
        row = self.polys[station]
        p_sup = row[sup]
        for o in self.members[station] if objs is None else objs:
            if o == sup:
                continue
            diff = row[o] - p_sup
            roots = quadratic_roots(diff, lo, hi)
            if not roots:
                continue  # no crossing, or equidistant for all time: a tie
            for root in self._travel_sorted(roots):
                if not self._ahead(root, cursor):
                    continue
                if best is not None and not self._ahead(best, root):
                    break
                if sign_ahead(diff, root, self.direction) > 0:
                    best = root
                    break
        return best

    def _reusable(self, cached, kind: int, ident, inputs, cursor) -> bool:
        """Whether a queued event computed from `inputs` at a cursor, as
        recorded in `cached` = (inputs, cursor), is also the result at this
        cursor: the inputs are unchanged, the cursor has not moved back, and
        the queued time is still strictly ahead of it.  Roots are computed
        from the polynomial alone, so none can qualify between the two
        cursors without having been the queued time."""
        if cached is None or cached[0] != inputs or not self._not_behind(cursor, cached[1]):
            return False
        t_cached = self.queue.get(kind, ident)
        return t_cached is None or self._ahead(t_cached, cursor)

    def update_support_change(self, station: int, cursor) -> None:
        """Queue the station's next support change ahead of the cursor.

        Objects join a station at the end of its member list, so while the
        support and the removal count are unchanged the members are the ones
        last scanned plus appended ones, and the scan resumes from the
        queued time."""
        members = self.members[station]
        inputs = (self.supports[station], self.removals[station])
        cached = self.change_inputs.get(station)
        if self._reusable(cached, SUPPORT_CHANGE, station, inputs, cursor):
            t = self.support_change_after(station, cursor, members[cached[2]:],
                                          self.queue.get(SUPPORT_CHANGE, station))
        else:
            t = self.support_change_after(station, cursor)
        self.change_inputs[station] = (inputs, cursor, len(members))
        self.queue.set(SUPPORT_CHANGE, station, t)

    def _second_support(self, station: int, t) -> Optional[int]:
        """The station's largest non-support object at t (lowest index on a
        tie), scanned at most once per time and station."""
        if t is not self.runner_time:
            self.runner.clear()
            self.runner_time = t
        elif station in self.runner:
            return self.runner[station]
        sup = self.supports[station]
        rest = [o for o in self.members[station] if o != sup]
        best = None
        if rest:
            # p(t) written out, as in QuadraticPoly.__call__
            vals = [(p.a * t + p.b) * t + p.c for p in map(self.polys[station].__getitem__, rest)]
            best = -max(zip(vals, [-o for o in rest]))[1]
        self.runner[station] = best
        return best

    def _handover_inputs(self, s1: int, s2: int, t):
        """(s1's support, s1's runner-up, s2's support) at t, or None when
        s1 has no support."""
        b = self.supports[s1]
        if b is None:
            return None
        return b, self._second_support(s1, t), self.supports[s2]

    def _handover_polys(self, s1: int, s2: int, inputs):
        """Cost of s1 and s2 before and after s1's support moves to s2."""
        b, a2, c = inputs
        p_a = self.polys[s1][a2] if a2 is not None else ZERO_POLY
        p_c = self.polys[s2][c] if c is not None else ZERO_POLY
        before = self.polys[s1][b] + p_c
        after = p_a + self.polys[s2][b]
        return before, after

    def handover_after(self, s1: int, s2: int, inputs, cursor):
        """Earliest strict-improvement handover time of s1's support to s2
        ahead of the cursor."""
        before, after = self._handover_polys(s1, s2, inputs)
        diff = before - after
        lo, hi = self._window(cursor)
        for root in self._travel_sorted(quadratic_roots(diff, lo, hi)):
            if not self._ahead(root, cursor):
                continue
            if sign_ahead(diff, root, self.direction) > 0:
                return root
        return None

    def update_handover(self, s1: int, s2: int, cursor) -> None:
        """Queue the next handover of s1's support to s2 ahead of the
        cursor, recomputed only when its inputs changed."""
        pair = (s1, s2)
        inputs = self._handover_inputs(s1, s2, cursor)
        if inputs is None:
            self.handover_inputs.pop(pair, None)
            self.queue.set(HANDOVER, pair, None)
        elif not self._reusable(self.handover_inputs.get(pair), HANDOVER, pair, inputs, cursor):
            self.handover_inputs[pair] = (inputs, cursor)
            self.queue.set(HANDOVER, pair, self.handover_after(s1, s2, inputs, cursor), inputs[0])

    def handover_still_improves(self, s1: int, s2: int, obj: int, t) -> bool:
        """Re-check a cached handover against the live state at its time.

        Support structure may have drifted since the event was computed (the
        second-furthest object of s1 can change without an event); a stale
        event must not be applied unless it still does not increase cost.
        """
        inputs = self._handover_inputs(s1, s2, t)
        if inputs is None or inputs[0] != obj:
            return False
        before, after = self._handover_polys(s1, s2, inputs)
        return compare_values(after(t), before(t)) <= 0

    def apply_handover(self, s1: int, s2: int, obj: int, t) -> None:
        self._move(obj, s1, s2)
        self._pick_support(s1, t)
        self._pick_support(s2, t)

    def _clear_support(self, station: int, t) -> Optional[int]:
        """The station's kept support if it is farther at t than every other
        member by more than `compare_values`'s tolerance, else None.

        Such a support is also the farthest object when distances are
        computed from positions, as the dedup step does: the two ways of
        computing a squared distance differ by rounding far below that
        tolerance, and not at all in exact arithmetic.
        """
        sup = self.supports[station]
        if sup is None:
            return None
        runner = self._second_support(station, t)
        if runner is None:
            return sup
        row = self.polys[station]
        return sup if compare_values(row[sup](t), row[runner](t)) > 0 else None

    def apply_dedup(self, t) -> set[int]:
        """Run the duplicate-coverage improvement in place at time t, the
        cursor; returns the stations whose assignments changed.

        A station whose support is clear of a tie keeps the engine's
        support; the others take their largest-distance, lowest-index
        object, which a tie does not leave to rounding.
        """
        known = [self._clear_support(s, t) for s in range(self.instance.m)]
        moved = _dedup(self.instance, t, self.members, known)
        changed = set()
        for j in sorted(moved):
            old, new = self.assignment[j], moved[j]
            if old != new:
                changed.add(old)
                changed.add(new)
                self._move(j, old, new)
        for s in changed:
            self._pick_support(s, t)
        return changed

    # -- the sweep --------------------------------------------------------

    def _segment(self, start, end) -> TimelineSegment:
        a, b = (start, end) if self.direction > 0 else (end, start)
        return TimelineSegment(a, b, tuple(self.assignment), tuple(self.supports),
                               self.objective_poly())

    def _requeue(self, stations, cursor) -> None:
        """Update the queued events of the given stations at the cursor."""
        for s in stations:
            self.update_support_change(s, cursor)
        if self.flags.imp_ext:
            m = self.instance.m
            pairs = {pair for s in stations for x in range(m) if x != s
                     for pair in ((s, x), (x, s))}
            for s1, s2 in pairs:
                self.update_handover(s1, s2, cursor)

    def sweep(self, t_anchor) -> Iterator[TimelineSegment]:
        instance, t_stop = self.instance, self.t_stop
        m = instance.m
        cursor = t_anchor
        for s in range(m):
            self._pick_support(s, cursor)
        if self.flags.no_dup and instance.n:
            self.apply_dedup(cursor)
        if instance.n == 0 or compare_event_times(t_anchor, t_stop) == 0:
            yield self._segment(t_anchor, t_stop)
            return

        self._requeue(range(m), cursor)
        while True:
            event = self.queue.next()
            if event is None:
                yield self._segment(cursor, t_stop)
                return
            t_ev, kind, ident, payload = event
            if kind == HANDOVER:
                s1, s2 = ident
                if not self.handover_still_improves(s1, s2, payload, t_ev):
                    self.update_handover(s1, s2, t_ev)
                    continue
            yield self._segment(cursor, t_ev)
            cursor = t_ev
            if compare_event_times(cursor, t_stop) == 0:
                return  # event at the window edge: no trailing empty segment
            if kind == SUPPORT_CHANGE:
                self._pick_support(ident, t_ev)
                touched = {ident}
            else:
                s1, s2 = ident
                self.apply_handover(s1, s2, payload, t_ev)
                touched = {s1, s2}
            if self.flags.no_dup:
                touched.update(self.apply_dedup(t_ev))
            self._requeue(touched, cursor)


def _dedup(instance: MovingInstance, t, members, known) -> dict:
    """The duplicate-coverage improvement at time t.

    While some station's support object lies inside another station's
    disk, hand that support to the covering station (the first station's
    radius then shrinks to its next-furthest object).  `known[s]` is the
    support to take for station s, or None to take its largest-distance,
    lowest-index object.  Distances are computed from the objects'
    positions at t, with the arithmetic of `Trajectory.at` followed by the
    coordinate differences.  `members` is left as it is; returns {object:
    final station} for every object that moved (possibly back to where it
    was).
    """
    m = instance.m
    objects = instance.objects
    xs = [st.x for st in instance.stations]
    ys = [st.y for st in instance.stations]
    positions: dict = {}

    def position(o):
        p = positions.get(o)
        if p is None:
            tr = objects[o]
            p = positions[o] = (
                tr.start.x + t * (tr.end.x - tr.start.x),
                tr.start.y + t * (tr.end.y - tr.start.y),
            )
        return p

    def d2(s, o):
        px, py = position(o)
        dx, dy = xs[s] - px, ys[s] - py
        return dx * dx + dy * dy

    own: dict[int, list[int]] = {}  # copied member lists of changed stations

    def support_of(s):
        objs = own[s] if s in own else members[s]
        if not objs:
            return None
        x, y = xs[s], ys[s]
        dists = [(x - px) * (x - px) + (y - py) * (y - py) for px, py in map(position, objs)]
        return -max(zip(dists, [-o for o in objs]))[1]

    sup = [known[s] if known[s] is not None else support_of(s) for s in range(m)]
    radius = [d2(s, sup[s]) if sup[s] is not None else 0 for s in range(m)]
    moved: dict[int, int] = {}
    for _ in range(instance.n * m + m):
        # Only d within a radius's tolerance band can compare at most r; an
        # empty disk (r == 0) takes nothing.
        bound = [tolerance_band(r)[1] if r != 0 else -1 for r in radius]
        for s in range(m):
            o = sup[s]
            if o is None or radius[s] == 0:
                continue
            px, py = position(o)
            near = [
                s2
                for s2, x, y, cap in zip(range(m), xs, ys, bound)
                if (x - px) * (x - px) + (y - py) * (y - py) <= cap
            ]
            best = None
            for s2 in near:
                if s2 == s:
                    continue
                d = d2(s2, o)
                if compare_values(d, radius[s2]) <= 0 and (best is None or (d, s2) < best):
                    best = (d, s2)
            if best is None:
                continue
            d, s2 = best
            for x in (s, s2):
                if x not in own:
                    own[x] = list(members[x])
            own[s].remove(o)
            own[s2].append(o)
            moved[o] = s2
            sup[s] = support_of(s)
            radius[s] = d2(s, sup[s]) if sup[s] is not None else 0
            if (d, -o) > (radius[s2], -sup[s2]):  # o joins s2: its farthest is o or the old one
                sup[s2], radius[s2] = o, d
            break
        else:
            break
    return moved


def dedup_improve(assignment: Assignment, t, instance: MovingInstance) -> Assignment:
    """While some station's support object lies inside another station's
    disk, hand that support to the covering station (the first station's
    radius then shrinks to its next-furthest object).  Never increases cost
    at time t; idempotent at its fixpoint.  Runs the engine's dedup step
    (`_Extender.apply_dedup`) from the assignment's supports at t."""
    engine = _Extender(instance, assignment, 1, t, ImprovementFlags(no_dup=True))
    for s in range(instance.m):
        engine._pick_support(s, t)
    engine.apply_dedup(t)
    return tuple(engine.assignment)


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
    yield from _Extender(instance, assignment, dir_sign, t_stop, flags).sweep(t_anchor)


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
    polys = distance_rows(instance)
    worst = 0.0
    worst_t = None
    worst_obj = None
    k = 0
    seg = None
    for i in range(sample_count):
        t = lo + (hi - lo) * i / (sample_count - 1) if sample_count > 1 else lo
        while k + 1 < len(segments) and float(segments[k].t_end) < t:
            k += 1
        if seg is not segments[k]:
            seg = segments[k]
            support_polys = [(s, polys[s][sup]) for s, sup in enumerate(seg.supports)
                             if sup is not None]
            assigned = [(s, polys[s][j]) for j, s in enumerate(seg.assignment)]
        radius = [0.0] * instance.m
        for s, poly in support_polys:
            radius[s] = float(poly(t))
        for j, (s, poly) in enumerate(assigned):
            d2 = float(poly(t))
            violation = (d2 - radius[s]) / max(radius[s], 1.0)
            if violation > worst:
                worst, worst_t, worst_obj = violation, t, j
    return FeasibilityReport(worst <= FEASIBILITY_TOL, worst, worst_t, worst_obj)
