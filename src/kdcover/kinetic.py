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
events from an anchor time toward a stop time.  What each event computes:

- support change of station s: for each other member o, the difference
  d(s, o) - d(s, sup) of squared-distance polynomials, as three local
  coefficients, and its first root strictly ahead of the cursor past
  which it is positive (`sign_ahead`); the earliest is queued, the first
  member's on a tie;
- handover of s1's support b to s2: the first such root of one difference,
  (d(s1, b) + d(s2, c)) - (d(s1, a) + d(s2, b)), the two stations' cost
  before minus after the transfer, with a the runner-up of s1 and c the
  support of s2 (zero when None); at its time the handover is re-checked
  against the live state (`handover_still_improves`) and applied only if
  the cost does not rise;
- duplicate coverage (no_dup) runs at every event time (`_dedup`), moving
  supports already inside another disk, read only at the stations that
  hold a support; it reads the same distance polynomials as every other
  step, so float and exact arithmetic break its ties alike.

Runner-ups are found by evaluating each member's polynomial at the time in
one list pass, then the largest value and its lowest-index object by
C-level `max`, `count` and `index` (`_farthest`); a support is picked from
the members that `compare_values` calls largest (`_largest`): by the
engine among them (`_tie_group`, `_resolve`), by the dedup step as the
lowest index.

The type of the stop time picks the arithmetic of a run
(`_Extender.exact`): at a float time the engine reads the coordinates as
they are, and at an exact one (an int, a Fraction or a `QuadraticNumber`)
the instance's integer lift, with a float anchor read as the rational it
is.  In exact arithmetic those scans first
evaluate every value in float by Horner's rule on the `FloatRow` doubles,
within one error bound per station and time (`FloatRow.error`), and keep
only the members whose upper bound reaches the largest lower bound
(`_may_be_largest`): the exact values, computed for the survivors alone,
decide as before, and the dedup step passes over the stations that
certainly do not cover a support.  A support change or handover search
hands its int differences to `geometry.earliest_crossing`, which reads
each difference's one upward crossing from its integers and its root
enclosure, and builds exact roots only for the differences whose crossing
may be the earliest.  At an exact root each exact value is one
`QuadraticNumber` construction (`exactarith.poly_parts`).  Every decision
stays exact, and so does every timeline.  The exact rows are ints, L**2
(`den`) times the true polynomials (`_LiftedRow`), since no sign, order,
tie or root moves under a positive scale; a root is built from its
difference in lowest terms (`geometry.lowest_terms`) so that it takes the
true Fractions' form.  Values leave in true units only as segment
objectives (Fractions over den) and as `FloatRow` doubles, each int / den
correctly rounded.

The engine keeps its state across events and recomputes only what an
event touched:

- distance rows: each station-object squared-distance polynomial is built
  on its first read (`DistanceRow`; from the instance's integer lift in
  exact arithmetic) and kept;
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
  its runner-up keeps it, and only the others are rescanned;
- the next event: one queue (`_EventQueue`) in place of a scan over every
  cached event;
- segments: those between two moves share one assignment tuple.

The engine is written once for both arithmetics, apart from the float
filter that exact values pass first; every tolerance lives in the
`geometry` predicates it calls (`compare_event_times`, `compare_values`
with its `tolerance_band`, `sign_ahead`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .envelope import Assignment, TimelineSegment
from .exactarith import QuadraticNumber, poly_parts
from .geometry import (
    IntegerLift,
    MovingInstance,
    QuadraticPoly,
    ZERO_POLY,
    compare_event_times,
    compare_values,
    earliest_crossing,
    quadratic_roots,
    sign_ahead,
    squared_distance_poly,
    tolerance_band,
    value_bound,
)

__all__ = [
    "ImprovementFlags",
    "dedup_improve",
    "extend",
    "iter_extend",
]

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


class DistanceRow(dict):
    """Squared-distance polynomials from one station to the objects, keyed
    by object index, each built on its first read; `den` times the true."""

    __slots__ = ("station", "objects")
    den = 1

    def __init__(self, station, objects):
        super().__init__()
        self.station = station
        self.objects = objects

    def __missing__(self, obj: int) -> QuadraticPoly:
        poly = self[obj] = squared_distance_poly(self.station, self.objects[obj])
        return poly


class _LiftedRow(DistanceRow):
    """A `DistanceRow` of an instance with an `IntegerLift`: each polynomial
    is three ints, `den` = L**2 times `squared_distance_poly`'s, from the
    lifted coordinates with r = start - station and v = end - start."""

    __slots__ = ("den",)

    def __init__(self, station, lift: IntegerLift):
        super().__init__(station, lift.objects)
        self.den = lift.scale * lift.scale

    def __missing__(self, obj: int) -> QuadraticPoly:
        x, y = self.station
        sx, sy, vx, vy = self.objects[obj]
        rx, ry = sx - x, sy - y
        poly = self[obj] = QuadraticPoly(vx * vx + vy * vy, 2 * (rx * vx + ry * vy),
                                         rx * rx + ry * ry)
        return poly

    def coef_maxima(self) -> tuple[int, int, int]:
        """Ints (A, B, C) with A >= |a|, B >= |b| and C >= |c| for every
        polynomial of the row: A the largest |v|**2, C the largest |r|**2, and
        B = 2 * (isqrt(A*C) + 1), since |b| = 2|r.v| <= 2|r||v|."""
        x, y = self.station
        objs = self.objects
        a = max([vx * vx + vy * vy for _, _, vx, vy in objs], default=0)
        c = max([(sx - x) ** 2 + (sy - y) ** 2 for sx, sy, _, _ in objs], default=0)
        return a, 2 * (math.isqrt(a * c) + 1), c


def distance_rows(instance: MovingInstance, exact: bool) -> list[DistanceRow]:
    """One row per station: on the integer lift in exact arithmetic, else
    from the coordinates as they are."""
    if exact:
        lift = instance.lift
        return [_LiftedRow(st, lift) for st in lift.stations]
    return [DistanceRow(st, instance.objects) for st in instance.stations]


class FloatRow(dict):
    """The (a, b, c) coefficients of one station's squared-distance
    polynomials in true units as the nearest doubles, keyed by object index;
    each is read from its `DistanceRow` and converted on first use.

    `error(tf)` bounds, on an integer lift's row, the error of Horner's
    rule at the double tf on every triple of the row at once: the
    `value_bound` error term of the row's coefficient maxima (`_LiftedRow.
    coef_maxima`, as doubles), which is at least that of each triple, since
    the term grows with |a|, |b| and |c|.  It grows with |tf| too, so every
    time in [-1, 1], the horizon included, takes the term at 1, computed
    once.
    """

    __slots__ = ("row", "maxima", "unit_error")

    def __init__(self, row: DistanceRow):
        super().__init__()
        self.row = row
        self.maxima = None
        self.unit_error = None

    def __missing__(self, obj: int) -> tuple:
        p, den = self.row[obj], self.row.den
        coefs = self[obj] = (_double(p.a, den), _double(p.b, den), _double(p.c, den))
        return coefs

    def error(self, tf: float) -> float:
        if self.maxima is None:
            den = self.row.den
            self.maxima = tuple(_double(x, den) for x in self.row.coef_maxima())
            self.unit_error = value_bound(self.maxima, 1.0)[1]
        if -1.0 <= tf <= 1.0:
            return self.unit_error
        return value_bound(self.maxima, tf)[1]


def _double(x, den=1) -> float:
    """The double nearest x / den, with x an int unless den is 1; inf beyond
    the float range, which `value_bound` answers with an infinite bound."""
    try:
        return float(x) if den == 1 else x / den
    except OverflowError:
        return math.inf


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
        self.exact = type(t_stop) is not float  # an exact time: every value is exact
        self.polys = distance_rows(instance, self.exact)
        self.floats = [FloatRow(row) for row in self.polys] if self.exact else None
        self.assignment = list(assignment)
        self.assignment_tuple = None  # tuple(self.assignment), built once per move
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
        if self.exact:
            objs = _may_be_largest(self.floats[station], objs, _double(t))
            if len(objs) == 1:
                return objs
        return _largest(_values(self.polys[station], objs, t), objs)

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
        row = self.polys[station]
        lifted = self.exact and type(t) is QuadraticNumber
        for o in group:
            p = row[o]
            if lifted:  # 2a*t + b at t = (tp + tq*sqrt(d))/r, in one construction
                sign = self.direction
                slope = QuadraticNumber(sign * (2 * p.a * t.p + p.b * t.r), sign * 2 * p.a * t.q,
                                        t.r, t.d)
            else:
                slope = self.direction * p.derivative_at(t)
            key = (slope, p.a)
            if best is None or key > best_key or (key == best_key and o < best):
                best, best_key = o, key
        return best

    def objective_poly(self) -> QuadraticPoly:
        poly = ZERO_POLY
        for s, sup in enumerate(self.supports):
            if sup is not None:
                poly = poly + self.polys[s][sup]
        if self.exact and poly is not ZERO_POLY:
            a, b, c, den = poly.a, poly.b, poly.c, self.polys[0].den
            poly = QuadraticPoly(Fraction(a, den), Fraction(b, den), Fraction(c, den))
        return poly

    def _move(self, obj: int, s1: int, s2: int) -> None:
        self.members[s1].remove(obj)
        self.removals[s1] += 1
        self.members[s2].append(obj)
        self.assignment[obj] = s2
        self.assignment_tuple = None

    # -- event scanning ---------------------------------------------------

    def _ahead(self, t, cursor) -> bool:
        return compare_event_times(t, cursor) * self.direction > 0

    def _not_behind(self, t, ref) -> bool:
        """t is at or ahead of ref in the travel direction, compared raw."""
        return t >= ref if self.direction > 0 else t <= ref

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
        row = self.polys[station]
        p = row[sup]
        sa, sb, sc = p.a, p.b, p.c
        if objs is None:
            objs = self.members[station]
        if self.exact:  # row[o] - row[sup] for every other member o
            diffs = [(p.a - sa, p.b - sb, p.c - sc) for p in [row[o] for o in objs if o != sup]]
            return earliest_crossing(diffs, row.den, cursor, self.t_stop, self.direction, best)
        lo, hi = self._window(cursor)
        for o in objs:
            if o == sup:
                continue
            p = row[o]
            a, b, c = p.a - sa, p.b - sb, p.c - sc  # row[o] - row[sup]
            roots = quadratic_roots(a, b, c, lo, hi)
            if not roots:
                continue  # no crossing, or equidistant for all time: a tie
            for root in roots[::self.direction]:  # ascending roots, in travel order
                if not self._ahead(root, cursor):
                    continue
                if best is not None and not self._ahead(best, root):
                    break
                if sign_ahead(a, b, c, root, self.direction) > 0:
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
            if self.exact:
                rest = _may_be_largest(self.floats[station], rest, _double(t))
            row = self.polys[station]
            best = rest[0] if len(rest) == 1 else _farthest(_values(row, rest, t), rest)
        self.runner[station] = best
        return best

    def _handover_inputs(self, s1: int, s2: int, t):
        """(s1's support, s1's runner-up, s2's support) at t, or None when
        s1 has no support."""
        b = self.supports[s1]
        if b is None:
            return None
        return b, self._second_support(s1, t), self.supports[s2]

    def _handover_rows(self, s1: int, s2: int, inputs):
        """(b at s1, c at s2, a at s1, b at s2) for inputs (b, a, c): the
        distance polynomials of a handover of b from s1 to s2, where the
        runner-up a and s2's support c stand at zero when None."""
        b, a2, c = inputs
        row1, row2 = self.polys[s1], self.polys[s2]
        p_a = row1[a2] if a2 is not None else ZERO_POLY
        p_c = row2[c] if c is not None else ZERO_POLY
        return row1[b], p_c, p_a, row2[b]

    def handover_after(self, s1: int, s2: int, inputs, cursor):
        """Earliest strict-improvement handover time of s1's support to s2
        ahead of the cursor: a root of the cost of s1 and s2 before minus
        after the move, composed like `handover_still_improves`'s costs."""
        p_b1, p_c, p_a, p_b2 = self._handover_rows(s1, s2, inputs)
        a = (p_b1.a + p_c.a) - (p_a.a + p_b2.a)
        b = (p_b1.b + p_c.b) - (p_a.b + p_b2.b)
        c = (p_b1.c + p_c.c) - (p_a.c + p_b2.c)
        if self.exact:
            return earliest_crossing(((a, b, c),), self.polys[s1].den, cursor, self.t_stop,
                                     self.direction)
        lo, hi = self._window(cursor)
        for root in quadratic_roots(a, b, c, lo, hi)[::self.direction]:
            if not self._ahead(root, cursor):
                continue
            if sign_ahead(a, b, c, root, self.direction) > 0:
                return root
        return None

    def update_handover(self, s1: int, s2: int, cursor) -> None:
        """Queue the next handover of s1's support to s2 ahead of the
        cursor, recomputed only when its inputs changed."""
        pair = (s1, s2)
        inputs = self._handover_inputs(s1, s2, cursor)
        if inputs is None:
            if self.handover_inputs.pop(pair, None) is not None:  # else none is queued
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
        p_b1, p_c, p_a, p_b2 = self._handover_rows(s1, s2, inputs)
        return compare_values((p_a + p_b2)(t), (p_b1 + p_c)(t)) <= 0

    def apply_handover(self, s1: int, s2: int, obj: int, t) -> None:
        self._move(obj, s1, s2)
        self._pick_support(s1, t)
        self._pick_support(s2, t)

    def _clear_support(self, station: int, t) -> Optional[int]:
        """The station's kept support if it is farther at t than every other
        member by more than `compare_values`'s tolerance, else None.

        Such a support is the only member that `compare_values` calls
        farthest, so it is the one the dedup step's rule picks, and the
        step takes it without a scan of the members.
        """
        sup = self.supports[station]
        if sup is None:
            return None
        runner = self._second_support(station, t)
        if runner is None:
            return sup
        if self.exact and _may_be_largest(self.floats[station], [sup, runner], _double(t)) == [sup]:
            return sup
        return sup if compare_values(*_values(self.polys[station], (sup, runner), t)) > 0 else None

    def apply_dedup(self, t) -> set[int]:
        """Run the duplicate-coverage improvement in place at time t, the
        cursor; returns the stations whose assignments changed.

        A station whose support is clear of a tie keeps the engine's
        support; the others take the lowest index among the members that
        `compare_values` calls farthest, in float as in exact arithmetic.
        """
        known = [self._clear_support(s, t) for s in range(self.instance.m)]
        moved = _dedup(self.instance, t, self.members, known, self.polys, self.floats)
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
        if self.assignment_tuple is None:  # segments between moves share one tuple
            self.assignment_tuple = tuple(self.assignment)
        return TimelineSegment(a, b, self.assignment_tuple, tuple(self.supports),
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
        if self.exact and type(t_anchor) is float:
            t_anchor = Fraction(t_anchor)
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


def _values(row: DistanceRow, objs, t) -> list:
    """The objects' squared distances from the row's station at t, in
    order; p(t) written out, as in QuadraticPoly.__call__, or at an exact
    time on an integer lift's rows in one construction: (a P**2 + b P Q +
    c Q**2)/Q**2 at a Fraction P/Q, `poly_parts` at a `QuadraticNumber`."""
    if type(row) is _LiftedRow:
        if type(t) is QuadraticNumber:
            rr, d = t.r * t.r, t.d
            return [QuadraticNumber(*poly_parts(p.a, p.b, p.c, t), rr, d)
                    for p in map(row.__getitem__, objs)]
        if type(t) is Fraction:
            P, Q = t.numerator, t.denominator
            QQ = Q * Q
            return [Fraction((p.a * P + p.b * Q) * P + p.c * QQ, QQ)
                    for p in map(row.__getitem__, objs)]
    return [(p.a * t + p.b) * t + p.c for p in map(row.__getitem__, objs)]


def _may_be_largest(floats: FloatRow, objs: list[int], tf: float) -> list[int]:
    """The objects that may be farthest at the time whose double is tf, in
    order: those whose value's upper bound reaches the largest lower bound,
    each value Horner's rule on the object's triple and each bound its row's
    `error`.  A `value_bound` per object would bound no wider, so this keeps
    all that those bounds keep.  Every other object is strictly nearer than
    one of these, so the farthest objects and all ties among them are
    kept."""
    e = floats.error(tf)
    if not e < math.inf:
        return objs
    vals = [(a * tf + b) * tf + c for a, b, c in map(floats.__getitem__, objs)]
    floor = max(vals) - e
    return [o for o, v in zip(objs, vals) if v + e >= floor]


def _largest(vals: list, objs: list[int]) -> list[int]:
    """The objects whose values `compare_values` calls largest, in order;
    the values are objs' distances, in the same order."""
    vmax = max(vals)
    lo = tolerance_band(vmax)[0]
    return [o for v, o in zip(vals, objs) if v >= lo and compare_values(v, vmax) >= 0]


def _farthest(vals: list, objs: list[int]) -> int:
    """The object of the largest value, the lowest index on a tie; the
    values are objs' distances, in the same order."""
    v = max(vals)
    if vals.count(v) == 1:
        return objs[vals.index(v)]
    return min(o for o, x in zip(objs, vals) if x == v)


def _dedup(instance: MovingInstance, t, members, known, rows, floats) -> dict:
    """The duplicate-coverage improvement at time t.

    While some station's support object lies inside another station's disk
    (its distance d there and that station's radius r give
    `compare_values(d, r) <= 0`), hand that support to the covering station
    with the smallest distance, the lowest station on a `compare_values`
    tie; the first station's radius then shrinks to its next-farthest
    object.  An empty disk (r == 0) takes nothing.  `known[s]` is the
    support to take for station s, or None to take the lowest index among
    the members that `compare_values` calls farthest.  Distances are the
    values at t of the polynomials in `rows`, and a station's radius is the
    distance of its support.

    Only the stations that a support may lie inside are compared: those
    holding a support where its distance, or with `floats` (the `FloatRow`s
    of the rows in exact arithmetic) its Horner value in float less
    the row's `error`, is at most the station's cap, in one list pass per
    support.  A cap is -inf for an empty disk, else the upper end of the
    radius's `tolerance_band`, or with `floats` its Horner value plus the
    row's `error`; exact values are computed only for those that pass.  `members` is left as it
    is; returns {object: final station} for every object that moved
    (possibly back to where it was).
    """
    m = instance.m
    tf = _double(t)
    lows: dict = {}  # object -> its distance to each `held` station, or with floats a lower bound
    exact: dict = {}  # (station, object) -> exact squared distance

    def low(o):
        col = lows.get(o)
        if col is None:
            if floats is None:
                col = [(p.a * t + p.b) * t + p.c for p in [rows[s][o] for s in held]]
            else:
                # at least 0, as squared distances are, so that an infinite
                # bound's -inf cannot pass an empty disk's cap
                vals = [(a * tf + b) * tf + c for a, b, c in [floats[s][o] for s in held]]
                col = [v - e if v > e else 0.0 for v, e in zip(vals, held_errors)]
            lows[o] = col
        return col

    def d2(s, o):
        if floats is None:
            p = rows[s][o]
            return (p.a * t + p.b) * t + p.c  # the bits of `low`'s entry
        d = exact.get((s, o))
        if d is None:
            d = exact[(s, o)] = _values(rows[s], (o,), t)[0]
        return d

    def cap(s):
        o = sup[s]
        if o is None:
            return -math.inf
        if floats is None:
            r = d2(s, o)
            return tolerance_band(r)[1] if r != 0 else -math.inf
        a, b, c = floats[s][o]
        v, e = (a * tf + b) * tf + c, errors[s]
        if v - e > 0 or d2(s, o) != 0:
            return v + e if e < math.inf else math.inf
        return -math.inf

    own: dict[int, list[int]] = {}  # copied member lists of changed stations

    def support_of(s):
        objs = own[s] if s in own else members[s]
        if not objs:
            return None
        if floats is not None:
            objs = _may_be_largest(floats[s], objs, tf)
            if len(objs) == 1:
                return objs[0]
        return min(_largest(_values(rows[s], objs, t), objs))

    sup = [known[s] if known[s] is not None else support_of(s) for s in range(m)]
    held = [s for s in range(m) if sup[s] is not None]  # moves only go to these
    if floats is not None:
        errors = [floats[s].error(tf) for s in range(m)]
        held_errors = [errors[s] for s in held]
    caps = [cap(s) for s in range(m)]
    moved: dict[int, int] = {}
    for _ in range(instance.n * m + m):
        for s in held:
            if caps[s] == -math.inf:
                continue
            o = sup[s]
            best = None
            for s2 in [s2 for s2, d in zip(held, low(o)) if d <= caps[s2]]:
                if s2 == s:
                    continue
                d = d2(s2, o)
                if compare_values(d, d2(s2, sup[s2])) <= 0 and (
                        best is None or compare_values(d, best[0]) < 0):
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
            if o < sup[s2] and compare_values(d, d2(s2, sup[s2])) == 0:
                sup[s2] = o  # o ties s2's farthest member at a lower index
            caps[s], caps[s2] = cap(s), cap(s2)
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
