"""The `kdc-result` format and both checks of it.

A result file is self-contained JSON: the full timeline (assignments,
supports, objective coefficients), the certified bounds and run stats.
Objective coefficients are stored divided by pi (sums of squared radii);
reported upper/lower values include the pi factor.  `verify_result` checks
a result against its instance, an independent verifier rather than a
re-run, and `check_feasible` proves a timeline feasible without sampling.

Both checks are one walk (`_Walk`) that applies each segment's moves to
one assignment list and reads each stored segment once.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import compress
from operator import ne

from .envelope import Assignment, TimelineSegment
from .geometry import MovingInstance, QuadraticPoly, quadratic_roots
from .instances import FormatError, parse_json
from .kinetic import FloatRow, distance_rows
from .static_cover import ratio_gap

__all__ = [
    "RESULT_FORMAT",
    "RESULT_VERSION",
    "FEASIBILITY_TOL",
    "FeasibilityReport",
    "result_to_json",
    "load_result",
    "result_segments",
    "verify_result",
    "check_feasible",
]

RESULT_FORMAT = "kdc-result"
RESULT_VERSION = 2

# Largest relative violation `check_feasible` accepts.
FEASIBILITY_TOL = 1e-7


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    worst_violation: float
    worst_time: float | None = None
    worst_object: int | None = None


def squared_floor(instance: MovingInstance) -> float:
    """The floor F below which the checks read a squared distance as small:
    S**2 * 2**-14, with S the larger side of the bounding box of the
    stations and the trajectory end points, so that F scales with the
    instance and never exceeds 0.61 on the 100 x 100 canvas; 1.0 when S is
    0 (or S**2 underflows), where every distance is 0."""
    stations, objects = instance.stations, instance.objects
    xs = [p.x for p in stations] + [o.start.x for o in objects] + [o.end.x for o in objects]
    ys = [p.y for p in stations] + [o.start.y for o in objects] + [o.end.y for o in objects]
    if not xs:
        return 1.0
    side = float(max(max(xs) - min(xs), max(ys) - min(ys)))
    return side * side * 2.0 ** -14 or 1.0


def float_rows(instance: MovingInstance) -> list[FloatRow]:
    return [FloatRow(row) for row in distance_rows(instance, exact=False)]


def moved_objects(before: Assignment, after: Assignment) -> list[int]:
    """The objects whose station differs between two assignments of one
    length, ascending."""
    return list(compress(range(len(after)), map(ne, before, after)))


def _moves(segments):
    """Each segment's moves [j, s] from the assignment before it, none for
    the first."""
    prev = segments[0].assignment
    for seg in segments:
        # Segments between moves share one assignment tuple.
        after = seg.assignment
        yield [] if after is prev else [[j, after[j]] for j in moved_objects(prev, after)]
        prev = after


def result_to_json(instance_id: str, algorithm: str, flags, config: dict, result) -> str:
    """The result file's text: the header indented, then the timeline's
    segments one per line."""
    tl = result.timeline
    segments = []
    for seg, moves in zip(tl.segments, _moves(tl.segments)):
        segments.append({
            "t_start": float(seg.t_start),
            "t_end": float(seg.t_end),
            "moves": moves,
            "supports": list(seg.supports),
            "objective": [float(seg.poly.a), float(seg.poly.b), float(seg.poly.c)],
        })
    doc = {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "instance_id": instance_id,
        "algorithm": algorithm,
        "flags": asdict(flags),
        "config": config,
        "upper": result.upper,
        "lower": result.lower,
        "gap": None if math.isinf(result.gap) else result.gap,
        "iterations": result.iterations,
        "timed_out": result.timed_out,
        "stats": {
            "time_static_s": result.stats.time_static,
            "time_extend_merge_s": result.stats.time_extend_merge,
            "time_total_s": result.stats.time_total,
            "static_solves": result.stats.static_solves,
            "events_processed": result.stats.events_processed,
            "stop_reason": result.stats.stop_reason,
        },
        "timeline": {
            "value": float(tl.value),
            "assignment": list(tl.segments[0].assignment),
            "segments": [],
        },
    }
    # The segments list is the document's last value: its `[]` is the last
    # in the indented header, and each segment is written in its place on
    # one line by the C encoder, which an indent would bypass.
    head, tail = json.dumps(doc, indent=2).rsplit("[]", 1)
    body = ",\n      ".join(map(json.dumps, segments))
    return f"{head}[\n      {body}\n    ]{tail}\n"


def load_result(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse_json(fh.read())
    if not isinstance(doc, dict) or doc.get("format") != RESULT_FORMAT \
            or doc.get("version") != RESULT_VERSION:
        raise FormatError(f"{path}: not a kdc-result v{RESULT_VERSION} file")
    missing = [key for key in ("instance_id", "upper", "lower", "timeline") if key not in doc]
    if missing:
        raise FormatError(f"{path}: no {', '.join(missing)} in the result")
    return doc


def _read_segments(doc):
    """Yields the stored first assignment as a list, then per segment its
    float times, moves (each naming an object and an int station), supports
    as a tuple and objective as a `QuadraticPoly`.  Raises FormatError at
    the first malformed entry."""
    try:
        timeline = doc["timeline"]
        assignment = list(map(_station, timeline["assignment"]))
        n = len(assignment)
        yield assignment
        for raw in timeline["segments"]:
            moves = raw["moves"] or ()
            for j, s in moves:
                if not _is_index(j, n):
                    raise IndexError(f"move of object {j!r}")
                _station(s)
            yield (_number(raw["t_start"]), _number(raw["t_end"]), moves,
                   tuple(raw["supports"]), QuadraticPoly(*map(_number, raw["objective"])))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed timeline: {type(exc).__name__} {exc}") from None


def result_segments(doc) -> list[TimelineSegment]:
    """The stored timeline with each segment's full assignment rebuilt from
    the first segment's and the moves since, segments between moves sharing
    one tuple, as `_read_segments` reads it.  Raises FormatError when the
    timeline is malformed."""
    reader = _read_segments(doc)
    assignment = tuple(next(reader))
    segs = []
    for t_start, t_end, moves, supports, poly in reader:
        if moves:
            changed = list(assignment)
            for j, s in moves:
                changed[j] = s
            assignment = tuple(changed)
        segs.append(TimelineSegment(t_start, t_end, assignment, supports, poly))
    return segs


def _finite(v) -> bool:
    """Whether a stored number is finite; an int beyond the float range,
    which float arithmetic cannot take, is not."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_index(v, size: int) -> bool:
    return type(v) is int and 0 <= v < size  # JSON true and false are not indices


def _is_number(v) -> bool:
    return type(v) is int or type(v) is float  # JSON true and false are not numbers


def _number(v) -> float:
    """A stored time or coefficient, as a float; TypeError unless `_is_number`."""
    if not _is_number(v):
        raise TypeError(f"number {v!r}")
    return float(v)


def _station(v):
    """A stored station entry; any int (not a bool) reads, and
    `verify_result` checks its range against the instance."""
    if type(v) is not int:
        raise TypeError(f"station {v!r}")
    return v


def verify_result(doc, instance: MovingInstance, samples=None) -> list[str]:
    """Independent verification of a result file against its instance.

    Checks in one walk over the stored segments that their times ascend and
    join up, that their objectives are finite, that each one's assignment
    and supports fit the instance and that its stored objective is the sum
    of its stored supports' polynomials (derived again only where the
    supports change), proves the timeline feasible (`check_feasible`: every
    object inside its station's disk, whose radius is set by the stored
    support, at every time) and takes its peak; then checks the stored peak
    value and bounds against that peak and the stored gap against the
    stored bounds.  Feasibility makes each stored support its station's
    farthest member over its segment, so that sum is the segment's true
    objective.  Every tolerance on a squared distance, objective or bound
    is relative, with the instance's `squared_floor` in place of 1, so that
    no verdict depends on the instance's scale.  Returns a list of
    violation messages (empty = pass); raises FormatError when the
    timeline, the peak value or the bounds cannot be read.

    `samples` is ignored: the feasibility proof is analytic and needs no
    sample count.  It is still taken so that callers which pass one as the
    third argument, such as the benchmark, keep working.
    """
    reader = _read_segments(doc)
    rows, floor = float_rows(instance), squared_floor(instance)
    walk = _Walk(instance, next(reader), rows, floor, strict=True)
    problems = []
    first = last = top = derived_for = derived = None
    malformed = False
    for i, (t_start, t_end, moves, supports, poly) in enumerate(reader):
        # Equal times pass: an exact-mode segment can round to zero length.
        if not (math.isfinite(t_start) and math.isfinite(t_end) and t_start <= t_end):
            problems.append(f"segment {i}: times are not finite and ascending")
        if i == 0:
            first = t_start
        elif abs(t_start - last) > 1e-9:
            problems.append(f"segment {i}: gap/overlap at t={t_start!r}")
        last = t_end
        sa, sb, sc = poly.a, poly.b, poly.c
        if not (math.isfinite(sa) and math.isfinite(sb) and math.isfinite(sc)):
            problems.append(f"segment {i}: objective is not finite")
        peak = max(poly(t_start), poly(t_end))
        if i == 0 or peak > top:
            top = peak
        if not walk.step(t_start, moves, supports):
            problems.append(f"segment {i}: assignment or supports do not fit "
                            f"n={instance.n}, m={instance.m}")
            malformed = True
            continue
        if supports != derived_for:
            polys = [rows[s][sup] for s, sup in enumerate(supports) if sup is not None]
            derived_for, derived = supports, list(map(sum, zip(*polys))) or [0.0, 0.0, 0.0]
        da, db, dc = derived
        tol = 1e-9 * max(floor, abs(sa), abs(sb), abs(sc), abs(da), abs(db), abs(dc))
        if abs(da - sa) > tol or abs(db - sb) > tol or abs(dc - sc) > tol:
            problems.append(f"segment {i}: stored objective {[sa, sb, sc]} != derived {derived}")
    value = doc["timeline"].get("value")
    if not _is_number(value):
        raise FormatError(f"malformed timeline: value {value!r}")
    upper, lower, stored_gap = doc.get("upper"), doc.get("lower"), doc.get("gap")
    if not (_is_number(upper) and _is_number(lower)
            and (stored_gap is None or _is_number(stored_gap))):
        raise FormatError("upper and lower must be numbers, and gap a number or null")
    if first is None:
        return ["empty timeline"]
    if abs(first - 0.0) > 1e-9 or abs(last - 1.0) > 1e-9:
        problems.insert(0, "timeline does not span [0, 1]")
    if malformed:
        return problems
    report = walk.report(last)
    if not report.ok:
        problems.append(
            f"infeasible: violation {report.worst_violation:.3e} at "
            f"t={report.worst_time} object {report.worst_object}"
        )
    peak, peak_floor = math.pi * top, math.pi * floor
    # The stored value is the peak that upper = pi * value reports.
    if not (_finite(value) and abs(peak - math.pi * value) <= 1e-9 * max(peak_floor, peak)):
        problems.append(f"stored timeline value {value} != timeline peak {top}")
    if not (_finite(upper) and _finite(lower)):
        problems.append(f"stored bounds are not finite: upper {upper}, lower {lower}")
        return problems
    if abs(peak - upper) > 1e-9 * max(peak_floor, peak):
        problems.append(f"stored upper {upper} != pi * timeline peak {peak}")
    if lower > upper * (1 + 1e-12) + 1e-12 * peak_floor:
        problems.append(f"lower {lower} exceeds upper {upper}")
    gap = ratio_gap(upper, lower)
    gap = None if math.isinf(gap) else gap  # as result_to_json stores it
    if stored_gap is None or gap is None:
        same = stored_gap is gap
    else:
        same = _finite(stored_gap) and abs(stored_gap - gap) <= 1e-12 * max(1.0, gap)
    if not same:
        problems.append(f"stored gap {stored_gap!r} != gap {gap!r} of the stored bounds")
    return problems


def check_feasible(segments, instance: MovingInstance) -> FeasibilityReport:
    """Verify that every object sits inside its assigned station's disk over
    the whole timeline, the radius taken from the segment supports (zero
    for a None support).

    The violation of object j at t is relative: (d2 - r2) / max(r2, F), with
    d2 and r2 the squared distances of j and of the support from j's
    station and F the instance's `squared_floor`, and the timeline passes
    when its largest is at most `FEASIBILITY_TOL`.  While a station keeps
    its members and its support (a run of segments), d2 and r2 are fixed
    quadratics, so each member is checked once per run: where d2 - r2 is
    at most 0 at the run's ends and at its vertex, it is at most 0 over the
    whole run, and elsewhere `_peak_violation` finds the largest violation.
    Values are floats.  The worst object and time are reported; on a tie,
    the lowest object, then the earliest time.  The segments go through
    `verify_result`'s walk, with the moves that `result_to_json` writes.
    """
    segments = list(segments)
    if not segments or instance.n == 0:
        return FeasibilityReport(True, 0.0)
    rows, floor = float_rows(instance), squared_floor(instance)
    walk = _Walk(instance, list(segments[0].assignment), rows, floor)
    for seg, moves in zip(segments, _moves(segments)):
        walk.step(seg.t_start, moves, seg.supports)
    return walk.report(segments[-1].t_end)


class _Walk:
    """One walk over a timeline's segments: `step` applies a segment's moves
    to one assignment list and the stations' member sets, says whether the
    segment fits the instance (n objects, each of m supports one of its
    station's members, or None on a station without any, and no object on
    a station outside range(m)), and closes the feasibility runs that end
    where it starts.  Fit is checked again only at stations whose support
    or members change.  A run is a station's stretch with fixed members and
    support: it closes where an object's station changes across a segment's
    moves (at the old and the new station) or its support changes, and
    `report` closes the rest.  A `strict` walk ends its runs at the first
    segment that does not fit; any other raises ValueError on a station
    outside range(m).
    """

    SUPPORT_TYPES = frozenset((int, type(None)))  # of supports that can fit

    def __init__(self, instance, assignment, rows, floor, strict=False):
        self.n, self.m = instance.n, instance.m
        self.rows, self.floor, self.strict = rows, floor, strict
        self.assignment, self.sized = assignment, len(assignment) == instance.n
        self.members = defaultdict(set)  # by station, any int
        for j, s in enumerate(assignment):
            self.members[s].add(j)
        if not strict and not all(0 <= s < self.m for s in self.members):
            raise ValueError(f"an object on a station outside the {self.m} stations")
        self.supports = self.misfits = None  # the last segment's; stations that do not fit
        self.run_supports = self.starts = None
        self.closing = True
        self.worst, self.worst_t, self.worst_obj = 0.0, None, None

    def step(self, t, moves, supports) -> bool:
        """Applies a segment that starts at t, with its moves ([j, s] pairs
        in order, s an int) and supports; returns whether it fits."""
        assignment, members, m = self.assignment, self.members, self.m
        changed, touched = (), set()
        if moves:
            before = {}
            for j, s in moves:
                before.setdefault(j, assignment[j])
                assignment[j] = s
            changed = [(j, s0, assignment[j]) for j, s0 in before.items() if assignment[j] != s0]
            touched.update(s for _, s0, s1 in changed for s in (s0, s1))
        prev = self.supports
        if prev is None:
            self.run_supports, self.starts = list(supports), [float(t)] * m
        else:
            if supports != prev:
                touched.update(moved_objects(prev, supports))
            if touched and self.closing and not (
                    len(supports) == m and 0 <= min(touched) and max(touched) < m):
                if not self.strict:
                    raise ValueError(f"a segment at t={t} reaches outside the {m} stations")
                self.closing = False  # this segment cannot fit
            if touched and self.closing:
                tf = float(t)
                for s in touched:
                    self._close(s, tf)
                for s in touched:
                    self.run_supports[s], self.starts[s] = supports[s], tf
        for j, s0, s1 in changed:
            members[s0].discard(j)
            members[s1].add(j)
        self.supports = supports
        if not (self.sized and len(supports) == m
                and self.SUPPORT_TYPES.issuperset(map(type, supports))):
            self.misfits, fits = None, False
        else:
            if self.misfits is None:
                self.misfits, touched = set(), set(range(m)).union(members)
            for s in touched:
                # A station outside range(m) fits as one without a support.
                sup = supports[s] if 0 <= s < m else None
                if sup is None and not members[s] \
                        or sup is not None and 0 <= sup < self.n and assignment[sup] == s:
                    self.misfits.discard(s)
                else:
                    self.misfits.add(s)
            fits = not self.misfits
        if not fits and self.strict:
            self.closing = False
        return fits

    def _close(self, s, t1):
        """Checks station s's run from its start to t1."""
        t0, row, support = self.starts[s], self.rows[s], self.run_supports[s]
        r = (0.0, 0.0, 0.0) if support is None else row[support]
        ra, rb, rc = r
        r0, r1 = (ra * t0 + rb) * t0 + rc, (ra * t1 + rb) * t1 + rc
        worst, worst_t, worst_obj = self.worst, self.worst_t, self.worst_obj
        for j in self.members[s]:
            a, b, c = p = row[j]
            if (a * t0 + b) * t0 + c <= r0 and (a * t1 + b) * t1 + c <= r1 and (
                    a >= ra or not t0 < (rb - b) / (2 * (a - ra)) < t1
                    or c - rc - (b - rb) ** 2 / (4 * (a - ra)) <= 0):
                continue
            v, t = _peak_violation(p, r, t0, t1, self.floor)
            if v > worst or v == worst and worst_obj is not None \
                    and (j, t) < (worst_obj, worst_t):
                worst, worst_t, worst_obj = v, t, j
        self.worst, self.worst_t, self.worst_obj = worst, worst_t, worst_obj

    def report(self, t_end) -> FeasibilityReport:
        """Closes every run at t_end and reports the worst violation."""
        t = float(t_end)
        for s in range(self.m):
            self._close(s, t)
        return FeasibilityReport(self.worst <= FEASIBILITY_TOL, self.worst, self.worst_t,
                                 self.worst_obj)


def _peak_violation(p, r, t0, t1, floor) -> tuple[float, float]:
    """The largest of v(t) = (p(t) - r(t)) / max(r(t), F) over [t0, t1],
    with F the instance's `squared_floor`, and the earliest of the times
    below that reaches it, for the coefficients p and r of two quadratics.
    v is (p - r) / F where r <= F, which peaks at the vertex of p - r, and
    p / r - 1 where r > F, whose derivative has the sign of p'r - pr', a
    quadratic (the cubic terms cancel).  So v peaks at t0, at t1, where r
    crosses F, at the vertex of p - r or at a root of p'r - pr'.
    """
    (pa, pb, pc), (ra, rb, rc) = p, r
    times = [t0, t1]
    if t0 < t1:
        if pa != ra:
            times.append(min(max(-(pb - rb) / (2 * (pa - ra)), t0), t1))
        for a, b, c in ((ra, rb, rc - floor),
                        (pa * rb - pb * ra, 2 * (pa * rc - pc * ra), pb * rc - pc * rb)):
            times += quadratic_roots(a, b, c, t0, t1)
    best, best_t = -math.inf, None
    for t in sorted(times):
        d2, r2 = (pa * t + pb) * t + pc, (ra * t + rb) * t + rc
        v = (d2 - r2) / max(r2, floor)
        if v > best:
            best, best_t = v, t
    return best, best_t
