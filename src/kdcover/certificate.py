"""The `kdc-result` format and both checks of it.

A result file is self-contained JSON: the full timeline (assignments,
supports, objective coefficients), the certified bounds and run stats.
Objective coefficients are stored divided by pi (sums of squared radii);
reported upper/lower values include the pi factor.  `verify_result` checks
a result against its instance, an independent verifier rather than a
re-run, and `check_feasible` proves a timeline feasible without sampling.
"""

from __future__ import annotations

import json
import math
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


def float_rows(instance: MovingInstance) -> list[FloatRow]:
    return [FloatRow(row) for row in distance_rows(instance)]


def moved_objects(before: Assignment, after: Assignment) -> list[int]:
    """The objects whose station differs between two assignments of one
    length, ascending."""
    return list(compress(range(len(after)), map(ne, before, after)))


def result_to_json(instance_id: str, algorithm: str, flags, config: dict, result) -> str:
    """The result file's text: the header indented, then the timeline's
    segments one per line."""
    tl = result.timeline
    segments = []
    prev = tl.segments[0].assignment
    for seg in tl.segments:
        # Segments between moves share one assignment tuple.
        moves = [] if seg.assignment is prev else [
            [j, seg.assignment[j]] for j in moved_objects(prev, seg.assignment)
        ]
        prev = seg.assignment
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


def result_segments(doc) -> list[TimelineSegment]:
    """The stored timeline with each segment's full assignment rebuilt from
    the first segment's and the moves since.  Raises FormatError when the
    timeline is malformed."""
    try:
        assignment = tuple(map(_station, doc["timeline"]["assignment"]))
        segs = []
        for raw in doc["timeline"]["segments"]:
            if raw["moves"]:
                changed = list(assignment)
                for j, s in raw["moves"]:
                    if not _is_index(j, len(changed)):
                        raise IndexError(f"move of object {j!r}")
                    changed[j] = _station(s)
                assignment = tuple(changed)
            segs.append(
                TimelineSegment(
                    _number(raw["t_start"]),
                    _number(raw["t_end"]),
                    assignment,
                    tuple(raw["supports"]),
                    QuadraticPoly(*map(_number, raw["objective"])),
                )
            )
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed timeline: {type(exc).__name__} {exc}") from None
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

    Checks in one pass over the segments that their times ascend and join
    up, that their objectives are finite, that each one's assignment and
    supports fit the instance and that its stored objective is the sum of
    its stored supports' polynomials; then proves the timeline feasible
    (`check_feasible`: every object inside its station's disk, whose radius
    is set by the stored support, at every time) and checks the stored peak
    value and bounds against the timeline's peak and the stored gap against
    the stored bounds.  Feasibility makes each stored support its station's
    farthest member over its segment, so that sum is the segment's true
    objective.  Returns a list of violation messages (empty = pass); raises
    FormatError when the timeline, the peak value or the bounds cannot be
    read.

    `samples` is ignored: the feasibility proof is analytic and needs no
    sample count.  It is still taken so that callers which pass one as the
    third argument, such as the benchmark, keep working.
    """
    segs = result_segments(doc)
    value = doc["timeline"].get("value")
    if not _is_number(value):
        raise FormatError(f"malformed timeline: value {value!r}")
    upper, lower, stored_gap = doc.get("upper"), doc.get("lower"), doc.get("gap")
    if not (_is_number(upper) and _is_number(lower)
            and (stored_gap is None or _is_number(stored_gap))):
        raise FormatError("upper and lower must be numbers, and gap a number or null")
    if not segs:
        return ["empty timeline"]
    problems = []
    if abs(segs[0].t_start - 0.0) > 1e-9 or abs(segs[-1].t_end - 1.0) > 1e-9:
        problems.append("timeline does not span [0, 1]")
    n, m = instance.n, instance.m
    rows = float_rows(instance)
    malformed = False
    assignment = None
    for i, seg in enumerate(segs):
        # Equal times pass: an exact-mode segment can round to zero length.
        if not (math.isfinite(seg.t_start) and math.isfinite(seg.t_end)
                and seg.t_start <= seg.t_end):
            problems.append(f"segment {i}: times are not finite and ascending")
        if i and abs(seg.t_start - segs[i - 1].t_end) > 1e-9:
            problems.append(f"segment {i}: gap/overlap at t={seg.t_start!r}")
        stored = [seg.poly.a, seg.poly.b, seg.poly.c]
        if not all(map(math.isfinite, stored)):
            problems.append(f"segment {i}: objective is not finite")
        # Segments between moves share one assignment tuple, whose shape is
        # checked once: n objects on stations in range(m).
        if seg.assignment is not assignment:
            assignment = seg.assignment
            stations = set(assignment)
            fits = len(assignment) == n and all(_is_index(s, m) for s in stations)
        # A station's support is one of its objects, or None when it has none.
        if not fits or len(seg.supports) != m \
                or not all(sup is None and s not in stations
                           or _is_index(sup, n) and assignment[sup] == s
                           for s, sup in enumerate(seg.supports)):
            problems.append(f"segment {i}: assignment or supports do not fit n={n}, m={m}")
            malformed = True
            continue
        polys = [rows[s][sup] for s, sup in enumerate(seg.supports) if sup is not None]
        derived = list(map(sum, zip(*polys))) or [0.0, 0.0, 0.0]
        scale = max(1.0, *(abs(v) for v in stored), *(abs(v) for v in derived))
        if any(abs(a - b) > 1e-9 * scale for a, b in zip(derived, stored)):
            problems.append(f"segment {i}: stored objective {stored} != derived {derived}")
    if malformed:
        return problems
    report = check_feasible(segs, instance)
    if not report.ok:
        problems.append(
            f"infeasible: violation {report.worst_violation:.3e} at "
            f"t={report.worst_time} object {report.worst_object}"
        )
    top = max(max(seg.poly(seg.t_start), seg.poly(seg.t_end)) for seg in segs)
    peak = math.pi * top
    # The stored value is the peak that upper = pi * value reports.
    if not (_finite(value) and abs(peak - math.pi * value) <= 1e-9 * max(1.0, peak)):
        problems.append(f"stored timeline value {value} != timeline peak {top}")
    if not (_finite(upper) and _finite(lower)):
        problems.append(f"stored bounds are not finite: upper {upper}, lower {lower}")
        return problems
    if abs(peak - upper) > 1e-9 * max(1.0, peak):
        problems.append(f"stored upper {upper} != pi * timeline peak {peak}")
    if lower > upper * (1 + 1e-12) + 1e-12:
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

    The violation of object j at t is relative: (d2 - r2) / max(r2, 1), with
    d2 and r2 the squared distances of j and of the support from j's
    station, and the timeline passes when its largest is at most
    `FEASIBILITY_TOL`.  While a station keeps its members and its support
    (a run of segments), d2 and r2 are fixed quadratics, so each member is
    checked once per run: where d2 - r2 is at most 0 at the run's ends and
    at its vertex, it is at most 0 over the whole run, and elsewhere
    `_peak_violation` finds the largest violation.  Values are floats.  The
    worst object and time are reported; on a tie, the lowest object, then
    the earliest time.
    """
    segments = list(segments)
    if not segments or instance.n == 0:
        return FeasibilityReport(True, 0.0)
    rows = float_rows(instance)
    first = segments[0]
    members = [set() for _ in range(instance.m)]
    for j, s in enumerate(first.assignment):
        members[s].add(j)
    supports = list(first.supports)
    starts = [float(first.t_start)] * instance.m
    worst, worst_t, worst_obj = 0.0, None, None

    def close(s, t1):
        nonlocal worst, worst_t, worst_obj
        t0, row = starts[s], rows[s]
        r = (0.0, 0.0, 0.0) if supports[s] is None else row[supports[s]]
        ra, rb, rc = r
        r0, r1 = (ra * t0 + rb) * t0 + rc, (ra * t1 + rb) * t1 + rc
        for j in members[s]:
            a, b, c = p = row[j]
            if (a * t0 + b) * t0 + c <= r0 and (a * t1 + b) * t1 + c <= r1 and (
                    a >= ra or not t0 < (rb - b) / (2 * (a - ra)) < t1
                    or c - rc - (b - rb) ** 2 / (4 * (a - ra)) <= 0):
                continue
            v, t = _peak_violation(p, r, t0, t1)
            if v > worst or v == worst and worst_obj is not None \
                    and (j, t) < (worst_obj, worst_t):
                worst, worst_t, worst_obj = v, t, j

    prev = first
    for seg in segments[1:]:
        touched = set()
        # Segments between moves share one assignment tuple.
        if seg.assignment is not prev.assignment:
            moved = moved_objects(prev.assignment, seg.assignment)
            touched.update(prev.assignment[j] for j in moved)
            touched.update(seg.assignment[j] for j in moved)
        touched.update(moved_objects(prev.supports, seg.supports))
        if touched:
            t = float(seg.t_start)
            for s in touched:
                close(s, t)
            if seg.assignment is not prev.assignment:
                for j in moved:
                    members[prev.assignment[j]].discard(j)
                    members[seg.assignment[j]].add(j)
            for s in touched:
                supports[s], starts[s] = seg.supports[s], t
        prev = seg
    t = float(prev.t_end)
    for s in range(instance.m):
        close(s, t)
    return FeasibilityReport(worst <= FEASIBILITY_TOL, worst, worst_t, worst_obj)


def _peak_violation(p, r, t0, t1) -> tuple[float, float]:
    """The largest of v(t) = (p(t) - r(t)) / max(r(t), 1) over [t0, t1] and
    the earliest of the times below that reaches it, for the coefficients p
    and r of two quadratics.  v is p - r where r <= 1, which peaks at its
    vertex, and p / r - 1 where r > 1, whose derivative has the sign of
    p'r - pr', a quadratic (the cubic terms cancel).  So v peaks at t0, at
    t1, where r crosses 1, at the vertex of p - r or at a root of p'r - pr'.
    """
    (pa, pb, pc), (ra, rb, rc) = p, r
    times = [t0, t1]
    if t0 < t1:
        if pa != ra:
            times.append(min(max(-(pb - rb) / (2 * (pa - ra)), t0), t1))
        for a, b, c in ((ra, rb, rc - 1.0),
                        (pa * rb - pb * ra, 2 * (pa * rc - pc * ra), pb * rc - pc * rb)):
            times += quadratic_roots(QuadraticPoly(a, b, c), t0, t1)
    best, best_t = -math.inf, None
    for t in sorted(times):
        d2, r2 = (pa * t + pb) * t + pc, (ra * t + rb) * t + rc
        v = (d2 - r2) / max(r2, 1.0)
        if v > best:
            best, best_t = v, t
    return best, best_t
