import math
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kdcover.certificate import (FEASIBILITY_TOL, FeasibilityReport,  # noqa: E402
                                  _finite, _is_index, _is_number, _number, _peak_violation,
                                  _station, float_rows, moved_objects, squared_floor)
from kdcover.envelope import TimelineSegment  # noqa: E402
from kdcover.geometry import MovingInstance, Point2, QuadraticPoly, Trajectory  # noqa: E402
from kdcover.instances import FormatError  # noqa: E402
from kdcover.static_cover import (Candidates, StaticSolution,  # noqa: E402
                                  _solution_from_selection, ratio_gap)


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


# -- the checker as it was before its one walk over the stored moves ----------
#
# `reference_verify_result` and `reference_check_feasible` are the checks
# that `kdcover.certificate` made in four reads of a result: every
# segment's full assignment rebuilt (`_reference_segments`), a loop that
# checks each segment's supports and objective, a separate feasibility walk
# that diffs the rebuilt assignments back into moves, and a pass for the
# peak.  Tests hold the one-walk checker to their problem lists and reports.


def _reference_segments(doc) -> list[TimelineSegment]:
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


def reference_verify_result(doc, instance: MovingInstance) -> list[str]:
    segs = _reference_segments(doc)
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
    floor = squared_floor(instance)
    malformed = False
    assignment = None
    for i, seg in enumerate(segs):
        if not (math.isfinite(seg.t_start) and math.isfinite(seg.t_end)
                and seg.t_start <= seg.t_end):
            problems.append(f"segment {i}: times are not finite and ascending")
        if i and abs(seg.t_start - segs[i - 1].t_end) > 1e-9:
            problems.append(f"segment {i}: gap/overlap at t={seg.t_start!r}")
        stored = [seg.poly.a, seg.poly.b, seg.poly.c]
        if not all(map(math.isfinite, stored)):
            problems.append(f"segment {i}: objective is not finite")
        if seg.assignment is not assignment:
            assignment = seg.assignment
            stations = set(assignment)
            fits = len(assignment) == n and all(_is_index(s, m) for s in stations)
        if not fits or len(seg.supports) != m \
                or not all(sup is None and s not in stations
                           or _is_index(sup, n) and assignment[sup] == s
                           for s, sup in enumerate(seg.supports)):
            problems.append(f"segment {i}: assignment or supports do not fit n={n}, m={m}")
            malformed = True
            continue
        polys = [rows[s][sup] for s, sup in enumerate(seg.supports) if sup is not None]
        derived = list(map(sum, zip(*polys))) or [0.0, 0.0, 0.0]
        scale = max(floor, *(abs(v) for v in stored), *(abs(v) for v in derived))
        if any(abs(a - b) > 1e-9 * scale for a, b in zip(derived, stored)):
            problems.append(f"segment {i}: stored objective {stored} != derived {derived}")
    if malformed:
        return problems
    report = _reference_walk(segs, instance, rows, floor)
    if not report.ok:
        problems.append(
            f"infeasible: violation {report.worst_violation:.3e} at "
            f"t={report.worst_time} object {report.worst_object}"
        )
    top = max(max(seg.poly(seg.t_start), seg.poly(seg.t_end)) for seg in segs)
    peak, peak_floor = math.pi * top, math.pi * floor
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
    gap = None if math.isinf(gap) else gap
    if stored_gap is None or gap is None:
        same = stored_gap is gap
    else:
        same = _finite(stored_gap) and abs(stored_gap - gap) <= 1e-12 * max(1.0, gap)
    if not same:
        problems.append(f"stored gap {stored_gap!r} != gap {gap!r} of the stored bounds")
    return problems


def reference_check_feasible(segments, instance: MovingInstance) -> FeasibilityReport:
    return _reference_walk(list(segments), instance, float_rows(instance),
                           squared_floor(instance))


def _reference_walk(segments, instance, rows, floor) -> FeasibilityReport:
    if not segments or instance.n == 0:
        return FeasibilityReport(True, 0.0)
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
            v, t = _peak_violation(p, r, t0, t1, floor)
            if v > worst or v == worst and worst_obj is not None \
                    and (j, t) < (worst_obj, worst_t):
                worst, worst_t, worst_obj = v, t, j

    prev = first
    for seg in segments[1:]:
        touched = set()
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
