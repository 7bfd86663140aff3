"""Stationary disk cover at a fixed time.

Candidate enumeration, the nearest-neighbor heuristic, a best-first
branch-and-bound exact solver with a certified lower bound, and a brute
force oracle for tests.  Costs are tracked internally as sums of squared
radii (area / pi); the pi factor is applied in the reported `cost` and
`lower_bound` so that exact-arithmetic runs keep rational internals.

One station's candidate disks are nested by radius, so each one covers a
prefix of that station's objects sorted by distance.  That shared order is
the only coverage representation; the solvers read radius levels, bitmasks
and each object's first covering level off it in one O(nm) pass.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import MovingInstance, Point2

__all__ = [
    "CandidateDisk",
    "StaticSolution",
    "SolverBackend",
    "BranchBoundBackend",
    "MilpBackend",
    "InfeasibleCoverError",
    "enumerate_candidates",
    "nn_heuristic",
    "solve_exact",
    "brute_force_cover",
]

BRUTE_FORCE_MAX_OBJECTS = 12
_BRUTE_FORCE_MAX_COMBOS = 5_000_000


def _ratio(value, count: int):
    """value / count without losing exactness (ints become Fractions;
    floats, Fractions and QuadraticNumbers divide natively)."""
    if isinstance(value, int):
        return Fraction(value, count)
    return value / count


_DIVE_PERIOD = 4096  # branch-and-bound pops between greedy dives
_TIME_CHECK_PERIOD = 128  # pops between deadline checks


class InfeasibleCoverError(ValueError):
    """Some object is not covered by any candidate disk (malformed input)."""


@dataclass(frozen=True, slots=True)
class CandidateDisk:
    """Disk centered at a station whose radius reaches one support object.

    `order` is the station's objects sorted by (squared distance, index),
    one tuple shared by all candidates of the station; the disk covers its
    first `prefix` objects, which are exactly those within `radius_sq`.
    Equidistant objects collapse into a single candidate whose support is
    the lowest object index at that distance.
    """

    station_index: int
    support_index: int
    radius_sq: object
    order: tuple[int, ...] = field(repr=False)
    prefix: int

    @property
    def covered(self) -> frozenset[int]:
        """Covered object indices, built on each read."""
        return frozenset(self.order[: self.prefix])


@dataclass(frozen=True)
class StaticSolution:
    """Feasible assignment with per-station radii and a certified bound.

    `total_radius_sq` and `lower_radius_sq` are pi-free (exact in exact
    mode); `cost`, `lower_bound` and `gap` are the reported float values
    with the pi factor applied where areas are concerned.
    """

    assignment: tuple[int, ...]
    radius_sq: tuple
    total_radius_sq: object
    lower_radius_sq: object
    selected: tuple[int, ...] = ()
    timed_out: bool = False

    @property
    def cost(self) -> float:
        return math.pi * float(self.total_radius_sq)

    @property
    def lower_bound(self) -> float:
        return math.pi * float(self.lower_radius_sq)

    @property
    def gap(self) -> float:
        hi = float(self.total_radius_sq)
        lo = float(self.lower_radius_sq)
        if lo <= 0.0:
            return 0.0 if hi <= 0.0 else math.inf
        return (hi - lo) / lo


def _dist_sq(a: Point2, b: Point2):
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def enumerate_candidates(instance: MovingInstance, t) -> list[CandidateDisk]:
    """All station/support candidate disks at time t, station-major and by
    ascending radius within a station (so coverage prefixes form chains)."""
    out: list[CandidateDisk] = []
    positions = [obj.at(t) for obj in instance.objects]
    n = len(positions)
    for si, st in enumerate(instance.stations):
        dists = sorted((_dist_sq(st, p), j) for j, p in enumerate(positions))
        order = tuple([j for _, j in dists])
        first = 0  # start of the current run of equidistant objects
        for k, (r2, _) in enumerate(dists):
            if k + 1 == n or dists[k + 1][0] != r2:
                out.append(CandidateDisk(si, order[first], r2, order, k + 1))
                first = k + 1
    return out


def nn_heuristic(instance: MovingInstance, t) -> StaticSolution:
    """Assign each object to its nearest station, walking objects in
    descending order of that distance and absorbing everything the grown
    disk covers.  Provides no lower bound.

    Ties: equidistant objects are processed lower-index first; equidistant
    stations resolve to the lower station index.
    """
    n, m = instance.n, instance.m
    if n == 0:
        return StaticSolution((), (0,) * m, 0, 0)
    positions = [obj.at(t) for obj in instance.objects]
    d2 = [[_dist_sq(st, p) for st in instance.stations] for p in positions]
    nearest = [min(range(m), key=lambda i, j=j: (d2[j][i], i)) for j in range(n)]
    order = sorted(range(n), key=lambda j: (-d2[j][nearest[j]], j))

    assignment = [-1] * n
    radius = [0] * m
    covered = [False] * n
    for j in order:
        if covered[j]:
            continue
        s = nearest[j]
        if d2[j][s] > radius[s]:
            radius[s] = d2[j][s]
        for o in range(n):
            if not covered[o] and d2[o][s] <= radius[s]:
                covered[o] = True
                assignment[o] = s
    return StaticSolution(tuple(assignment), tuple(radius), sum(radius), 0)


class SolverBackend:
    """Extension point for the exact stationary solver.

    solve(candidates, n_objects, target_gap, time_limit) must return
    (selected candidate indices, lower bound on the sum of squared radii)
    with the selection covering every object in range(n_objects) and the
    bound never exceeding the optimal sum.  Candidates are laid out as
    `enumerate_candidates` produces them: each covers a prefix of its
    station's shared distance order, so one station's disks are nested.
    """

    def solve(self, candidates, n_objects, target_gap, time_limit):
        raise NotImplementedError


class _Prefixes:
    """Per-station levels read off the shared distance orders, stations in
    ascending index and levels in ascending radius: radius values, coverage
    bitmasks (running ORs over the prefix), candidate indices, and
    rank[s][j], the level at which object j enters the prefix (-1 if never).
    """

    def __init__(self, candidates, n_objects: int):
        by_station: dict[int, list[int]] = {}
        for idx, cand in enumerate(candidates):
            by_station.setdefault(cand.station_index, []).append(idx)
        self.station_ids = sorted(by_station)
        self.values, self.masks, self.cand_idx, self.rank = [], [], [], []
        union = 0
        for sid in self.station_ids:
            cids = sorted(by_station[sid], key=lambda i: candidates[i].prefix)
            vals, masks, rank = [], [], [-1] * n_objects
            mask = done = 0
            for lvl, idx in enumerate(cids):
                cand = candidates[idx]
                for j in cand.order[done : cand.prefix]:
                    mask |= 1 << j
                    rank[j] = lvl
                done = cand.prefix
                vals.append(cand.radius_sq)
                masks.append(mask)
            union |= mask
            self.values.append(vals)
            self.masks.append(masks)
            self.cand_idx.append(cids)
            self.rank.append(rank)
        self.n_stations = len(self.station_ids)
        self.universe = (1 << n_objects) - 1
        self.covered_union = union

    def committed(self, levels):
        total = 0
        mask = 0
        for s, lvl in enumerate(levels):
            if lvl >= 0:
                total = total + self.values[s][lvl]
                mask |= self.masks[s][lvl]
        return total, mask


class BranchBoundBackend(SolverBackend):
    """Best-first branch and bound over per-station radius-level choices.

    Each station picks one of its nested candidates or stays unused; the
    search branches on the uncovered object whose cheapest single-disk
    increment is largest, assigning it to each station in turn.  The node
    bound is the committed area plus the larger of two admissible terms:
    that max-min increment, and an additive pricing bound that charges
    every uncovered object its best increment-per-newly-covered-object
    ratio.  Ties among optimal selections resolve to the lexicographically
    smallest candidate index list.
    """

    def solve(self, candidates, n_objects, target_gap, time_limit):
        if n_objects == 0:
            return [], 0
        lv = _Prefixes(candidates, n_objects)
        if lv.covered_union != lv.universe:
            missing = next(j for j in range(n_objects) if not (lv.covered_union >> j) & 1)
            raise InfeasibleCoverError(f"object {missing} is covered by no candidate")

        m = lv.n_stations
        root = (-1,) * m
        start = _time.perf_counter()
        deadline = start + time_limit if time_limit != math.inf else math.inf

        best_levels, best_cost = self._dive(lv, root, 0, 0)
        best_sel = self._selection(lv, best_levels)

        bound0, branch0 = self._evaluate(lv, root, 0, 0)
        heap = [(bound0, 0, root, branch0)]
        seq = 1
        visited: set[tuple] = set()
        lower = 0
        pops = 0
        timed_out = False

        while heap:
            key, _, levels, branch_obj = heapq.heappop(heap)
            if levels in visited:
                continue
            if key > lower:
                lower = key
            if key > best_cost:
                lower = best_cost
                break
            # The gap stop is a float-level tolerance even in exact mode;
            # the bounds themselves stay exact.
            if target_gap > 0 and float(best_cost) <= float(lower) * (1.0 + target_gap):
                break
            pops += 1
            if pops % _TIME_CHECK_PERIOD == 0 and _time.perf_counter() > deadline:
                timed_out = True
                break
            committed, covered = lv.committed(levels)
            if branch_obj is None:
                bound, branch_obj = self._evaluate(lv, levels, committed, covered)
                if bound > key:
                    heapq.heappush(heap, (bound, seq, levels, branch_obj))
                    seq += 1
                    continue
            visited.add(levels)
            if covered == lv.universe:
                sel = self._selection(lv, levels)
                if committed < best_cost or (committed == best_cost and sel < best_sel):
                    best_cost, best_levels, best_sel = committed, levels, sel
                continue
            if pops % _DIVE_PERIOD == 0:
                dl, dc = self._dive(lv, levels, committed, covered)
                if dc < best_cost:
                    best_cost, best_levels = dc, dl
                    best_sel = self._selection(lv, dl)
            j = branch_obj
            for s in range(m):
                new_lvl = lv.rank[s][j]
                if new_lvl < 0:
                    continue
                if new_lvl <= levels[s]:
                    continue
                child = levels[:s] + (new_lvl,) + levels[s + 1 :]
                if child in visited:
                    continue
                cur_val = lv.values[s][levels[s]] if levels[s] >= 0 else 0
                child_committed = committed + lv.values[s][new_lvl] - cur_val
                if child_committed > best_cost:
                    continue
                heapq.heappush(heap, (child_committed, seq, child, None))
                seq += 1
        else:
            lower = best_cost

        if lower > best_cost:
            lower = best_cost
        return list(best_sel), lower

    def _evaluate(self, lv: _Prefixes, levels, committed, covered):
        """Admissible completion bound and the branch object (argmax of the
        min single-disk increment, lowest index on ties)."""
        uncovered = lv.universe & ~covered
        maxmin = 0
        branch_obj = None
        price_total = 0
        m = lv.n_stations
        cur_vals = [lv.values[s][levels[s]] if levels[s] >= 0 else 0 for s in range(m)]
        # Suffix-min increment/new-coverage ratio per station level.
        sufmin = []
        for s in range(m):
            vals, masks = lv.values[s], lv.masks[s]
            lo = levels[s] + 1
            arr = [None] * len(vals)
            running = None
            for k in range(len(vals) - 1, lo - 1, -1):
                cnt = (masks[k] & uncovered).bit_count()
                if cnt:
                    ratio = _ratio(vals[k] - cur_vals[s], cnt)
                    if running is None or ratio < running:
                        running = ratio
                arr[k] = running
            sufmin.append(arr)
        j = 0
        rem = uncovered
        while rem:
            low = rem & -rem
            j = low.bit_length() - 1
            rem ^= low
            min_inc = None
            min_price = None
            for s in range(m):
                rk = lv.rank[s][j]
                if rk < 0:
                    continue
                inc = lv.values[s][rk] - cur_vals[s]
                if min_inc is None or inc < min_inc:
                    min_inc = inc
                pr = sufmin[s][rk]
                if pr is not None and (min_price is None or pr < min_price):
                    min_price = pr
            if min_inc is not None and min_inc > maxmin:
                maxmin = min_inc
                branch_obj = j
            if min_price is not None:
                price_total = price_total + min_price
        if branch_obj is None:
            # All uncovered objects tie at zero increment; branch on the lowest.
            branch_obj = (uncovered & -uncovered).bit_length() - 1
        bound = committed + (maxmin if maxmin > price_total else price_total)
        return bound, branch_obj

    def _dive(self, lv: _Prefixes, levels, committed, covered):
        """Greedy completion by best increment-per-new-object ratio."""
        levels = list(levels)
        while covered != lv.universe:
            uncovered = lv.universe & ~covered
            best = None
            for s in range(lv.n_stations):
                cur_val = lv.values[s][levels[s]] if levels[s] >= 0 else 0
                vals, masks = lv.values[s], lv.masks[s]
                for k in range(levels[s] + 1, len(vals)):
                    cnt = (masks[k] & uncovered).bit_count()
                    if cnt == 0:
                        continue
                    ratio = _ratio(vals[k] - cur_val, cnt)
                    cand = (ratio, s, k)
                    if best is None or cand < best:
                        best = cand
            _, s, k = best
            cur_val = lv.values[s][levels[s]] if levels[s] >= 0 else 0
            committed = committed + lv.values[s][k] - cur_val
            covered |= lv.masks[s][k]
            levels[s] = k
        return tuple(levels), committed

    def _selection(self, lv: _Prefixes, levels):
        return tuple(sorted(lv.cand_idx[s][lvl] for s, lvl in enumerate(levels) if lvl >= 0))


class MilpBackend(SolverBackend):
    """Weighted set cover through scipy's HiGHS MILP solver.

    Optional heavier backend; float arithmetic only, and it does not honor
    the lexicographic tie-break among equal-cost optima.
    """

    def solve(self, candidates, n_objects, target_gap, time_limit):
        try:
            from scipy import optimize, sparse
        except ImportError as exc:  # pragma: no cover
            raise RuntimeError("MilpBackend requires scipy") from exc
        import numpy as np

        k = len(candidates)
        if n_objects == 0 or k == 0:
            if n_objects:
                raise InfeasibleCoverError("no candidates for a nonempty object set")
            return [], 0
        rows, cols = [], []
        for idx, cand in enumerate(candidates):
            rows.extend(cand.order[: cand.prefix])
            cols.extend([idx] * cand.prefix)
        cover = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n_objects, k)
        )
        if int(cover.sum(axis=1).min()) == 0:
            raise InfeasibleCoverError("some object is covered by no candidate")
        cost = np.array([float(c.radius_sq) for c in candidates])
        options = {"mip_rel_gap": max(target_gap, 0.0)}
        if time_limit != math.inf:
            options["time_limit"] = max(time_limit, 0.001)
        res = optimize.milp(
            c=cost,
            constraints=optimize.LinearConstraint(cover, lb=1, ub=np.inf),
            integrality=np.ones(k),
            bounds=optimize.Bounds(0, 1),
            options=options,
        )
        if res.x is None:
            raise RuntimeError(f"MILP solve failed: {res.message}")
        selected = [i for i, v in enumerate(res.x) if v > 0.5]
        lower = res.mip_dual_bound if res.mip_dual_bound is not None else res.fun
        return selected, max(float(lower), 0.0)


DEFAULT_BACKEND = BranchBoundBackend()


def _infer_counts(candidates, n_objects, n_stations):
    if n_objects is None:
        n_objects = max((len(c.order) for c in candidates), default=0)
    if n_stations is None:
        n_stations = max((c.station_index for c in candidates), default=-1) + 1
    return n_objects, n_stations


def _solution_from_selection(candidates, selected, n_objects, n_stations, lower, timed_out=False):
    radius = [0] * n_stations
    for i in selected:
        c = candidates[i]
        if c.radius_sq > radius[c.station_index]:
            radius[c.station_index] = c.radius_sq
    # Each object's true distance to a station is the radius of the first of
    # that station's levels covering it (every pair has its own disk).
    stations_sel = sorted({candidates[i].station_index for i in selected})
    lv = _Prefixes([c for c in candidates if c.station_index in stations_sel], n_objects)
    assignment = []
    for j in range(n_objects):
        best = None
        for k, s in enumerate(stations_sel):
            rk = lv.rank[k][j]
            if rk < 0:
                continue
            d = lv.values[k][rk]
            if d > radius[s]:
                continue
            if best is None or (d, s) < best:
                best = (d, s)
        if best is None:
            raise InfeasibleCoverError(f"selection does not cover object {j}")
        assignment.append(best[1])
    total = sum(radius)
    if lower > total:
        lower = total
    return StaticSolution(
        tuple(assignment), tuple(radius), total, lower, tuple(sorted(selected)), timed_out
    )


def solve_exact(
    candidates,
    n_objects: int | None = None,
    n_stations: int | None = None,
    target_gap: float = 0.0,
    time_limit: float = math.inf,
    backend: SolverBackend | None = None,
) -> StaticSolution:
    """Certified stationary solve over a candidate set.

    Returns a solution with (cost - lower_bound) / lower_bound <= target_gap
    unless the time limit cuts the search short, in which case the achieved
    bound is reported and the solution is flagged `timed_out`.
    """
    n_objects, n_stations = _infer_counts(candidates, n_objects, n_stations)
    if n_objects == 0:
        return StaticSolution((), (0,) * n_stations, 0, 0)
    backend = backend or DEFAULT_BACKEND
    selected, lower = backend.solve(candidates, n_objects, target_gap, time_limit)
    sol = _solution_from_selection(candidates, selected, n_objects, n_stations, lower)
    achieved = sol.gap
    timed_out = achieved > target_gap and not math.isclose(
        achieved, target_gap, rel_tol=1e-9, abs_tol=1e-15
    )
    if timed_out:
        sol = StaticSolution(
            sol.assignment, sol.radius_sq, sol.total_radius_sq,
            sol.lower_radius_sq, sol.selected, True,
        )
    return sol


def brute_force_cover(
    candidates, n_objects: int | None = None, n_stations: int | None = None
) -> StaticSolution:
    """Exhaustive optimum over per-station radius-level choices.

    Test oracle only; guarded to small instances.  Unlike the backend it
    walks the candidates' coverage sets, so it stays independent of the
    nested-level model the branch and bound exploits.
    """
    n_objects, n_stations = _infer_counts(candidates, n_objects, n_stations)
    if n_objects > BRUTE_FORCE_MAX_OBJECTS:
        raise ValueError(
            f"brute force is guarded to n <= {BRUTE_FORCE_MAX_OBJECTS}, got {n_objects}"
        )
    if n_objects == 0:
        return StaticSolution((), (0,) * n_stations, 0, 0)
    by_station: dict[int, list[int]] = {}
    for idx, c in enumerate(candidates):
        by_station.setdefault(c.station_index, []).append(idx)
    station_ids = sorted(by_station)
    options = []
    combos = 1
    for sid in station_ids:
        opts = [None] + sorted(by_station[sid], key=lambda i: (candidates[i].radius_sq, i))
        options.append(opts)
        combos *= len(opts)
        if combos > _BRUTE_FORCE_MAX_COMBOS:
            raise ValueError("instance exceeds brute force combination guard")
    covered_by = [c.covered for c in candidates]
    universe = frozenset(range(n_objects))
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
                cost_opt = cost + candidates[opt].radius_sq
                walk(depth + 1, chosen + [opt], covered | covered_by[opt], cost_opt)

    walk(0, [], frozenset(), 0)
    if best_sel is None:
        raise InfeasibleCoverError("no feasible cover exists for the candidate set")
    return _solution_from_selection(
        candidates, list(best_sel), n_objects, n_stations, best_cost
    )
