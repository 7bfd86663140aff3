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

The branch and bound bounds nodes by a Lagrangian relaxation of the cover
constraints, which the same orders evaluate in O(nm): with a multiplier
per uncovered object, each station independently picks its best level.  A
subgradient ascent tunes the multipliers at the root, an O(nm) greedy
completion of the relaxation's levels plus a drop-one-station local search
supplies incumbents, and float evaluation less a rounding margin keeps the
bound certified (a Fraction in exact mode).  Pruning is strict, so the
gap-0 optimum and its lexicographic tie-break are those of an exhaustive
search.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate, compress
from operator import sub

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


_LAGRANGE_STEPS = 600  # most subgradient steps at the root
_HEURISTIC_PERIOD = 3  # subgradient steps between primal heuristic runs
_AVERAGE = 0.03  # weight of the newest Lagrangian solution in the average
_STEP_START, _STEP_MAX = 0.1, 0.2  # Polyak step factor
_STEP_GROW, _STEP_SHRINK = 1.1, 0.66  # after an improving step / a stall
_STALL = 20  # steps without improvement before the step factor shrinks
_DIVE_PERIOD = 4096  # branch-and-bound pops between primal heuristic runs
_TIME_CHECK_PERIOD = 128  # pops between deadline checks
_QUICK_WORK = 1 << 16  # pops * n * m searched at the ratio prices before the ascent
_ULP = 2.0**-52  # spacing of doubles in [1, 2)


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
    ascending index and levels in ascending radius: radius values (exact and
    as floats), coverage bitmasks (running ORs over the prefix), candidate
    indices, the station's distance order, last[s][k] (the position in that
    order of level k's outermost object), rank[s][j] (the level at which
    object j enters the prefix, -1 if never) and reach[s][j] (that level's
    value; freach[j] holds the float values per station).
    """

    def __init__(self, candidates, n_objects: int):
        by_station: dict[int, list[int]] = {}
        for idx, cand in enumerate(candidates):
            by_station.setdefault(cand.station_index, []).append(idx)
        self.station_ids = sorted(by_station)
        self.values, self.fvalues, self.masks, self.cand_idx = [], [], [], []
        self.orders, self.last, self.rank = [], [], []
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
            self.fvalues.append([float(v) for v in vals])
            self.masks.append(masks)
            self.cand_idx.append(cids)
            self.orders.append(candidates[cids[0]].order)
            self.last.append([candidates[i].prefix - 1 for i in cids])
            self.rank.append(rank)
        self.n_stations = len(self.station_ids)
        self.n_objects = n_objects
        self.universe = (1 << n_objects) - 1
        self.covered_union = union
        # reach[s][j]: the value of the level at which station s first covers
        # object j, or `beyond` (more than any increment) if it never does.
        beyond = 1 + sum(vals[-1] for vals in self.values)
        self.reach = [
            [vals[r] if r >= 0 else beyond for r in rank]
            for vals, rank in zip(self.values, self.rank)
        ]
        self.freach = list(zip(*[[float(v) for v in col] for col in self.reach]))

    def committed(self, levels):
        total = 0
        mask = 0
        for s, lvl in enumerate(levels):
            if lvl >= 0:
                total = total + self.values[s][lvl]
                mask |= self.masks[s][lvl]
        return total, mask

    def selection(self, levels):
        """The candidate indices of the given levels, ascending."""
        return tuple(sorted(self.cand_idx[s][lvl] for s, lvl in enumerate(levels) if lvl >= 0))

    def uncovered(self, covered: int):
        """One flag per object: True when the mask does not cover it."""
        return [b == "0" for b in reversed(format(covered, f"0{self.n_objects}b"))]

    def lagrangian(self, levels, weights):
        """Float Lagrangian completion value above the committed levels, for
        multipliers `weights` that are zero on covered objects.

        L = sum(weights) + sum over stations of min(0, min over levels k
        above the committed one of (v_k - v_committed - weights of the
        objects in prefix k)); a valid lower bound for any weights >= 0.
        Returns L, each station's minimizing level, the magnitude that
        bounds L's rounding error (see `_margin`), and per station the list
        of v_k - (weights in prefix k) over the levels above the committed
        one (None at the top level).
        """
        total = sum(weights)
        scale = total * (self.n_stations + 2)
        chosen = list(levels)
        reduced_all = []
        for s in range(self.n_stations):
            fv = self.fvalues[s]
            lvl = levels[s]
            scale += 3.0 * fv[-1]
            if lvl + 1 == len(fv):
                reduced_all.append(None)
                continue
            sums = list(accumulate(map(weights.__getitem__, self.orders[s])))
            reduced = list(map(sub, fv[lvl + 1 :], map(sums.__getitem__, self.last[s][lvl + 1 :])))
            reduced_all.append(reduced)
            low = min(reduced)
            gain = low - (fv[lvl] if lvl >= 0 else 0.0)
            if gain < 0.0:
                total += gain
                chosen[s] = lvl + 1 + reduced.index(low)
        return total, chosen, scale, reduced_all

    def cover_counts(self, levels):
        """How many of the given levels cover each object."""
        count = [0] * self.n_objects
        for s, lvl in enumerate(levels):
            if lvl >= 0:
                for j in self.orders[s][: self.last[s][lvl] + 1]:
                    count[j] += 1
        return count

    def complete(self, levels):
        """Primal heuristic: raise levels until every object is covered, then
        lower every level whose outermost objects are covered twice.

        Uncovered objects are taken in descending order of their cheapest
        single-station increment, each raising the station that covers it at
        the least increment (lowest station on ties).  The lowering pass
        visits stations by descending radius.  O(nm) over the float values;
        returns the levels and their exact cost.
        """
        m, n = self.n_stations, self.n_objects
        fv, rank, last, orders = self.fvalues, self.rank, self.last, self.orders
        levels = list(levels)
        count = self.cover_counts(levels)
        cur = [fv[s][lvl] if lvl >= 0 else 0.0 for s, lvl in enumerate(levels)]

        def cheapest(j):
            # (increment, station) of the cheapest raise covering object j
            return min(zip(map(sub, self.freach[j], cur), range(m)))

        need = sorted((-cheapest(j)[0], j) for j in range(n) if not count[j])
        for _, j in need:
            if count[j]:
                continue
            s = cheapest(j)[1]
            r = rank[s][j]
            lo = last[s][levels[s]] + 1 if levels[s] >= 0 else 0
            for i in orders[s][lo : last[s][r] + 1]:
                count[i] += 1
            levels[s] = r
            cur[s] = fv[s][r]

        by_radius = sorted(
            (s for s in range(m) if levels[s] >= 0), key=lambda s: (-fv[s][levels[s]], s)
        )
        for s in by_radius:
            order, end = orders[s], last[s][levels[s]]
            p = end
            while p >= 0 and count[order[p]] > 1:
                p -= 1
            new = rank[s][order[p]] if p >= 0 else -1
            keep = last[s][new] if new >= 0 else -1
            for i in order[keep + 1 : end + 1]:
                count[i] -= 1
            levels[s] = new
        return tuple(levels), self.committed(levels)[0]

    def improve(self, levels, cost):
        """Local search on a cover: drop one station (largest radius first),
        re-cover with `complete`, keep the first cheaper result, and repeat
        until no drop pays.  Returns the levels and their exact cost."""
        improved = True
        while improved:
            improved = False
            used = [s for s in range(self.n_stations) if levels[s] >= 0]
            used.sort(key=lambda s: (-self.fvalues[s][levels[s]], s))
            for s in used:
                trial, trial_cost = self.complete(levels[:s] + (-1,) + levels[s + 1 :])
                if trial_cost < cost:
                    levels, cost, improved = trial, trial_cost, True
                    break
        return levels, cost


def _margin(scale: float, lv: _Prefixes) -> float:
    """Bound on the rounding error of a float Lagrangian value of the given
    magnitude: every partial sum has at most n + m + 8 terms, each carrying
    at most a few units of roundoff.  Exact values enter as their nearest
    doubles (Fraction and QuadraticNumber both round correctly), which adds
    half a unit each."""
    return scale * (lv.n_objects + lv.n_stations + 8) * _ULP * 4.0


class BranchBoundBackend(SolverBackend):
    """Best-first branch and bound over per-station radius-level choices.

    Each station picks one of its nested candidates or stays unused; the
    search branches on the uncovered object whose cheapest single-disk
    increment is largest, assigning it to each station in turn.

    Bounds come from a Lagrangian relaxation of the cover constraints: for
    multipliers u >= 0 on the uncovered objects, each station independently
    picks the level minimizing its increment minus the u of the objects it
    covers, an O(nm) pass over the shared orders (`_Prefixes.lagrangian`).
    A node's bound is the committed area plus the larger of that value and
    the max-min single-disk increment.  Each child is pushed with the same
    relaxation, its station forced to the child's level or above, so a
    child that cannot beat the incumbent is never queued.  The float
    Lagrangian value is lowered by a rounding margin (`_margin`) and, in
    exact mode, enters the bound as the Fraction of that float, so every
    bound stays certified.

    The search first runs at the ratio prices (each object charged its best
    increment-per-covered-object ratio; their Lagrangian value is the
    additive pricing bound) for a fixed amount of work, pops * n * m, which
    settles small instances.  Otherwise a deflected subgradient ascent
    (`_ascend`) raises the root bound, with the primal heuristic
    (`_Prefixes.complete`, then `_Prefixes.improve`) supplying incumbents;
    when the incumbent is within the target gap of the bound the root
    returns at once, and else the search restarts at the ascent's u.  The
    heuristic also runs every `_DIVE_PERIOD` pops.

    Pruning is strict (only nodes whose bound exceeds the incumbent), so at
    gap 0 every optimal selection stays reachable and ties among them
    resolve to the lexicographically smallest candidate index list.
    """

    def solve(self, candidates, n_objects, target_gap, time_limit):
        if n_objects == 0:
            return [], 0
        lv = _Prefixes(candidates, n_objects)
        if lv.covered_union != lv.universe:
            missing = next(j for j in range(n_objects) if not (lv.covered_union >> j) & 1)
            raise InfeasibleCoverError(f"object {missing} is covered by no candidate")

        start = _time.perf_counter()
        deadline = start + time_limit if time_limit != math.inf else math.inf
        u = self._ratio_prices(lv)
        best = lv.complete(lv.lagrangian((-1,) * lv.n_stations, u)[1])
        quick_pops = _QUICK_WORK // (lv.n_objects * lv.n_stations)
        best, lower, done = self._search(lv, u, best, target_gap, deadline, quick_pops)
        if not done:
            u, best = self._ascend(lv, u, best, target_gap, deadline)
            best, deeper, _ = self._search(lv, u, best, target_gap, deadline, math.inf)
            lower = max(lower, deeper)
        levels, cost = best
        return list(lv.selection(levels)), min(lower, cost)

    def _search(self, lv: _Prefixes, u, best, target_gap, deadline, max_pops):
        """Best-first search from the root with node bounds at multipliers
        u, starting from the incumbent `best` (levels, exact cost).

        Returns the incumbent, the certified lower bound, and False only
        when max_pops ran out before the gap, the deadline or the optimum.
        """
        root = (-1,) * lv.n_stations
        best_levels, best_cost = best
        best_sel = lv.selection(best_levels)
        exact = not isinstance(best_cost, float)
        heap = [(0, 0, root, None)]
        seq = 1
        visited: set[tuple] = set()
        lower = 0
        pops = 0

        while heap:
            key, _, levels, branching = heapq.heappop(heap)
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
            if pops == max_pops:
                return (best_levels, best_cost), lower, False
            pops += 1
            if pops % _TIME_CHECK_PERIOD == 0 and _time.perf_counter() > deadline:
                break
            committed, covered = lv.committed(levels)
            if covered == lv.universe:
                visited.add(levels)
                sel = lv.selection(levels)
                if committed < best_cost or (committed == best_cost and sel < best_sel):
                    best_cost, best_levels, best_sel = committed, levels, sel
                continue
            if branching is None:
                bound, branching = self._evaluate(lv, levels, committed, covered, u, exact)
                if bound > key:
                    heapq.heappush(heap, (bound, seq, levels, branching))
                    seq += 1
                    continue
            visited.add(levels)
            if pops % _DIVE_PERIOD == 0:
                weights = [x if o else 0.0 for o, x in zip(lv.uncovered(covered), u)]
                dl, dc = lv.improve(*lv.complete(lv.lagrangian(levels, weights)[1]))
                if dc < best_cost:
                    best_cost, best_levels = dc, dl
                    best_sel = lv.selection(dl)
            j, children = branching
            for s, forced in enumerate(children):
                if forced is None:
                    continue
                new_lvl = lv.rank[s][j]
                child = levels[:s] + (new_lvl,) + levels[s + 1 :]
                if child in visited:
                    continue
                cur_val = lv.values[s][levels[s]] if levels[s] >= 0 else 0
                child_key = max(committed + lv.values[s][new_lvl] - cur_val, forced)
                if child_key > best_cost:
                    continue
                heapq.heappush(heap, (child_key, seq, child, None))
                seq += 1
        else:
            lower = best_cost
        return (best_levels, best_cost), lower, True

    @staticmethod
    def _ratio_prices(lv: _Prefixes):
        """Each object's cheapest value-per-covered-object over the levels
        that cover it.  Their Lagrangian value at the root is the additive
        pricing bound: every object charged its best ratio."""
        u = [math.inf] * lv.n_objects
        for fv, last, rank in zip(lv.fvalues, lv.last, lv.rank):
            ratios = [v / (e + 1) for v, e in zip(fv, last)]
            suffix = list(accumulate(reversed(ratios), min))[::-1]
            for j, r in enumerate(rank):
                if r >= 0 and suffix[r] < u[j]:
                    u[j] = suffix[r]
        return u

    def _ascend(self, lv: _Prefixes, u, best, target_gap, deadline):
        """Root ascent on the Lagrangian multipliers from u (the volume
        variant of deflected subgradient: each step moves from the best
        multipliers so far along the cover violation of an exponential
        average of the Lagrangian solutions).  Every few steps the primal
        heuristic completes the Lagrangian's chosen levels.

        Returns the multipliers with the best Lagrangian value and the best
        cover (levels, exact cost) found, starting from `best`.
        """
        root = (-1,) * lv.n_stations
        best_levels, best_cost = best
        val, chosen, scale, _ = lv.lagrangian(root, u)
        best_val, best_u = val - _margin(scale, lv), u
        average = [float(c) for c in lv.cover_counts(chosen)]
        step, stalled = _STEP_START, 0
        for it in range(1, _LAGRANGE_STEPS):
            upper = float(best_cost)
            if upper <= best_val * (1.0 + target_gap) or _time.perf_counter() > deadline:
                break
            direction = [
                0.0 if x == 0.0 and a > 1.0 else 1.0 - a for x, a in zip(best_u, average)
            ]
            norm = sum(d * d for d in direction)
            if norm == 0.0:
                break
            t = step * (upper - best_val) / norm
            u = [max(0.0, x + t * d) for x, d in zip(best_u, direction)]
            val, chosen, scale, _ = lv.lagrangian(root, u)
            val -= _margin(scale, lv)
            counts = lv.cover_counts(chosen)
            if val > best_val:
                if sum(d * (1 - c) for d, c in zip(direction, counts)) > 0:
                    step = min(step * _STEP_GROW, _STEP_MAX)
                best_val, best_u, stalled = val, u, 0
            else:
                stalled += 1
                if stalled == _STALL:
                    step *= _STEP_SHRINK
                    stalled = 0
            average = [_AVERAGE * c + (1.0 - _AVERAGE) * a for c, a in zip(counts, average)]
            if it % _HEURISTIC_PERIOD == 0:
                levels, cost = lv.complete(chosen)
                if cost < best_cost:
                    best_levels, best_cost = levels, cost
        return best_u, lv.improve(best_levels, best_cost)

    def _evaluate(self, lv: _Prefixes, levels, committed, covered, u, exact):
        """Admissible completion bound, the branch object (argmax of the min
        single-disk increment, lowest index on ties) and, per station, a
        bound on the child that raises it to cover that object (None where
        it cannot): the Lagrangian at the root multipliers with the station
        forced to the child's level or above."""
        cols = []
        for s, lvl in enumerate(levels):
            reach = lv.reach[s]
            if lvl >= 0:
                cur = lv.values[s][lvl]
                reach = [r - cur for r in reach]
            cols.append(reach)
        cheapest = [min(incs) for incs in zip(*cols)]
        is_open = lv.uncovered(covered)
        maxmin = max(compress(cheapest, is_open))
        if maxmin > 0:
            j = next(j for j in compress(range(lv.n_objects), is_open) if cheapest[j] == maxmin)
        else:
            # All uncovered objects tie at zero increment; branch on the lowest.
            maxmin = 0
            j = is_open.index(True)
        weights = [x if o else 0.0 for o, x in zip(is_open, u)]
        total, chosen, scale, reduced = lv.lagrangian(levels, weights)
        margin = _margin(scale + abs(float(committed)), lv)

        def certified(value):
            value -= margin
            return committed + (Fraction(value) if exact else value)

        children = []
        for s, lvl in enumerate(levels):
            new_lvl = lv.rank[s][j]
            if new_lvl <= lvl:
                children.append(None)
                continue
            red = reduced[s]
            base = lv.fvalues[s][lvl] if lvl >= 0 else 0.0
            term = red[chosen[s] - lvl - 1] - base if chosen[s] > lvl else 0.0
            children.append(certified(total - term + min(red[new_lvl - lvl - 1 :]) - base))
        return max(committed + maxmin, certified(total)), (j, children)


class MilpBackend(SolverBackend):
    """Weighted set cover through scipy's HiGHS MILP solver.

    Optional heavier backend; float arithmetic only, and it does not honor
    the lexicographic tie-break among equal-cost optima.  When HiGHS stops
    without a feasible point (at its time limit), the greedy cover of
    `_Prefixes.complete` is returned with HiGHS's dual bound, or 0 when it
    has none, so `solve_exact` flags the result `timed_out`.
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
            # No primal point (a time limit): fall back on the greedy cover
            # and keep whatever dual bound HiGHS proved.
            lv = _Prefixes(candidates, n_objects)
            selected = lv.selection(lv.complete((-1,) * lv.n_stations)[0])
            lower = res.mip_dual_bound or 0.0
        else:
            selected = [i for i, v in enumerate(res.x) if v > 0.5]
            lower = res.mip_dual_bound if res.mip_dual_bound is not None else res.fun
        return selected, max(float(lower), 0.0)


DEFAULT_BACKEND = BranchBoundBackend()


def _solution_from_selection(candidates, selected, n_objects, n_stations, lower):
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
        tuple(assignment), tuple(radius), total, lower, tuple(sorted(selected))
    )


def solve_exact(
    candidates,
    n_objects: int,
    n_stations: int,
    target_gap: float = 0.0,
    time_limit: float = math.inf,
    backend: SolverBackend | None = None,
) -> StaticSolution:
    """Certified stationary solve over a candidate set.

    Returns a solution with (cost - lower_bound) / lower_bound <= target_gap
    unless the time limit cuts the search short, in which case the achieved
    bound is reported and the solution is flagged `timed_out`.
    """
    if n_objects == 0:
        return StaticSolution((), (0,) * n_stations, 0, 0)
    backend = backend or DEFAULT_BACKEND
    selected, lower = backend.solve(candidates, n_objects, target_gap, time_limit)
    sol = _solution_from_selection(candidates, selected, n_objects, n_stations, lower)
    achieved = sol.gap
    timed_out = achieved > target_gap and not math.isclose(
        achieved, target_gap, rel_tol=1e-9, abs_tol=1e-15
    )
    return replace(sol, timed_out=True) if timed_out else sol


def brute_force_cover(candidates, n_objects: int, n_stations: int) -> StaticSolution:
    """Exhaustive optimum over per-station radius-level choices.

    Test oracle only; guarded to small instances.  Unlike the backend it
    walks the candidates' coverage sets, so it stays independent of the
    nested-level model the branch and bound exploits.
    """
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
