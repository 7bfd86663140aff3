"""Stationary disk cover at a fixed time.

Candidate enumeration, the nearest-neighbor heuristic, a best-first
branch-and-bound exact solver with a certified lower bound, and a brute
force oracle for tests.  Costs are tracked internally as sums of squared
radii (area / pi); the pi factor is applied in the reported `cost` so
that exact-arithmetic runs keep rational internals.

One station's candidate disks are nested by radius, so each one covers a
prefix of that station's objects sorted by distance.  `enumerate_candidates`
builds them once as a `Candidates`: per station, that order and its radius
levels, coverage bitmasks and each object's first covering level, in one
O(nm log n) pass.  Every solver reads that one structure.  In exact
arithmetic the distances at one time share a denominator, so the pass
sorts and compares integer keys (`_exact_columns`) and reads each level's
correctly rounded double straight off its integers; a level's exact
number is built on its first read.  The search then picks its branch
objects from the levels' doubles, computing exact increments only where a
certified error bound cannot decide (`Candidates.branch_object`).

The O(nm) passes over it (the relaxation below, cover counts, the greedy
completion's increments, the branch object's column minima) run as C-level
`itertools`/`operator` passes, gathering the multipliers in a station's
order with one `itemgetter` per station.  Each computes every float with
the same operations in the same order as an element-by-element loop
would, so selections, bounds and timelines do not depend on it.

The branch and bound bounds nodes by a Lagrangian relaxation of the cover
constraints, which the same orders evaluate in O(nm): with a multiplier
per uncovered object, each station independently picks its best level.  A
subgradient ascent tunes the multipliers at the root, an O(nm) greedy
completion of the relaxation's levels plus a drop-one-station local search
supplies incumbents, and float evaluation less a rounding margin keeps the
bound certified (a Fraction in exact mode).  Pruning is strict, so the
gap-0 optimum and its lexicographic tie-break are those of an exhaustive
search.

Each station also carries a cap, the highest level a search may still
use, and the relaxation reads a station only up to it (the primal
heuristics read every level).  Every solve starts with every cap at the
top level; the search then fixes levels by reduced cost: a level whose
certified root bound, the relaxation with the station forced to that
level, is strictly above the incumbent's cost is in no cover as cheap as
the incumbent, so each station's cap falls to its highest level that
passes, for the rest of the solve.  Caps only fall, so the ascent and the search read ever fewer
levels and branch on none past a cap, and the optimum stays within them.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
import time as _time
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, compress, repeat
from operator import add, attrgetter, ge, gt, itemgetter, le, lshift, mul, ne, or_, sub

from .exactarith import QuadraticNumber, nearest_double
from .geometry import MovingInstance

__all__ = [
    "Candidates",
    "StaticSolution",
    "SolverBackend",
    "BranchBoundBackend",
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
    """A selection of candidate disks leaves some object uncovered."""


@dataclass(frozen=True)
class StaticSolution:
    """Feasible assignment with per-station radii and a certified bound.

    `total_radius_sq` and `lower_radius_sq` are pi-free (exact in exact
    mode); `cost` and `gap` are the reported float values, with the pi
    factor applied to the area.  `stop` is the search's stop cause (see
    `SolverBackend`), None when no search ran.
    """

    assignment: tuple[int, ...]
    radius_sq: tuple
    total_radius_sq: object
    lower_radius_sq: object
    selected: tuple[int, ...] = ()
    stop: str | None = None

    @property
    def timed_out(self) -> bool:
        return self.stop == "time_limit"

    @property
    def cost(self) -> float:
        return math.pi * float(self.total_radius_sq)

    @property
    def gap(self) -> float:
        return ratio_gap(float(self.total_radius_sq), float(self.lower_radius_sq))


def ratio_gap(upper: float, lower: float) -> float:
    """(upper - lower) / lower for a positive lower bound; without one, 0
    when upper is not positive either, else infinite."""
    if lower <= 0.0:
        return 0.0 if upper <= 0.0 else math.inf
    return (upper - lower) / lower


def _distance_columns(instance: MovingInstance, t) -> list[list]:
    """Squared distances at a float time t, one list over the objects per
    station: dx * dx + dy * dy with dx = station.x - position.x, the
    position start + t * (end - start) as `Trajectory.at` computes it, in
    C-level passes over the coordinates."""
    objects = instance.objects
    starts, ends = [o.start for o in objects], [o.end for o in objects]
    positions = []
    for axis in ("x", "y"):
        get = attrgetter(axis)
        s0, s1 = list(map(get, starts)), map(get, ends)
        positions.append(list(map(add, s0, map(mul, repeat(t), map(sub, s1, s0)))))
    xs, ys = positions
    columns = []
    for st in instance.stations:
        dx, dy = list(map(sub, repeat(st.x), xs)), list(map(sub, repeat(st.y), ys))
        columns.append(list(map(add, map(mul, dx, dx), map(mul, dy, dy))))
    return columns


def _exact_columns(instance: MovingInstance, t):
    """(keys, value, double) for the squared distances at an exact time t,
    on the instance's `IntegerLift`, or None for a float time.

    `keys` holds one key per object per station, ordered as the distances
    are, equal exactly where they are, and 0 exactly where a distance is;
    `value(s, j)` is the exact distance from station s to object j, built
    when called, and `double(s, j)` its correctly rounded double, read off
    the same integers without building it.  With coordinates over L and t
    = (p + q*sqrt(d))/r (q = 0 for a rational t), the distance is (P +
    Q*sqrt(d))/(Lr)**2: dx * Lr = ax - q*vx*sqrt(d) with ax = X*r - (sx*r +
    p*vx), so P = ax**2 + ay**2 + d*q**2*(vx**2 + vy**2) and Q =
    -2*q*(ax*vx + ay*vy).  For q = 0 the int P is its own key.  Otherwise
    the key is the int ceil((P + Q*sqrt(d)) * 2**64) (`_ceil_key`): since
    sqrt(d) is irrational, equal distances are equal pairs, so the keys are
    equal exactly where the distances are unless two different (P, Q)
    pairs share a key; only then are the exact numbers themselves the keys.
    """
    if isinstance(t, float):
        return None
    lift = instance.lift
    if isinstance(t, QuadraticNumber):
        p, q, r, d = t.p, t.q, t.r, t.d
    else:
        (p, r), q, d = t.as_integer_ratio(), 0, 0
    objects = lift.objects
    vx, vy = [o[2] for o in objects], [o[3] for o in objects]
    cx = list(map(add, map(mul, [o[0] for o in objects], repeat(r)), map(mul, repeat(p), vx)))
    cy = list(map(add, map(mul, [o[1] for o in objects], repeat(r)), map(mul, repeat(p), vy)))
    ps, qs = [], []
    for x, y in lift.stations:
        ax, ay = list(map(sub, repeat(x * r), cx)), list(map(sub, repeat(y * r), cy))
        ps.append(list(map(add, map(mul, ax, ax), map(mul, ay, ay))))
        if q:
            qs.append(list(map(mul, repeat(-2 * q), map(add, map(mul, ax, vx), map(mul, ay, vy)))))
    den = (lift.scale * r) ** 2

    def ratio(s, j):
        return ps[s][j] / den  # int true division rounds correctly

    if not isinstance(t, QuadraticNumber):
        return ps, lambda s, j: Fraction(ps[s][j], den), ratio
    if not q:
        return ps, lambda s, j: QuadraticNumber(ps[s][j], 0, den, 0), ratio
    sq = list(map(mul, repeat(d * q * q), map(add, map(mul, vx, vx), map(mul, vy, vy))))
    ps = [list(map(add, pc, sq)) for pc in ps]
    keys = [list(map(_ceil_key, pc, qc, repeat(d))) for pc, qc in zip(ps, qs)]
    flat_keys = list(chain.from_iterable(keys))
    pairs = list(zip(chain.from_iterable(ps), chain.from_iterable(qs)))
    owner = dict(zip(flat_keys, pairs))
    if any(map(ne, map(owner.__getitem__, flat_keys), pairs)):
        keys = [list(map(QuadraticNumber, pc, qc, repeat(den), repeat(d))) for pc, qc in zip(ps, qs)]
        return keys, lambda s, j: keys[s][j], lambda s, j: float(keys[s][j])
    return (keys, lambda s, j: QuadraticNumber(ps[s][j], qs[s][j], den, d),
            lambda s, j: nearest_double(ps[s][j], qs[s][j], den, d))


def _ceil_key(p: int, q: int, d: int) -> int:
    """ceil((p + q*sqrt(d)) * 2**64) for a non-square d."""
    root = math.isqrt(q * q * d << 128)  # floor(|q| * sqrt(d) * 2**64)
    return (p << 64) + (root + 1 if q > 0 else -root)


def enumerate_candidates(instance: MovingInstance, t) -> Candidates:
    """All station/support candidate disks at time t, as per-station levels."""
    return Candidates(instance, t)


def nn_heuristic(instance: MovingInstance, t) -> StaticSolution:
    """Assign each object to its nearest station, walking objects in
    descending order of that distance and absorbing everything the grown
    disk covers.  Provides no lower bound.

    Ties: equidistant objects are processed lower-index first; equidistant
    stations resolve to the lower station index.
    """
    n, m = instance.n, instance.m
    exact = _exact_columns(instance, t)
    columns, value = exact[:2] if exact else (_distance_columns(instance, t), None)
    rows = list(zip(*columns))
    near = list(map(min, rows))
    # The first index of a row's minimum is its lowest-index nearest station.
    nearest = list(map(tuple.index, rows, near))
    order = sorted(range(n), key=lambda j: (-near[j], j))

    assignment = [-1] * n
    radius = [0] * m
    source = [None] * m  # the object whose distance set the radius
    covered = [False] * n
    for j in order:
        if covered[j]:
            continue
        s = nearest[j]
        if near[j] > radius[s]:
            radius[s] = near[j]
            source[s] = j
        for o in compress(range(n), map(le, columns[s], repeat(radius[s]))):
            if not covered[o]:
                covered[o] = True
                assignment[o] = s
    if value is not None:  # keys back to distances; a radius never raised stays 0
        radius = [0 if j is None else value(s, j) for s, j in enumerate(source)]
    return StaticSolution(tuple(assignment), tuple(radius), sum(radius), 0)


class SolverBackend:
    """Extension point for the exact stationary solver.

    solve(candidates, target_gap, time_limit, cutoff=None), called by
    keyword and never for zero objects, must return (selected candidate
    indices, lower bound on the sum of squared radii, stop cause) with the
    selection covering every object and the bound never exceeding the
    optimal sum.  An index that is not an int in range(len(candidates))
    raises ValueError.  The stop cause is "optimal" (the bound reached the
    cover's cost), "gap", "cutoff" or "time_limit" (cut short by the clock).
    `candidates`, the `Candidates` that `enumerate_candidates` returns, is
    the whole problem: its `n_objects`, `n_stations` and per-station
    levels, each covering a prefix of its station's distance order, so one
    station's disks are nested and its top level covers every object.

    `cutoff` (a sum of squared radii, or None) says the caller only needs a
    cover costing at most that much: a backend may stop as soon as it holds
    one, short of the target gap, or ignore the cutoff.  The bound it
    returns must stay certified either way.
    """

    def solve(self, candidates, target_gap, time_limit, cutoff=None):
        raise NotImplementedError


class _Levels(dict):
    """A read-only sequence of `size` values whose k-th entry is
    build(args[k]), made on its first read and kept: a dict underneath, so
    that reading an entry already made is a C-level lookup; `len` and
    iteration are the sequence's."""

    __slots__ = ("size", "build", "args")

    def __init__(self, size: int, build, args):
        super().__init__()
        self.size, self.build, self.args = size, build, args

    def __missing__(self, k):
        v = self[k] = self.build(self.args[k])
        return v

    def __len__(self):
        return self.size

    def __iter__(self):
        return map(self.__getitem__, range(self.size))

    def __repr__(self):
        return repr(list(self))


class Candidates:
    """The candidate disks at one time, as per-station radius levels.

    Each station's objects sorted by (squared distance, index) form its
    `orders[s]`; level k is the disk reaching the k-th distinct distance in
    that order, so it covers a prefix of the order and a station's levels
    are nested.  Per station, levels in ascending radius: `values` (exact;
    at an exact time each is built on its first read) and `fvalues` (their
    correctly rounded doubles), `masks` (coverage bitmasks), `last[s][k]`
    (the position in the order of level k's outermost object), `rank[s][j]`
    (the level at which object j enters the prefix) and `reach[s][j]` (that
    level's value; `fcolumns[s][j]` holds its float value, and `freach[j]`
    the float values of object j per station; at a float time `fvalues`
    and `fcolumns` are the `values` and `reach` lists themselves).  Every
    station covers every object at its top level.  `gather[s]` maps a
    sequence indexed by object to the tuple of its entries in `orders[s]`,
    and `ends[s]` flags, per position in that order, the outermost object
    of a level (None when no two objects tie, so every position ends one).

    `caps[s]` is the highest level of station s that a search may still use
    (-1 for none), set by `cap` and lifted to the top by `reset_caps`.
    `gather[s]` reads `orders[s]` only up to the cap, so `lagrangian`
    reads no level past it and bounds only the covers within the caps.
    `cover_counts`, `branch_object`, `complete` and `improve` read every
    level: the primal heuristics may raise a station past its cap.

    Candidate i is level i - offset[s] of station s: numbering is
    station-major and by ascending radius within a station, and `len` is
    the number of candidates.  Equidistant objects share one level.
    """

    def __init__(self, instance: MovingInstance, t):
        n = instance.n
        self.n_objects, self.n_stations = n, instance.m
        self.values, self.masks, self.orders, self.last, self.rank = [], [], [], [], []
        self.offset, self.ends, self.fvalues = [], [], []
        size = 0
        exact = _exact_columns(instance, t)
        columns, value, double = exact if exact else (_distance_columns(instance, t), None, None)
        for s, column in enumerate(columns):
            # a stable sort: ties keep index order, as (distance, index) pairs would
            order = sorted(range(n), key=column.__getitem__)
            d = list(map(column.__getitem__, order))
            ends = [*map(ne, d, d[1:]), True]  # True at each level's outermost object
            if value is None:  # at a float time the values are their own doubles
                vals = fvals = list(compress(d, ends))
            else:
                outer = list(compress(order, ends))
                vals = _Levels(len(outer), partial(value, s), outer)
                fvals = list(map(double, repeat(s), outer))
            rank = [0] * n
            deque(map(rank.__setitem__, order, accumulate(ends, initial=0)), 0)
            self.offset.append(size)
            size += len(vals)
            self.values.append(vals)
            self.fvalues.append(fvals)
            self.masks.append(list(compress(accumulate(map(lshift, repeat(1), order), or_), ends)))
            self.orders.append(tuple(order))
            self.last.append(list(compress(range(n), ends)))
            self.rank.append(rank)
            self.ends.append(None if len(vals) == n else ends)
        self._size = size
        self.universe = (1 << n) - 1
        self.fcolumns = [[fv[r] for r in rank] for fv, rank in zip(self.fvalues, self.rank)]
        self.reach = (self.fcolumns if value is None else
                      [_Levels(n, vals.__getitem__, rank) for vals, rank in zip(self.values, self.rank)])
        self.freach = list(zip(*self.fcolumns))
        # `branch_object`'s bound E = 4u*top + 2**-1073 (u = _ULP / 2) on a
        # float increment's error: none when the floats are the values
        top = max([fv[-1] for fv in self.fvalues if fv], default=0.0)
        self._increment_error = 0.0 if value is None else 2 * _ULP * top + 2.0**-1073
        self.caps, self.gather = [None] * self.n_stations, [None] * self.n_stations
        self.reset_caps()

    def __len__(self):
        return self._size

    def cap(self, s, k):
        """Cap station s at level k (-1: no level at all)."""
        self.caps[s] = k
        order = self.orders[s]
        end = self.last[s][k] + 1 if k >= 0 else 0
        # itemgetter of one index returns a bare item, and of none fails
        self.gather[s] = (itemgetter(*order[:end]) if end > 1
                          else lambda seq, o=order[:end]: tuple(seq[j] for j in o))

    def reset_caps(self):
        """Lift every station's cap to its top level."""
        for s, vals in enumerate(self.values):
            if self.caps[s] != len(vals) - 1:
                self.cap(s, len(vals) - 1)

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
        return tuple(self.offset[s] + lvl for s, lvl in enumerate(levels) if lvl >= 0)

    def uncovered(self, covered: int):
        """One flag per object: True when the mask does not cover it."""
        return [b == "0" for b in reversed(format(covered, f"0{self.n_objects}b"))]

    def lagrangian(self, levels, weights):
        """Float Lagrangian completion value above the committed levels, for
        multipliers `weights` that are zero on covered objects.

        L = sum(weights) + sum over stations of min(0, min over levels k
        above the committed one of (v_k - v_committed - weights of the
        objects in prefix k)); a valid lower bound for any weights >= 0.
        Only levels up to each station's cap count, so L bounds every cover
        within the caps.  Returns L, each station's minimizing level, the
        magnitude that bounds L's rounding error (see `_margin`), and per
        station the list of v_k - (weights in prefix k) over the levels
        above the committed one up to the cap (None when there is none).

        Per station the prefix sums are one `accumulate` over the weights
        gathered in the station's order, read at each level's outermost
        object, so they add in order the same floats a loop over the order
        would; the levels up to the committed one are cut afterwards.
        """
        total = sum(weights)
        scale = total * (self.n_stations + 2)
        chosen = list(levels)
        reduced_all = []
        for s, (fv, lvl, cap, ends) in enumerate(zip(self.fvalues, levels, self.caps, self.ends)):
            scale += 3.0 * fv[-1]
            if lvl >= cap:
                reduced_all.append(None)
                continue
            sums = accumulate(self.gather[s](weights))
            reduced = list(map(sub, fv, sums if ends is None else compress(sums, ends)))
            del reduced[: lvl + 1]
            reduced_all.append(reduced)
            low = min(reduced)
            gain = low - (fv[lvl] if lvl >= 0 else 0.0)
            if gain < 0.0:
                total += gain
                chosen[s] = lvl + 1 + reduced.index(low)
        return total, chosen, scale, reduced_all

    def cover_counts(self, levels):
        """How many of the given levels cover each object."""
        count = Counter(chain.from_iterable(
            self.orders[s][: self.last[s][lvl] + 1] for s, lvl in enumerate(levels) if lvl >= 0))
        return list(map(count.get, range(self.n_objects), repeat(0)))

    def branch_object(self, levels, is_open):
        """(maxmin, j): the largest exact least increment over the given
        levels of a single disk covering an open object (flagged in
        `is_open`), 0 when that is not positive, and the lowest-index open
        object that attains it.

        Decided in float first.  Each object's float least increment is one
        C-level pass, `map(sub, ...)` per station and `map(min, ...)` across
        them.  Every exact value x is a squared distance in [0, T] held as
        its correctly rounded double, within u*x + 2**-1075 of it (u =
        2**-53; the half subnormal covers underflow), and `top`, the double
        of T, is at least T(1 - u).  So a float increment fl(fl(x) - fl(y))
        lies within 2uT + 2**-1074 + u*top of x - y (a difference that
        underflows is exact), which is below E = 4u*top + 2**-1073, and so
        does an object's float least increment of its exact one, since a
        minimum moves no more than its terms.  An object attaining maxmin
        then has a float least increment of at least the largest one less
        2E, and at a station attaining its exact least increment a float
        increment within 2E of its float least one.  Only those objects, at
        only those stations, are computed exactly.  2E exceeds twice the
        error by almost 2u*top, more than the rounding of either threshold,
        at most u*(top + 2E).  In float mode the floats are the values and
        E = 0; a distance that overflows to +inf makes the threshold +inf,
        and the filter keeps the objects whose least increment is +inf, at
        every station (an open object's increment is never NaN: its level
        lies above the station's, below the top, so the station's value is
        finite).
        """
        cur = [fv[lvl] if lvl >= 0 else 0.0 for fv, lvl in zip(self.fvalues, levels)]
        cols = [fc if lvl < 0 else map(sub, fc, repeat(c))
                for fc, c, lvl in zip(self.fcolumns, cur, levels)]
        # map(min, col) would call min on each single value
        low = list(map(min, *cols)) if len(cols) > 1 else list(cols[0])
        opened = list(compress(range(self.n_objects), is_open))
        lows = list(compress(low, is_open))
        width = 2 * self._increment_error
        floor = max(lows) - width
        reach, values, stations = self.reach, self.values, range(self.n_stations)
        maxmin = j = None
        for o in compress(opened, map(ge, lows, repeat(floor))):
            incs = map(sub, self.freach[o], cur)
            near = compress(stations, map(le, incs, repeat(low[o] + width)))
            least = min([reach[s][o] if levels[s] < 0 else reach[s][o] - values[s][levels[s]]
                         for s in near])
            if maxmin is None or least > maxmin:
                maxmin, j = least, o
        # Open objects all tying at zero increment come out as the lowest.
        return (maxmin, j) if maxmin > 0 else (0, j)

    def cheapest_raise(self, j, cur):
        """(increment, station) of the cheapest raise covering object j from
        the stations' float values `cur`; the lowest station on ties."""
        incs = list(map(sub, self.freach[j], cur))
        low = min(incs)
        return low, incs.index(low)

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
        need = sorted((-self.cheapest_raise(j, cur)[0], j) for j in range(n) if not count[j])
        for _, j in need:
            if count[j]:
                continue
            s = self.cheapest_raise(j, cur)[1]
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


def _margin(scale: float, lv: Candidates) -> float:
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
    covers, an O(nm) pass over the shared orders (`Candidates.lagrangian`).
    A node's bound is the committed area plus the larger of that value and
    the max-min single-disk increment (`Candidates.branch_object`, which
    also picks the branch object).  Each child is pushed with the same
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
    (`Candidates.complete`, then `Candidates.improve`) supplying incumbents;
    when the incumbent is within the target gap of the bound the root
    returns at once, and else the search restarts at the ascent's u.  The
    heuristic also runs every `_DIVE_PERIOD` pops.  Given a cutoff, the
    ascent and the search also stop once the incumbent's float cost is at
    most the cutoff, returning the bound certified at that point.

    Reduced-cost level fixing (`_fix`; Beasley 1990, Caprara, Fischetti and
    Toth 1999) shrinks the problem as it goes.  `solve` first lifts every
    cap.  After every relaxation of the root ascent, at each search's root
    and whenever the incumbent improves, each station's cap falls to its
    highest level whose certified forced bound L(u) - min(0, min red_s) +
    red_s[k] - margin (the key a child at that level gets) is at most the
    incumbent's cost, so every cover as cheap as the incumbent stays
    within the caps.  Caps only fall; no child above a cap is pushed, and a
    node above one, queued before the cap fell, is dropped.  So a node
    whose branch object is past every cap gets no child, and caps that
    leave an object out of every station's reach end the search with the
    incumbent as optimal once the heap runs dry.

    Pruning is strict (only nodes whose bound exceeds the incumbent), so at
    gap 0 every optimal selection stays reachable and ties among them
    resolve to the lexicographically smallest candidate index list.
    """

    def solve(self, candidates, target_gap, time_limit, cutoff=None):
        lv = candidates
        start = _time.perf_counter()
        deadline = start + time_limit if time_limit != math.inf else math.inf
        lv.reset_caps()
        u = self._ratio_prices(lv)
        best = lv.complete(lv.lagrangian((-1,) * lv.n_stations, u)[1])
        quick_pops = _QUICK_WORK // (lv.n_objects * lv.n_stations)
        stop = -math.inf if cutoff is None else float(cutoff)
        best, lower, cause = self._search(lv, u, best, target_gap, stop, deadline, quick_pops)
        if cause is None:
            u, best = self._ascend(lv, u, best, target_gap, stop, deadline)
            best, deeper, cause = self._search(lv, u, best, target_gap, stop, deadline, math.inf)
            lower = max(lower, deeper)
        return list(lv.selection(best[0])), lower, cause

    def _search(self, lv: Candidates, u, best, target_gap, stop, deadline, max_pops):
        """Best-first search from the root with node bounds at multipliers
        u, starting from the incumbent `best` (levels, exact cost), until
        the incumbent is within the target gap or its float cost is at most
        `stop`.

        Returns the incumbent, the certified lower bound, and the stop
        cause: None only when max_pops ran out before the gap, the stop
        cost, the deadline or the optimum.
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
        fixing = None  # the root's relaxation, which fixes levels against each new incumbent

        while heap:
            key, _, levels, branching = heapq.heappop(heap)
            # A node above a cap, pushed before the cap fell, holds no cover
            # as cheap as the incumbent.
            if levels in visited or any(map(gt, levels, lv.caps)):
                continue
            if key > lower:
                lower = key
            if key > best_cost:
                lower, cause = best_cost, "optimal"
                break
            # The gap and cutoff stops are float-level tolerances even in
            # exact mode; the bounds themselves stay exact.
            upper = float(best_cost)
            if upper <= stop or (target_gap > 0 and upper <= float(lower) * (1.0 + target_gap)):
                cause = "cutoff" if upper <= stop else "gap"
                break
            if pops == max_pops:
                return (best_levels, best_cost), lower, None
            pops += 1
            if pops % _TIME_CHECK_PERIOD == 0 and _time.perf_counter() > deadline:
                cause = "time_limit"
                break
            committed, covered = lv.committed(levels)
            if covered == lv.universe:
                visited.add(levels)
                sel = lv.selection(levels)
                if committed < best_cost or (committed == best_cost and sel < best_sel):
                    best_cost, best_levels, best_sel = committed, levels, sel
                    self._fix(lv, fixing, best_cost)
                continue
            if branching is None:
                bound, branching, relaxation = self._evaluate(
                    lv, levels, committed, covered, u, exact, best_cost)
                if not covered:
                    fixing = relaxation
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
                    self._fix(lv, fixing, best_cost)
            j, children = branching
            for s, forced in enumerate(children):
                new_lvl = lv.rank[s][j]
                if new_lvl > lv.caps[s]:
                    continue
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
            lower, cause = best_cost, "optimal"
        return (best_levels, best_cost), lower, cause

    @staticmethod
    def _ratio_prices(lv: Candidates):
        """Each object's cheapest value-per-covered-object over the levels
        that cover it.  Their Lagrangian value at the root is the additive
        pricing bound: every object charged its best ratio."""
        u = [math.inf] * lv.n_objects
        for fv, last, rank in zip(lv.fvalues, lv.last, lv.rank):
            ratios = [v / (e + 1) for v, e in zip(fv, last)]
            suffix = list(accumulate(reversed(ratios), min))[::-1]
            for j, r in enumerate(rank):
                if suffix[r] < u[j]:
                    u[j] = suffix[r]
        return u

    def _ascend(self, lv: Candidates, u, best, target_gap, stop, deadline):
        """Root ascent on the Lagrangian multipliers from u (the volume
        variant of deflected subgradient: each step moves from the best
        multipliers so far along the cover violation of an exponential
        average of the Lagrangian solutions).  Every few steps the primal
        heuristic completes the Lagrangian's chosen levels.  The ascent
        ends early once the incumbent's float cost is at most `stop`.

        Returns the multipliers with the best Lagrangian value and the best
        cover (levels, exact cost) found, starting from `best`.
        """
        root = (-1,) * lv.n_stations
        best_levels, best_cost = best
        val, chosen, scale, reduced = lv.lagrangian(root, u)
        margin = _margin(scale, lv)
        relaxation = (val, chosen, margin, reduced)
        self._fix(lv, relaxation, best_cost)
        best_val, best_u = val - margin, u
        average = [float(c) for c in lv.cover_counts(chosen)]
        step, stalled = _STEP_START, 0
        for it in range(1, _LAGRANGE_STEPS):
            upper = float(best_cost)
            if (upper <= best_val * (1.0 + target_gap) or upper <= stop
                    or _time.perf_counter() > deadline):
                break
            direction = [
                0.0 if x == 0.0 and a > 1.0 else 1.0 - a for x, a in zip(best_u, average)
            ]
            norm = sum(map(mul, direction, direction))
            if norm == 0.0:
                break
            t = step * (upper - best_val) / norm
            # v if v > 0.0 else 0.0 is max(0.0, v), -0.0 and NaN included
            u = [v if v > 0.0 else 0.0 for v in map(add, best_u, map(mul, repeat(t), direction))]
            val, chosen, scale, reduced = lv.lagrangian(root, u)
            margin = _margin(scale, lv)
            relaxation = (val, chosen, margin, reduced)
            self._fix(lv, relaxation, best_cost)
            val -= margin
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
                    self._fix(lv, relaxation, best_cost)
        return best_u, lv.improve(best_levels, best_cost)

    @staticmethod
    def _fix(lv: Candidates, relaxation, best_cost):
        """Reduced-cost level fixing at the root: lower each station's cap
        to its highest level k whose certified forced bound L - min(0, min
        red) + red[k] - margin (the key `_evaluate` gives a child) is at most
        `best_cost`, from a root relaxation (L, chosen levels, margin,
        reduced values) that `Candidates.lagrangian` computed within the
        caps.  A level above the cap is in no cover as cheap as the
        incumbent.  In exact mode the test is against the exact cost; its
        double rounds correctly, so only a bound equal to that double needs
        the exact comparison."""
        total, chosen, margin, reduced = relaxation
        upper = float(best_cost)

        def above(bound):
            return bound > upper or bound == upper and bound > best_cost

        for s, red in enumerate(reduced):
            if red is None:
                continue
            rest = total - red[chosen[s]] if chosen[s] >= 0 else total
            k = min(len(red) - 1, lv.caps[s])
            while k >= 0 and above(rest + red[k] - margin):
                k -= 1
            if k < lv.caps[s]:
                lv.cap(s, k)

    def _evaluate(self, lv: Candidates, levels, committed, covered, u, exact, best_cost):
        """Admissible completion bound, the branch object (argmax of the min
        single-disk increment, lowest index on ties) and, per station, a
        bound on the child that raises it to cover that object: the
        Lagrangian at the root multipliers with the station forced to the
        child's level or above (None past the station's cap).  Also returns
        the relaxation; at the root it first fixes levels against
        `best_cost`."""
        is_open = lv.uncovered(covered)
        maxmin, j = lv.branch_object(levels, is_open)
        weights = [x if o else 0.0 for o, x in zip(is_open, u)]
        total, chosen, scale, reduced = lv.lagrangian(levels, weights)
        margin = _margin(scale + abs(float(committed)), lv)
        relaxation = (total, chosen, margin, reduced)
        if not covered:
            self._fix(lv, relaxation, best_cost)

        def certified(value):
            value -= margin
            return committed + (Fraction(value) if exact else value)

        children = []
        for s, lvl in enumerate(levels):
            new_lvl = lv.rank[s][j]
            if new_lvl > lv.caps[s]:
                children.append(None)
                continue
            red = reduced[s]
            base = lv.fvalues[s][lvl] if lvl >= 0 else 0.0
            term = red[chosen[s] - lvl - 1] - base if chosen[s] > lvl else 0.0
            children.append(certified(total - term + min(red[new_lvl - lvl - 1 :]) - base))
        return max(committed + maxmin, certified(total)), (j, children), relaxation


DEFAULT_BACKEND = BranchBoundBackend()


def _solution_from_selection(lv: Candidates, selected, lower, stop):
    # Each station's radius is its highest selected level.
    levels = [-1] * lv.n_stations
    for i in selected:
        # not isinstance: a bool is an int
        if not (type(i) is int and 0 <= i < len(lv)):
            raise ValueError(f"selected candidate {i!r} is not an index in range({len(lv)})")
        s = bisect_right(lv.offset, i) - 1
        levels[s] = max(levels[s], i - lv.offset[s])
    radius = [lv.values[s][lvl] if lvl >= 0 else 0 for s, lvl in enumerate(levels)]
    used = [s for s, lvl in enumerate(levels) if lvl >= 0]
    # Each object goes to the nearest station whose level covers it (the
    # lowest station on ties); its distance is the value of the level at
    # which it enters.  The doubles decide first: they round correctly, so
    # every nearest station has the least double.
    assignment = []
    fcolumns, reach, rank = lv.fcolumns, lv.reach, lv.rank
    for j in range(lv.n_objects):
        reached = [(fcolumns[s][j], s) for s in used if rank[s][j] <= levels[s]]
        if not reached:
            raise InfeasibleCoverError(f"selection does not cover object {j}")
        low, s = min(reached)
        near = [x for f, x in reached if f == low]
        assignment.append(s if len(near) == 1 else min([(reach[x][j], x) for x in near])[1])
    total = sum(radius)
    if lower > total:
        lower = total
    return StaticSolution(
        tuple(assignment), tuple(radius), total, lower, tuple(sorted(selected)), stop
    )


def solve_exact(
    candidates: Candidates,
    *,
    target_gap: float = 0.0,
    time_limit: float = math.inf,
    backend: SolverBackend | None = None,
    cutoff=None,
) -> StaticSolution:
    """Certified stationary solve over a candidate set, with keyword options.

    Returns a solution whose `gap` is at most target_gap unless the search
    stops short.  Given a cutoff (a sum of squared radii), the backend may
    stop at the first cover whose float cost is at most the cutoff; that
    cover is returned with the bound certified at the stop.  The solution's
    `stop` is the backend's stop cause; a search cut short by the time
    limit reports the achieved bound and is `timed_out`.
    """
    if candidates.n_objects == 0:
        # Nothing to cover; the branch and bound would divide by n * m.
        return _solution_from_selection(candidates, (), 0, "optimal")
    backend = backend or DEFAULT_BACKEND
    selected, lower, stop = backend.solve(candidates, target_gap=target_gap,
                                          time_limit=time_limit, cutoff=cutoff)
    return _solution_from_selection(candidates, selected, lower, stop)


def brute_force_cover(candidates: Candidates) -> StaticSolution:
    """Exhaustive optimum over per-station radius-level choices.

    Test oracle only; guarded to small instances.  Unlike the backend it
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
