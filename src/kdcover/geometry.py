"""Planar points, linear trajectories, and squared-distance polynomials.

Coordinates are floats, ints or `fractions.Fraction`s, each an exact
rational (a double is a binary one); the type of the time, not of the
coordinates, picks the arithmetic (see `IntegerLift` below).  Every
operation here is written so that it works unchanged for either scalar
type, and root finding dispatches on the coefficient type: float
coefficients get the numerically stable quadratic formula, rational
coefficients get exact `QuadraticNumber` roots, from int coefficients as
they are and from Fractions over their least common denominator.

`quadratic_roots(a, b, c, t_lo, t_hi)` and `sign_ahead(a, b, c, t)` take
coefficients, so a difference needs no `QuadraticPoly`; the roots are a
plain tuple, empty for the zero polynomial, whose roots are a continuum.

The kinetic layers decide every float-versus-exact question through the
predicates at the bottom of this module: `compare_event_times` orders
times, `compare_values` orders objective values (and `tolerance_band`
bounds which values it can call equal), and `sign_ahead` tells which way a
quadratic leaves a point.  Each uses a tolerance on a float pair and
integer-exact arithmetic otherwise; `sign_ahead` runs one body in both
modes, with a zero tolerance in exact mode.

Every instance has an `IntegerLift` (`MovingInstance.lift`): its
coordinates as ints over one common denominator, exact for floats too, from
which `static_cover` and `kinetic` build exact squared distances and their
polynomials in integer arithmetic whenever the time is exact (an int, a
Fraction or a `QuadraticNumber`); at a float time they read the
coordinates as they are.

Exact mode decides in float first and falls back on exact work only
where the doubles cannot decide.  Its two filters each turn off when their
entry returns an infinite bound: `value_bound`, a polynomial's value at a
time in float with a certified bound on its error, and `root_bounds`, a
certified enclosure of each root of an integer quadratic, which the root
carries, so that `QuadraticNumber.compare` orders it against a window's
ends and other times on doubles first (`exactarith.enclosure`).
`sign_ahead` at a root builds no number.
`earliest_crossing`, the kinetic engine's search for the first upward
crossing of several int differences, reads each one's single candidate
root from its integers and its `root_bounds` enclosure, and makes only the
roots that may be the earliest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import sub
from typing import Union

from .exactarith import QuadraticNumber, _sign_pair, enclosed, enclosure, poly_parts

__all__ = [
    "EPS",
    "TIME_EPS",
    "Point2",
    "Trajectory",
    "MovingInstance",
    "IntegerLift",
    "QuadraticPoly",
    "EventTime",
    "squared_distance_poly",
    "quadratic_roots",
    "compare_event_times",
    "compare_values",
    "tolerance_band",
    "sign_ahead",
    "value_bound",
    "root_bounds",
    "lowest_terms",
    "earliest_crossing",
]

# Relative tolerance for float objective values (`compare_values`,
# `sign_ahead`).  The exact mode needs none.
EPS = 1e-9

# Absolute tolerance for a pair of float times (`compare_event_times`):
# tight enough that legitimately short segments survive, and the least
# forward step of the kinetic event engine.
TIME_EPS = 1e-12

Scalar = Union[float, Fraction, int]
EventTime = Union[float, Fraction, QuadraticNumber]


@dataclass(frozen=True)
class Point2:
    x: Scalar
    y: Scalar

    def __post_init__(self):
        for v in (self.x, self.y):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"non-finite coordinate {v!r}")


@dataclass(frozen=True)
class Trajectory:
    """Linear motion from `start` at t=0 to `end` at t=1."""

    start: Point2
    end: Point2

    def at(self, t) -> Point2:
        return Point2(
            self.start.x + t * (self.end.x - self.start.x),
            self.start.y + t * (self.end.y - self.start.y),
        )


class IntegerLift:
    """An instance's coordinates as ints over one common denominator.

    Every coordinate, a float, int or Fraction, is exactly an int over
    `scale`, the least common multiple of the coordinates' denominators (a
    power of two for floats, down to 2**-1074): `stations` holds (X, Y)
    per station and `objects` (sx, sy, vx, vy) per object, its start and
    its motion end - start.  So the squared distances at one time share a
    denominator, and their order and equality are those of integer
    numerators.  Immutable by convention, like `QuadraticPoly`.
    """

    __slots__ = ("scale", "stations", "objects")

    def __init__(self, scale: int, stations: tuple, objects: tuple):
        self.scale = scale
        self.stations = stations
        self.objects = objects


@dataclass(frozen=True)
class MovingInstance:
    """Fixed stations plus moving objects over the time horizon [0, 1].

    Indices into `stations` and `objects` are the stable identifiers used
    throughout the package.  `canvas` is None or a (width, height) pair of
    finite, positive numbers.
    """

    stations: tuple[Point2, ...]
    objects: tuple[Trajectory, ...]
    canvas: tuple[Scalar, Scalar] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "stations", tuple(self.stations))
        object.__setattr__(self, "objects", tuple(self.objects))
        if self.canvas is not None:
            canvas = tuple(self.canvas) if isinstance(self.canvas, (tuple, list)) else ()
            if len(canvas) != 2 or not all(type(c) in (int, float, Fraction) and 0 < c < math.inf
                                           for c in canvas):
                raise ValueError(f"canvas {self.canvas!r} is not two finite, positive numbers")
            object.__setattr__(self, "canvas", canvas)
        if self.objects and not self.stations:
            raise ValueError("an instance with objects needs at least one station")

    @property
    def n(self) -> int:
        return len(self.objects)

    @property
    def m(self) -> int:
        return len(self.stations)

    @cached_property
    def lift(self) -> IntegerLift:
        """The `IntegerLift` of the coordinates, read exactly through
        `as_integer_ratio()` (a double is a binary rational), built once."""
        ends = chain.from_iterable((o.start, o.end) for o in self.objects)
        ratios = [v.as_integer_ratio() for p in chain(self.stations, ends) for v in (p.x, p.y)]
        scale = math.lcm(*{d for _, d in ratios})
        ints = [v * (scale // d) for v, d in ratios]
        m2 = 2 * len(self.stations)
        stations = tuple(zip(ints[0:m2:2], ints[1:m2:2]))
        sx, sy, ex, ey = (ints[m2 + k::4] for k in range(4))
        objects = tuple(zip(sx, sy, map(sub, ex, sx), map(sub, ey, sy)))
        return IntegerLift(scale, stations, objects)


class QuadraticPoly:
    """a*t**2 + b*t + c.  Units are squared meters when derived from distances.

    A value: two polynomials are equal, and hash alike, when their
    coefficients are, and the repr is the one a frozen dataclass gives.  It
    is immutable by convention, since nothing in the package assigns to a
    coefficient; a plain slotted class is built at a third of a frozen
    dataclass's cost, and the kinetic engine builds one per certificate.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: Scalar, b: Scalar, c: Scalar):
        self.a = a
        self.b = b
        self.c = c

    def __repr__(self):
        return f"QuadraticPoly(a={self.a!r}, b={self.b!r}, c={self.c!r})"

    def __eq__(self, other):
        if other.__class__ is QuadraticPoly:
            return (self.a, self.b, self.c) == (other.a, other.b, other.c)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __call__(self, t):
        return (self.a * t + self.b) * t + self.c

    def derivative_at(self, t):
        return 2 * self.a * t + self.b

    def __add__(self, other: "QuadraticPoly") -> "QuadraticPoly":
        return QuadraticPoly(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "QuadraticPoly") -> "QuadraticPoly":
        return QuadraticPoly(self.a - other.a, self.b - other.b, self.c - other.c)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0


ZERO_POLY = QuadraticPoly(0, 0, 0)


def squared_distance_poly(station: Point2, obj: Trajectory) -> QuadraticPoly:
    """Squared distance from a fixed station to a moving object, as a
    polynomial in time.  The leading coefficient is the squared trajectory
    length, hence always >= 0 (upward-opening or degenerate)."""
    rx = obj.start.x - station.x
    ry = obj.start.y - station.y
    vx = obj.end.x - obj.start.x
    vy = obj.end.y - obj.start.y
    return QuadraticPoly(vx * vx + vy * vy, 2 * (rx * vx + ry * vy), rx * rx + ry * ry)


def _is_exact(v) -> bool:
    return isinstance(v, (int, Fraction))


def quadratic_roots(a: Scalar, b: Scalar, c: Scalar, t_lo, t_hi) -> tuple[EventTime, ...]:
    """The tuple of real roots of a*t**2 + b*t + c in the closed window
    [t_lo, t_hi], ascending.

    Degenerate polynomials are results, not errors: a linear polynomial
    yields at most one root and a constant none.  That includes the
    identically zero polynomial, whose roots form a continuum rather than
    isolated events; a caller that must tell it apart tests its coefficients.
    """
    # A float coefficient is never exact: the common case skips the ABC checks.
    if type(a) is not float and type(b) is not float and type(c) is not float and (
            _is_exact(a) and _is_exact(b) and _is_exact(c)):
        return _roots_exact(a, b, c, t_lo, t_hi)
    if not (t_lo <= t_hi):
        raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    return _roots_float(a, b, c, t_lo, t_hi)


def _roots_float(a, b, c, t_lo, t_hi) -> tuple:
    a, b, c = float(a), float(b), float(c)
    if a == 0.0:
        if b == 0.0:
            return ()
        root = -c / b
        return (root,) if t_lo <= root <= t_hi else ()
    disc = b * b - 4.0 * a * c
    if not disc < math.inf and all(map(math.isfinite, (a, b, c))):
        # b*b or 4ac overflowed: the same roots, with the largest
        # coefficient scaled into [1/2, 1) by a power of two.
        shift = -math.frexp(max(abs(a), abs(b), abs(c)))[1]
        return _roots_float(math.ldexp(a, shift), math.ldexp(b, shift), math.ldexp(c, shift),
                            t_lo, t_hi)
    if disc < 0.0:
        return ()
    if disc == 0.0:
        root = -b / (2.0 * a)
        return (root,) if t_lo <= root <= t_hi else ()
    s = math.sqrt(disc)
    # Citardauq-style split avoids cancellation in the small root.
    q = -(b + s) / 2.0 if b >= 0.0 else -(b - s) / 2.0
    r1, r2 = q / a, c / q
    if r1 > r2:
        r1, r2 = r2, r1
    if t_lo <= r1 <= t_hi:
        return (r1, r2) if r2 <= t_hi else (r1,)
    return (r2,) if t_lo <= r2 <= t_hi else ()


def _int_coefs(a, b, c) -> tuple[int, int, int]:
    """Int or Fraction coefficients as ints over their least common
    denominator: the same roots and signs."""
    if not (type(a) is type(b) is type(c) is int):
        (a, da), (b, db), (c, dc) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
        den = math.lcm(da, db, dc)
        a, b, c = a * (den // da), b * (den // db), c * (den // dc)
    return a, b, c


def _roots_exact(a, b, c, t_lo, t_hi) -> tuple:
    """The roots in [t_lo, t_hi], each with its `root_bounds` enclosure,
    which `QuadraticNumber.compare` reads before any exact work, as it does
    the window's ends."""
    if not t_lo <= t_hi:
        raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    A, B, C = _int_coefs(a, b, c)
    if A == 0:
        if B == 0:
            return ()
        roots = (QuadraticNumber(-C, 0, B, 0),)
    else:
        disc = B * B - 4 * A * C
        if disc < 0:
            return ()
        if disc == 0:
            roots = (QuadraticNumber(-B, 0, 2 * A, 0),)
        else:
            lo_minus, hi_minus, lo_plus, hi_plus = root_bounds(A, B, C, disc)
            s = math.isqrt(disc)
            s = s if s * s == disc else None
            roots = (_root(A, B, disc, -1, lo_minus, hi_minus, s),
                     _root(A, B, disc, 1, lo_plus, hi_plus, s))
            if A < 0:  # dividing by 2A < 0 reverses the order of -B -+ sqrt(disc)
                roots = roots[::-1]
    return tuple(t for t in roots if t.compare(t_lo) >= 0 and t.compare(t_hi) <= 0)


def _root(A: int, B: int, disc: int, sign: int, lo: float, hi: float, s=None) -> QuadraticNumber:
    """(-B + sign*sqrt(disc))/2A for ints A != 0, B and disc > 0, with the
    enclosure lo <= root <= hi; s is sqrt(disc) when that is an int, else
    None.  In normal form: q = +-1 makes the fields coprime."""
    if s is not None:
        root = QuadraticNumber(-B + sign * s, 0, 2 * A, 0)
        root.lo, root.hi = lo, hi
        return root
    if A > 0:
        return enclosed(-B, sign, 2 * A, disc, lo, hi)
    return enclosed(B, -sign, -2 * A, disc, lo, hi)


def lowest_terms(coefs: tuple, den: int) -> tuple:
    """Ints (a, b, c) / gcd(a, b, c, den): (a, b, c) / den in lowest terms,
    the same tuple when the gcd is 1."""
    g = math.gcd(*coefs, den)
    return coefs if g == 1 else (coefs[0] // g, coefs[1] // g, coefs[2] // g)


def earliest_crossing(diffs, den: int, t_from, t_to, direction: int, best=None):
    """The earliest time strictly past t_from, and not past t_to, in the
    travel direction (+1 forward, -1 backward) at which one of the
    quadratics in `diffs` crosses zero upward, or `best` when none is
    strictly earlier.  `diffs` holds int triples (A, B, C), each standing
    for (A*t**2 + B*t + C) / den; a crossing is a root past which the
    polynomial is positive (`sign_ahead` > 0), in the form that
    `quadratic_roots` gives the polynomial in `lowest_terms`.  On a tie the
    earlier difference wins, and `best` wins over all.

    A polynomial has at most one such root, and its integers tell which:
    at a simple root p'(t) = +-sqrt(disc), so it is (-B + direction *
    sqrt(disc))/2A; a double root (disc = 0) counts when A > 0, where the
    polynomial stays positive, and a line's root when B * direction > 0.
    The simple root's `root_bounds` enclosure is read first: a difference
    whose root certainly lies behind t_from or past t_to is passed over,
    and so is one whose root certainly lies past a root already certain to
    qualify, or past `best`.  Only the others get an exact root, in order,
    and exact comparisons (enclosures first) decide as a scan of every
    root would.  Double roots and lines carry no enclosure and are always
    decided exactly.
    """
    inf = math.inf
    (f_lo, f_hi), (s_lo, s_hi) = enclosure(t_from), enclosure(t_to)
    if direction < 0:  # mirrored into travel coordinates, where later is larger
        f_lo, f_hi, s_lo, s_hi = -f_hi, -f_lo, -s_hi, -s_lo
    # every root past `bound` (travel) is certainly later than one that qualifies
    bound = inf if best is None else direction * enclosure(best)[direction > 0]
    unsettled = []  # (travel lower bound, A, B, C, disc, enclosure) of the possible roots
    for A, B, C in diffs:
        if A:
            disc = B * B - 4 * A * C
            if disc > 0:
                bounds = root_bounds(A, B, C, disc)
                lo, hi = bounds[2:] if direction > 0 else bounds[:2]
                t_lo, t_hi = (lo, hi) if direction > 0 else (-hi, -lo)
                if t_hi < f_lo or t_lo > s_hi:
                    continue  # certainly behind t_from or past t_to
                if t_lo > f_hi and t_hi < s_lo and t_hi < bound:
                    bound = t_hi  # certainly qualifies
                unsettled.append((t_lo, A, B, C, disc, lo, hi))
            elif disc == 0 and A > 0:
                unsettled.append((-inf, A, B, C, 0, -inf, inf))
        elif B * direction > 0:
            unsettled.append((-inf, 0, B, C, 0, -inf, inf))
    for t_lo, A, B, C, disc, lo, hi in unsettled:
        if t_lo > bound:
            continue  # certainly later than a root that qualifies
        if disc:
            s = math.isqrt(disc)
            if s * s == disc:  # a rational root, the same in every form
                root = _root(A, B, disc, direction, lo, hi, s)
            else:
                A, B, C = lowest_terms((A, B, C), den)
                root = _root(A, B, B * B - 4 * A * C, direction, lo, hi)
        elif A:
            root = QuadraticNumber(-B, 0, 2 * A, 0)
        else:
            root = QuadraticNumber(-C, 0, B, 0)
        if (compare_event_times(root, t_from) * direction > 0
                and compare_event_times(root, t_to) * direction <= 0
                and (best is None or compare_event_times(best, root) * direction > 0)):
            best = root
    return best


def compare_event_times(a, b) -> int:
    """Order two event times: -1, 0 or +1.

    If either side is exact (Fraction or QuadraticNumber) the comparison is
    exact, with no rounding (`QuadraticNumber.compare`; a NaN raises
    ValueError there); a plain float pair compares with absolute tolerance
    `TIME_EPS`.
    """
    if isinstance(a, float) and isinstance(b, float):
        if abs(a - b) <= TIME_EPS:
            return 0
        return -1 if a < b else 1
    if isinstance(a, QuadraticNumber):
        return a.compare(b)
    if isinstance(b, QuadraticNumber):
        return -b.compare(a)
    # int, Fraction and float compare exactly with one another.
    return (a > b) - (a < b)


def compare_values(a, b) -> int:
    """Order two objective values (squared distances or sums of them).

    A float pair within `EPS` relative to max(1, |a|, |b|) compares equal;
    anything else is compared exactly, as in `compare_event_times`.
    """
    if isinstance(a, float) and isinstance(b, float):
        if abs(a - b) <= EPS * max(1.0, abs(a), abs(b)):
            return 0
        return -1 if a < b else 1
    return compare_event_times(a, b)


def tolerance_band(v):
    """(lo, hi) holding every value that `compare_values` calls equal to v,
    so that a caller can pass over values outside it without the call.

    For a float v the band reaches 2 * EPS * max(1, |v|) to each side,
    farther than the tolerance EPS * max(1, |a|, |v|) lets any equal a lie;
    otherwise equality is exact and the band is v itself."""
    if isinstance(v, float):
        tol = 2 * EPS * max(1.0, abs(v))
        return v - tol, v + tol
    return v, v


def _sign(v, tol) -> int:
    """+1 above tol, -1 below -tol, 0 in between."""
    return 1 if v > tol else -1 if v < -tol else 0


def sign_ahead(a: Scalar, b: Scalar, c: Scalar, t, direction: int = 1) -> int:
    """Sign of a*t**2 + b*t + c just ahead of t in the travel direction.

    Looks at the value, then the slope in the travel direction, then the
    curvature, stopping at the first that is nonzero.  In float mode
    "nonzero" means beyond the tolerance EPS * max(1, |a|, |b|, |c|); in
    exact mode it is exact.  A tangency therefore counts by the side it
    stays on: a minimum at t gives +1, a maximum -1.  Returns 0 only when
    the polynomial vanishes near t (in float mode: within the tolerance).
    """
    if type(t) is QuadraticNumber and type(a) is not float:
        # p(t) = (P + Q*sqrt(d))/r**2 and p'(t) = (2A p + B r + 2A q*sqrt(d))/r
        # at t = (p + q*sqrt(d))/r, for ints A, B, C a positive multiple of a, b, c
        A, B, C = _int_coefs(a, b, c)
        return (_sign_pair(*poly_parts(A, B, C, t), t.d)
                or _sign_pair(2 * A * t.p + B * t.r, 2 * A * t.q, t.d) * direction
                or _sign(A, 0))
    v = (a * t + b) * t + c
    tol = 0
    if isinstance(v, float):
        tol = EPS * max(1.0, abs(float(a)), abs(float(b)), abs(float(c)))
    return _sign(v, tol) or _sign((2 * a * t + b) * direction, tol) or _sign(a, tol)


# `value_bound`'s error bound: a multiple of the unit roundoff u = 2**-53
# times the magnitude of the Horner terms, plus an absolute term for
# underflow.
_UNIT = 2.0 ** -53
_BOUND_REL = 16 * _UNIT
_BOUND_ABS = 2.0 ** -1068


def value_bound(coefs, t: float) -> tuple[float, float]:
    """(v, e) for the exact value P(T) = A*T**2 + B*T + C, where `coefs` =
    (a, b, c) and `t` are the doubles nearest A, B, C and T (as
    `Fraction.__float__` and `QuadraticNumber.__float__` give them; a float
    T is its own nearest double).  v is Horner's rule in float, and
    v - e <= P(T) <= v + e holds also when v - e and v + e are computed in
    float.

    Derivation.  With |x - fl(x)| <= u|x| for u = 2**-53 in the normal
    range, a = A(1 + alpha), b = B(1 + beta), c = C(1 + gamma) and
    t = T(1 + tau), all four relative errors at most u, and each of the
    four float operations of (a*t + b)*t + c adds a factor (1 + delta_i):

        v = A*T**2 (1 + theta_7) + B*T (1 + theta_5) + C (1 + theta_2),

    where |theta_k| <= (1 + u)**k - 1 < 1.01 k u.  So |v - P(T)| is below
    7.1 u S for S = |A|*T**2 + |B|*|T| + |C|, and S differs from its float
    value s = (|a|*|t| + |b|)*|t| + |c| by a factor within 1 +- 8u.  The
    bound e = 16 u s leaves more than 8u S beyond that, which covers the
    rounding of v - e and v + e (at most u(|v| + e) < 1.01 u S each).
    Underflow adds at most 2**-1075 to each conversion and product (sums
    of doubles that small are exact); propagated through the Horner steps
    that is below 2**-1073 (t**2 + 2|t| + 2 + 2|a|*|t| + |b|), and the
    absolute term 2**-1068 (1 + |a|*|t| + |b| + |t|)(1 + |t|) covers it.

    When a coefficient or t is not finite, or the bound overflows, returns
    (0.0, inf), whose interval holds every value: callers then compute the
    exact value.  This is the value filters' one entry; a bound of inf
    everywhere turns them off.
    """
    a, b, c = coefs
    v = (a * t + b) * t + c
    at = abs(t)
    s = abs(a) * at + abs(b)
    e = _BOUND_REL * (s * at + abs(c)) + _BOUND_ABS * (1.0 + s + at) * (1.0 + at)
    if e < math.inf:  # False for inf and nan
        return v, e
    return 0.0, math.inf


# `root_bounds`' error bound, relative to the root's double, and an
# absolute term for underflow.
_ROOT_REL = 8 * _UNIT
_ROOT_ABS = 2.0 ** -1070
_NO_ROOT_BOUNDS = (-math.inf, math.inf, -math.inf, math.inf)


def root_bounds(A: int, B: int, C: int, disc: int) -> tuple[float, float, float, float]:
    """Enclosures (lo_minus, hi_minus, lo_plus, hi_plus) in doubles of the
    roots (-B - sqrt(disc))/2A and (-B + sqrt(disc))/2A of A*t**2 + B*t + C,
    for ints A != 0, B, C and disc = B**2 - 4AC > 0.

    Derivation.  As in `_roots_float`, q = -(b + sign(b) s)/2 for the
    doubles a, b, c nearest A, B, C and s = fl(sqrt(disc)), with b = 0
    counted as positive, gives the roots q/a and c/q: rationalized, C/Q =
    (-B +- sqrt(disc))/2A for the exact Q.  With unit roundoff u = 2**-53
    each conversion and operation adds a factor (1 + delta), |delta| <= u,
    and sqrt(disc (1 + delta)) = sqrt(disc)(1 + delta/2 + ...), so s has
    relative error below 1.5u + u**2.  |b| and s are both nonnegative, so
    their rounded sum keeps the larger relative error, times one rounding:
    q has relative error below 2.6u, and its halving is exact (|Q| >= 1/2).
    Each quotient then adds two factors, one for converting a or c and one
    for its rounding, below 4.6u in all, plus at most 2**-1075 if it falls
    below the normal range (a, c and q do not).  So each root X lies
    within 4.7u|x| + 2**-1074 of its double x, and e = 8u|x| + 2**-1070
    leaves more than 3u|x| + 2**-1072 beyond that for the rounding of x -+ e
    (at most u(|x| + e) each; differences below the normal range are
    exact).

    When a conversion overflows or a root's bound is not finite, returns
    infinite enclosures: callers then decide exactly.  A function that
    returns those everywhere turns the root filter off.
    """
    try:
        a, b, c, s = float(A), float(B), float(C), math.sqrt(disc)
    except OverflowError:
        return _NO_ROOT_BOUNDS
    q = -0.5 * (b + s) if b >= 0.0 else 0.5 * (s - b)
    x, y = q / a, c / q  # the roots with -sign(b) and +sign(b) before sqrt
    ex = _ROOT_REL * abs(x) + _ROOT_ABS
    ey = _ROOT_REL * abs(y) + _ROOT_ABS
    if not (ex < math.inf and ey < math.inf):  # False for inf and nan
        return _NO_ROOT_BOUNDS
    if b >= 0.0:
        return x - ex, x + ex, y - ey, y + ey
    return y - ey, y + ey, x - ex, x + ex
