"""Planar points, linear trajectories, and squared-distance polynomials.

Coordinates are floats by default.  In exact mode the same types carry
`fractions.Fraction` coordinates instead (see `MovingInstance.as_exact`);
every operation here is written so that it works unchanged for either
scalar type, and root finding dispatches on the coefficient type: float
coefficients get the numerically stable quadratic formula, rational
coefficients get exact `QuadraticNumber` roots.

`quadratic_roots` returns a plain tuple of the roots in a window; the
identically zero polynomial, whose roots are a continuum, has none there
and is told apart by `QuadraticPoly.is_zero`.

The kinetic layers decide every float-versus-exact question through the
predicates at the bottom of this module: `compare_event_times` orders
times, `compare_values` orders objective values (and `tolerance_band`
bounds which values it can call equal), and `sign_ahead` tells which way a
quadratic leaves a point.  Each uses a tolerance on a float pair and
integer-exact arithmetic otherwise; `sign_ahead` runs one body in both
modes, with a zero tolerance in exact mode.

`value_bound` is the float filter of exact mode: a polynomial's value at a
time in float, with a certified bound on its distance from the exact
value, so that a scan decides in float wherever the bounds separate and
computes exact values only where they do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .exactarith import QuadraticNumber

__all__ = [
    "EPS",
    "TIME_EPS",
    "Point2",
    "Trajectory",
    "MovingInstance",
    "QuadraticPoly",
    "EventTime",
    "squared_distance_poly",
    "quadratic_roots",
    "compare_event_times",
    "compare_values",
    "tolerance_band",
    "sign_ahead",
    "value_bound",
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


@dataclass(frozen=True)
class MovingInstance:
    """Fixed stations plus moving objects over the time horizon [0, 1].

    Indices into `stations` and `objects` are the stable identifiers used
    throughout the package.
    """

    stations: tuple[Point2, ...]
    objects: tuple[Trajectory, ...]
    canvas: tuple[Scalar, Scalar] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "stations", tuple(self.stations))
        object.__setattr__(self, "objects", tuple(self.objects))
        if self.objects and not self.stations:
            raise ValueError("an instance with objects needs at least one station")

    @property
    def n(self) -> int:
        return len(self.objects)

    @property
    def m(self) -> int:
        return len(self.stations)

    def as_exact(self) -> "MovingInstance":
        """Lift all coordinates to exact rationals.

        Float coordinates are converted via `Fraction(float)`, i.e. to the
        exact rational value of the stored double.  All downstream algebra
        is then rounding-free relative to those values.
        """

        def lift(v):
            return v if isinstance(v, (Fraction, int)) else Fraction(v)

        def lift_pt(p: Point2) -> Point2:
            return Point2(lift(p.x), lift(p.y))

        return MovingInstance(
            tuple(lift_pt(s) for s in self.stations),
            tuple(Trajectory(lift_pt(o.start), lift_pt(o.end)) for o in self.objects),
            self.canvas,
            dict(self.metadata),
        )


@dataclass(frozen=True)
class QuadraticPoly:
    """a*t**2 + b*t + c.  Units are squared meters when derived from distances."""

    a: Scalar
    b: Scalar
    c: Scalar

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


def quadratic_roots(p: QuadraticPoly, t_lo, t_hi) -> tuple[EventTime, ...]:
    """The tuple of real roots of p in the closed window [t_lo, t_hi],
    ascending.

    Degenerate polynomials are results, not errors: a linear polynomial
    yields at most one root and a constant none.  That includes the
    identically zero polynomial, whose roots form a continuum rather than
    isolated events; a caller that must tell it apart tests `p.is_zero`.
    """
    if not (t_lo <= t_hi):
        raise ValueError(f"empty window [{t_lo}, {t_hi}]")
    a, b, c = p.a, p.b, p.c
    # A float coefficient is never exact: the common case skips the ABC checks.
    if type(a) is float or type(b) is float or type(c) is float:
        return _roots_float(p, t_lo, t_hi)
    if _is_exact(a) and _is_exact(b) and _is_exact(c):
        return _roots_exact(p, t_lo, t_hi)
    return _roots_float(p, t_lo, t_hi)


def _roots_float(p: QuadraticPoly, t_lo, t_hi) -> tuple:
    a, b, c = float(p.a), float(p.b), float(p.c)
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
        return _roots_float(QuadraticPoly(*(math.ldexp(v, shift) for v in (a, b, c))),
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


def _roots_exact(p: QuadraticPoly, t_lo, t_hi) -> tuple:
    fa, fb, fc = Fraction(p.a), Fraction(p.b), Fraction(p.c)
    den = math.lcm(fa.denominator, fb.denominator, fc.denominator)
    A = fa.numerator * (den // fa.denominator)
    B = fb.numerator * (den // fb.denominator)
    C = fc.numerator * (den // fc.denominator)

    def in_window(t: QuadraticNumber) -> bool:
        return t.compare(t_lo) >= 0 and t.compare(t_hi) <= 0

    if A == 0:
        if B == 0:
            return ()
        root = QuadraticNumber(-C, 0, B, 0)
        return (root,) if in_window(root) else ()
    disc = B * B - 4 * A * C
    if disc < 0:
        return ()
    if disc == 0:
        root = QuadraticNumber(-B, 0, 2 * A, 0)
        return (root,) if in_window(root) else ()
    lo = QuadraticNumber(-B, -1, 2 * A, disc)
    hi = QuadraticNumber(-B, 1, 2 * A, disc)
    if A < 0:  # dividing by 2A < 0 reverses the order of -B -+ sqrt(disc)
        lo, hi = hi, lo
    return tuple(r for r in (lo, hi) if in_window(r))


def compare_event_times(a, b) -> int:
    """Order two event times: -1, 0 or +1.

    If either side is exact (Fraction or QuadraticNumber) the comparison is
    decided by integer sign computations with no rounding; a plain float
    pair compares with absolute tolerance `TIME_EPS`.
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


def sign_ahead(p: QuadraticPoly, t, direction: int = 1) -> int:
    """Sign of p immediately ahead of t in the travel direction.

    Looks at the value, then the slope in the travel direction, then the
    curvature, stopping at the first that is nonzero.  In float mode
    "nonzero" means beyond the tolerance EPS * max(1, |a|, |b|, |c|); in
    exact mode it is exact.  A tangency therefore counts by the side it
    stays on: a minimum at t gives +1, a maximum -1.  Returns 0 only when p
    vanishes near t (in float mode: within the tolerance).
    """
    v = p(t)
    tol = 0
    if isinstance(v, float):
        tol = EPS * max(1.0, abs(float(p.a)), abs(float(p.b)), abs(float(p.c)))
    return _sign(v, tol) or _sign(p.derivative_at(t) * direction, tol) or _sign(p.a, tol)


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
    exact value.  This is the filter's one entry; a bound of inf everywhere
    turns every filter off.
    """
    a, b, c = coefs
    v = (a * t + b) * t + c
    at = abs(t)
    s = abs(a) * at + abs(b)
    e = _BOUND_REL * (s * at + abs(c)) + _BOUND_ABS * (1.0 + s + at) * (1.0 + at)
    if e < math.inf:  # False for inf and nan
        return v, e
    return 0.0, math.inf
