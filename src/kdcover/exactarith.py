"""Exact quadratic algebraic numbers.

Every event time in this package is a root of a quadratic polynomial with
rational coefficients, i.e. a number of the form (p + q*sqrt(d)) / r with
integers p, q, r, d.  This module implements that class of numbers with
comparisons decided purely by integer sign computations (`_sign_pair` and
`_sign_sum` take and multiply plain ints; no Fraction is built), so ordering
two event times never suffers rounding error.  It is the backbone of the
optional exact mode used for degenerate inputs where floating point breaks
down (coincident start points, identical slopes, repeated distances).

The radicand is kept as given, not reduced to its square-free part: the
sign computations are exact for any d, so pulling square factors out of d
on every operation would be work that no comparison needs.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["QuadraticNumber"]


def _sgn(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _sign_pair(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for integers a, b and d >= 0."""
    if b == 0 or d == 0:
        return _sgn(a)
    if a == 0:
        return _sgn(b)
    sa, sb = _sgn(a), _sgn(b)
    if sa == sb:
        return sa
    # Opposite signs: compare magnitudes by squaring (both strictly positive).
    return sa * _sgn(a * a - b * b * d)


def _sign_sum(a: int, b: int, d1: int, c: int, d2: int) -> int:
    """Sign of a + b*sqrt(d1) + c*sqrt(d2) for integers a, b, c and d1, d2 >= 0."""
    if c == 0 or d2 == 0:
        return _sign_pair(a, b, d1)
    if b == 0 or d1 == 0:
        return _sign_pair(a, c, d2)
    if d1 == d2:
        return _sign_pair(a, b + c, d1)
    s1 = _sign_pair(a, b, d1)
    s2 = _sgn(c)
    if s1 == 0:
        return s2
    if s1 == s2:
        return s1
    # a + b*sqrt(d1) and c*sqrt(d2) have opposite signs: square both sides.
    return s1 * _sign_pair(a * a + b * b * d1 - c * c * d2, 2 * a * b, d1)


class QuadraticNumber:
    """(p + q*sqrt(d)) / r with integers p, q, r > 0, d >= 0.

    Normalized so that r > 0, gcd(p, q, r) == 1, and q == 0 iff the value
    is rational (then d == 0): a perfect-square d is folded into p.  d is
    not square-free, so one value may have several forms, such as
    sqrt(8) = 2*sqrt(2); comparisons and hashing do not depend on the form.
    Arithmetic is supported with ints, Fractions, and other
    QuadraticNumbers over the same radicand (the same d, not merely the
    same square-free part); comparisons additionally accept floats, which
    compare by their exact rational value.
    """

    __slots__ = ("p", "q", "r", "d", "_float")

    def __init__(self, p: int, q: int, r: int, d: int):
        if r == 0:
            raise ZeroDivisionError("quadratic number with zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        if q == 0 or d == 0:
            q, d = 0, 0
        else:
            root = math.isqrt(d)
            if root * root == d:
                p += q * root
                q, d = 0, 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(p, q), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        self.p = p
        self.q = q
        self.r = r
        self.d = d
        self._float = None  # the nearest double, once asked for

    @classmethod
    def from_rational(cls, x) -> "QuadraticNumber":
        """x (an int, Fraction or float) as a rational QuadraticNumber."""
        p, r = x.as_integer_ratio()
        return cls(p, 0, r, 0)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _lift(x):
        if isinstance(x, QuadraticNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadraticNumber.from_rational(x)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.q and o.q and self.d != o.d:
            raise ValueError("cannot add quadratic numbers over different radicands")
        d = self.d if self.q else o.d
        return QuadraticNumber(
            self.p * o.r + o.p * self.r,
            self.q * o.r + o.q * self.r,
            self.r * o.r,
            d,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.q and o.q and self.d != o.d:
            raise ValueError("cannot multiply quadratic numbers over different radicands")
        d = self.d if self.q else o.d
        return QuadraticNumber(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            self.r * o.r,
            d,
        )

    __rmul__ = __mul__

    # -- comparisons ------------------------------------------------------

    def compare(self, other) -> int:
        """-1, 0 or +1; exact.  Floats compare by their exact rational value.

        The sign of self - other is that of (p1*r2 - p2*r1) + q1*r2*sqrt(d1)
        - q2*r1*sqrt(d2), since both denominators are positive.
        """
        if isinstance(other, QuadraticNumber):
            p, q, r, d = other.p, other.q, other.r, other.d
        elif isinstance(other, (int, Fraction, float)):
            p, r = other.as_integer_ratio()
            q = d = 0
        else:
            raise TypeError(f"cannot compare QuadraticNumber with {type(other).__name__}")
        return _sign_sum(self.p * r - p * self.r, self.q * r, self.d, -q * self.r, d)

    def __eq__(self, other):
        try:
            return self.compare(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        # The rational part, the square of the irrational part and its sign
        # do not depend on square factors left in d; a rational value
        # hashes as the equal Fraction.
        rational = hash(Fraction(self.p, self.r))
        if self.q == 0:
            return rational
        return hash((rational, Fraction(self.q * self.q * self.d, self.r * self.r), self.q > 0))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __float__(self) -> float:
        """The nearest double.  sqrt(d) is bracketed between s/2**k and
        (s + 1)/2**k, s = isqrt(d * 4**k), to more bits k until both ends of
        the value's interval round to the same double, so the result stays
        within half an ulp even when p and q*sqrt(d) nearly cancel; an
        irrational value never sits on a rounding boundary, so this ends.
        Each end is one int true division, which rounds correctly.  An end
        beyond the float range raises OverflowError only once the interval,
        of width |q| / (r * 2**k), is narrower than 1: before that the value
        itself may still fit.  An event time is read many times, so the
        double is kept.
        """
        if self._float is not None:
            return self._float
        p, q, r = self.p, self.q, self.r
        if q == 0:
            a = p / r
        else:
            bits = 64
            while True:
                s = math.isqrt(self.d << (2 * bits))
                try:
                    a = ((p << bits) + q * s) / (r << bits)
                    if a == ((p << bits) + q * (s + 1)) / (r << bits):
                        break
                except OverflowError:
                    if abs(q) < r << bits:
                        raise
                bits *= 2
        self._float = a
        return a

    def __repr__(self):
        return f"QuadraticNumber({self.p}, {self.q}, {self.r}, {self.d})"

    def __str__(self):
        if self.q == 0:
            return str(Fraction(self.p, self.r))
        return f"({self.p} + {self.q}*sqrt({self.d}))/{self.r}"
