"""Exact quadratic algebraic numbers.

Every event time in this package is a root of a quadratic polynomial with
rational coefficients, i.e. a number of the form (p + q*sqrt(d)) / r with
integers p, q, r, d.  This module implements that class of numbers with
comparisons decided purely by integer sign computations, so ordering two
event times never suffers rounding error.  It is the backbone of the
optional exact mode used for degenerate inputs where floating point breaks
down (coincident start points, identical slopes, repeated distances).
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["QuadraticNumber"]


def _primes_below(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i, flag in enumerate(sieve) if flag)


_TRIAL_PRIMES = _primes_below(1000)


def _split_square(d: int) -> tuple[int, int]:
    """Factor d = s*s*core, pulling out square factors.

    Trial division covers primes below 1000 and a final perfect-square test
    catches the rest.  A square of a larger prime may survive inside core;
    that only leaves the representation non-canonical, it never makes a
    comparison wrong because comparisons go through sign computations that
    do not rely on canonical radicands.
    """
    s = 1
    for p in _TRIAL_PRIMES:
        pp = p * p
        if pp > d:
            break
        while d % pp == 0:
            d //= pp
            s *= p
    root = math.isqrt(d)
    if root * root == d:
        return s * root, 1
    return s, d


def _sgn(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _sign_pair(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) for rational a, b and integer d >= 0."""
    if b == 0 or d == 0:
        return _sgn(a)
    if a == 0:
        return _sgn(b)
    sa, sb = _sgn(a), _sgn(b)
    if sa == sb:
        return sa
    # Opposite signs: compare magnitudes by squaring (both strictly positive).
    return sa * _sgn(a * a - b * b * d)


def _sign_sum(a: Fraction, b: Fraction, d1: int, c: Fraction, d2: int) -> int:
    """Sign of a + b*sqrt(d1) + c*sqrt(d2)."""
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
    if s2 == 0:
        return s1
    if s1 == s2:
        return s1
    # a + b*sqrt(d1) and c*sqrt(d2) have opposite signs: square both sides.
    return s1 * _sign_pair(a * a + b * b * d1 - c * c * d2, 2 * a * b, d1)


def _sqrt_fraction(d: int, bits: int = 64) -> Fraction:
    """sqrt(d) to ~bits bits, exact big-int arithmetic (d may exceed float range)."""
    return Fraction(math.isqrt(d << (2 * bits)), 1 << bits)


class QuadraticNumber:
    """(p + q*sqrt(d)) / r with integers p, q, r > 0, d >= 0.

    Normalized so that gcd(p, q, r) == 1, square factors are pulled out of
    d, and q == 0 iff the value is rational (then d == 0).  Arithmetic is
    supported with ints, Fractions, and other QuadraticNumbers over the
    same radicand; comparisons additionally accept floats, which are lifted
    to their exact rational value first.
    """

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int, r: int, d: int):
        if r == 0:
            raise ZeroDivisionError("quadratic number with zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        if q == 0 or d == 0:
            q, d = 0, 0
        else:
            s, core = _split_square(d)
            if core == 1:
                p += q * s
                q, d = 0, 0
            else:
                q, d = q * s, core
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(p, q), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        self.p = p
        self.q = q
        self.r = r
        self.d = d

    @classmethod
    def from_rational(cls, x) -> "QuadraticNumber":
        f = Fraction(x)
        return cls(f.numerator, 0, f.denominator, 0)

    @classmethod
    def make(cls, rational_part, radical_coeff, radicand: int) -> "QuadraticNumber":
        """Build rational_part + radical_coeff * sqrt(radicand)."""
        a = Fraction(rational_part)
        b = Fraction(radical_coeff)
        den = math.lcm(a.denominator, b.denominator)
        return cls(
            a.numerator * (den // a.denominator),
            b.numerator * (den // b.denominator),
            den,
            radicand,
        )

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self!r} is irrational")
        return Fraction(self.p, self.r)

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

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                raise ZeroDivisionError("division by zero")
            return QuadraticNumber(
                self.p * f.denominator, self.q * f.denominator, self.r * f.numerator, self.d
            )
        return NotImplemented

    # -- comparisons ------------------------------------------------------

    def compare(self, other) -> int:
        """-1, 0 or +1; exact.  Floats are lifted to their exact rational value."""
        if isinstance(other, float):
            other = Fraction(other)
        o = self._lift(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticNumber with {type(other).__name__}")
        a = Fraction(self.p, self.r) - Fraction(o.p, o.r)
        b = Fraction(self.q, self.r)
        c = -Fraction(o.q, o.r)
        return _sign_sum(a, b, self.d, c, o.d)

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
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r, self.d))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __float__(self) -> float:
        """The nearest double.  sqrt(d) is bracketed to more bits until both
        ends of the value's interval round to the same double, so the result
        stays within half an ulp even when p and q*sqrt(d) nearly cancel;
        an irrational value never sits on a rounding boundary, so this ends.
        """
        if self.q == 0:
            return float(Fraction(self.p, self.r))
        bits = 64
        while True:
            lo = _sqrt_fraction(self.d, bits)
            a = float((self.p + self.q * lo) / self.r)
            b = float((self.p + self.q * (lo + Fraction(1, 1 << bits))) / self.r)
            if a == b:
                return a
            bits *= 2

    def __repr__(self):
        return f"QuadraticNumber({self.p}, {self.q}, {self.r}, {self.d})"

    def __str__(self):
        if self.q == 0:
            return str(Fraction(self.p, self.r))
        return f"({self.p} + {self.q}*sqrt({self.d}))/{self.r}"
