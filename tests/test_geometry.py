import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdcover.exactarith import QuadraticNumber, _sign_pair, _sign_sum
from kdcover.geometry import (
    ZERO_POLY,
    MovingInstance,
    Point2,
    QuadraticPoly,
    Trajectory,
    _roots_exact,
    _roots_float,
    compare_event_times,
    compare_values,
    quadratic_roots,
    sign_ahead,
    squared_distance_poly,
)

coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def test_squared_distance_poly_examples():
    p = squared_distance_poly(Point2(0.0, 0.0), Trajectory(Point2(0.0, 1.0), Point2(0.0, 3.0)))
    assert (p.a, p.b, p.c) == (4.0, 4.0, 1.0)
    p = squared_distance_poly(Point2(0.0, 0.0), Trajectory(Point2(2.0, 0.0), Point2(2.0, 0.0)))
    assert (p.a, p.b, p.c) == (0.0, 0.0, 4.0)
    p = squared_distance_poly(Point2(1.0, 1.0), Trajectory(Point2(1.0, 1.0), Point2(2.0, 1.0)))
    assert (p.a, p.b, p.c) == (1.0, 0.0, 0.0)


@given(coords, coords, coords, coords, coords, coords,
       st.floats(min_value=0.0, max_value=1.0))
def test_poly_matches_direct_distance(sx, sy, ax, ay, bx, by, t):
    station = Point2(sx, sy)
    obj = Trajectory(Point2(ax, ay), Point2(bx, by))
    poly = squared_distance_poly(station, obj)
    pos = obj.at(t)
    direct = (pos.x - sx) ** 2 + (pos.y - sy) ** 2
    assert poly(t) == pytest.approx(direct, rel=1e-12, abs=1e-9)
    assert poly.a >= 0.0


def test_poly_matches_direct_distance_bulk():
    rng = Random(42)
    for _ in range(1000):
        station = Point2(rng.uniform(-100, 100), rng.uniform(-100, 100))
        obj = Trajectory(
            Point2(rng.uniform(-100, 100), rng.uniform(-100, 100)),
            Point2(rng.uniform(-100, 100), rng.uniform(-100, 100)),
        )
        t = rng.random()
        pos = obj.at(t)
        direct = (pos.x - station.x) ** 2 + (pos.y - station.y) ** 2
        got = squared_distance_poly(station, obj)(t)
        assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))


def test_quadratic_roots_examples():
    assert quadratic_roots(QuadraticPoly(4.0, 4.0, -3.0), 0.0, 1.0) == (0.5,)
    assert quadratic_roots(QuadraticPoly(0.0, 2.0, -1.0), 0.0, 1.0) == (0.5,)
    assert quadratic_roots(QuadraticPoly(1.0, 0.0, 1.0), 0.0, 1.0) == ()


def test_quadratic_roots_degenerate():
    zero = QuadraticPoly(0.0, 0.0, 0.0)
    assert zero.is_zero and quadratic_roots(zero, 0.0, 1.0) == ()
    constant = QuadraticPoly(0.0, 0.0, 5.0)
    assert not constant.is_zero and quadratic_roots(constant, 0.0, 1.0) == ()
    # double root
    assert quadratic_roots(QuadraticPoly(1.0, -1.0, 0.25), 0.0, 1.0) == (0.5,)


def test_quadratic_roots_window_is_closed():
    assert quadratic_roots(QuadraticPoly(0.0, 1.0, 0.0), 0.0, 1.0) == (0.0,)
    with pytest.raises(ValueError):
        quadratic_roots(QuadraticPoly(1.0, 0.0, 0.0), 1.0, 0.0)


def test_float_roots_survive_an_overflowing_discriminant():
    """b*b and 4ac overflow a double here (4ac alone in the second case);
    the roots are those of the polynomial scaled by a power of two."""
    assert quadratic_roots(QuadraticPoly(1e160, -3e160, 2e160), 0.0, 3.0) == (1.0, 2.0)
    assert quadratic_roots(QuadraticPoly(1e200, 0.0, -1e200), -3.0, 3.0) == (-1.0, 1.0)
    (root,) = quadratic_roots(QuadraticPoly(1.0, -3e300, 2e300), 0.0, 3.0)
    assert root == pytest.approx(2 / 3, rel=1e-15)
    # A linear polynomial divides and never forms a discriminant.
    assert quadratic_roots(QuadraticPoly(0.0, 1e300, -5e299), 0.0, 1.0) == (0.5,)


def test_quadratic_roots_dispatches_on_coefficient_types():
    """A polynomial with any float coefficient gets the float formula, the
    rest (int and Fraction only) the exact roots; compared by repr, so a
    float root where an exact one belongs, or the reverse, fails."""
    rng = Random(12)

    def small():
        return rng.choice([rng.uniform(-4, 4), float(rng.randint(-3, 3)), 0.0])

    def rational():
        return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])

    windows = [(0.0, 1.0), (-2.0, 2.0), (0.25, 0.75), (Fraction(-1), Fraction(3, 2))]
    for _ in range(300):
        a, b, c = small(), small(), small()
        p = QuadraticPoly(a, b, c)
        floats = [p, ZERO_POLY + p, p + ZERO_POLY, QuadraticPoly(0, b, c),
                  QuadraticPoly(rational(), b, rational()),
                  QuadraticPoly(rational(), rational(), c)]
        exact = [QuadraticPoly(rational(), rational(), rational()), QuadraticPoly(0, rational(), 0)]
        for lo, hi in windows:
            for q in floats:
                assert repr(quadratic_roots(q, lo, hi)) == repr(_roots_float(q, lo, hi)), q
            for q in exact:
                assert repr(quadratic_roots(q, lo, hi)) == repr(_roots_exact(q, lo, hi)), q
    double = QuadraticPoly(1.0, -1.0, 0.25)
    assert repr(quadratic_roots(double, 0, 1)) == repr(_roots_float(double, 0, 1)) == "(0.5,)"


def test_float_roots_window_only_filters():
    """The float roots in a window are the roots over the whole line that
    lie in it, in the same order."""
    rng = Random(13)
    everywhere = (-math.inf, math.inf)
    for _ in range(500):
        p = QuadraticPoly(*(rng.choice([rng.uniform(-4, 4), 0.0]) for _ in range(3)))
        roots = _roots_float(p, *everywhere)
        assert list(roots) == sorted(roots)
        lo = rng.uniform(-3, 2)
        for lo, hi in ((lo, lo + rng.uniform(0, 2)), (lo, lo)) + tuple((r, r) for r in roots):
            inside = tuple(r for r in roots if lo <= r <= hi)
            assert repr(quadratic_roots(p, lo, hi)) == repr(inside), (p, lo, hi)


def test_exact_roots_evaluate_to_zero_exactly():
    rng = Random(7)
    swapped = 0
    for _ in range(200):
        a = Fraction(rng.randint(-20, 20))
        b = Fraction(rng.randint(-20, 20))
        c = Fraction(rng.randint(-20, 20))
        roots = quadratic_roots(QuadraticPoly(a, b, c), Fraction(-10), Fraction(10))
        for root in roots:
            assert QuadraticPoly(a, b, c)(root) == 0
        # Ascending, also where a < 0 swaps the formula's two roots.
        assert all(compare_event_times(r, s) < 0 for r, s in zip(roots, roots[1:])), (a, b, c)
        swapped += a < 0 and len(roots) == 2
    assert swapped > 0


def test_float_roots_evaluate_near_zero():
    rng = Random(8)
    for _ in range(300):
        a = rng.uniform(-50, 50)
        b = rng.uniform(-50, 50)
        c = rng.uniform(-50, 50)
        poly = QuadraticPoly(a, b, c)
        scale = max(abs(a), abs(b), abs(c))
        for root in quadratic_roots(poly, -10.0, 10.0):
            assert abs(poly(root)) <= 1e-9 * max(scale, 1.0) * max(abs(root), 1.0) ** 2


def test_compare_event_times_examples():
    a = QuadraticNumber(0, 1, 2, 2)
    assert compare_event_times(a, QuadraticNumber(0, 1, 2, 2)) == 0
    assert compare_event_times(QuadraticNumber(-4, 1, 8, 64), 0.5) == 0
    assert compare_event_times(a, QuadraticNumber(0, 1, 2, 3)) == -1


def test_compare_event_times_float_tolerance():
    assert compare_event_times(0.5, 0.5 + 1e-12) == 0
    assert compare_event_times(0.5, 0.5 + 1e-10) == -1
    assert compare_event_times(0.1, 0.2) == -1
    assert compare_event_times(0.2, 0.1) == 1
    assert compare_event_times(Fraction(1, 2), 0.5) == 0


def test_sign_ahead_table():
    F = Fraction
    sqrt2 = QuadraticNumber(0, 1, 1, 2)
    # (label, poly, t, sign forward, sign backward)
    table = [
        ("float crossing", QuadraticPoly(1.0, 0.0, -0.25), 0.5, 1, -1),
        ("float value decides", QuadraticPoly(1.0, 0.0, -0.25), 0.0, -1, -1),
        ("float tangency from above", QuadraticPoly(1.0, -1.0, 0.25), 0.5, 1, 1),
        ("float tangency from below", QuadraticPoly(-1.0, 1.0, -0.25), 0.5, -1, -1),
        ("float tangency within tolerance", QuadraticPoly(1.0, -1.0, 0.25), 0.5 + 1e-12, 1, 1),
        ("float linear", QuadraticPoly(0.0, 2.0, -1.0), 0.5, 1, -1),
        ("float slope below EPS reads flat", QuadraticPoly(0.0, 1e-12, 0.0), 0.0, 0, 0),
        ("float curvature below EPS reads flat", QuadraticPoly(1e-12, 0.0, 0.0), 0.0, 0, 0),
        ("float constant", QuadraticPoly(0.0, 0.0, 3.0), 0.2, 1, 1),
        ("float negative constant", QuadraticPoly(0.0, 0.0, -3.0), 0.2, -1, -1),
        ("float zero", QuadraticPoly(0.0, 0.0, 0.0), 0.2, 0, 0),
        ("exact crossing at sqrt(2)", QuadraticPoly(F(1), F(0), F(-2)), sqrt2, 1, -1),
        ("exact value decides", QuadraticPoly(F(1), F(0), F(-2)), F(1), -1, -1),
        ("exact tangency from above", QuadraticPoly(F(1), F(-1), F(1, 4)), F(1, 2), 1, 1),
        ("exact tangency from below", QuadraticPoly(F(-1), F(1), F(-1, 4)), F(1, 2), -1, -1),
        ("exact just past a tangency", QuadraticPoly(F(-1), F(1), F(-1, 4)),
         F(1, 2) + F(1, 10**12), -1, -1),
        ("exact linear", QuadraticPoly(F(0), F(2), F(-1)), F(1, 2), 1, -1),
        ("exact tiny slope", QuadraticPoly(F(0), F(1, 10**12), F(0)), F(0), 1, -1),
        ("exact constant", QuadraticPoly(F(0), F(0), F(3)), F(1, 5), 1, 1),
        ("exact zero", QuadraticPoly(F(0), F(0), F(0)), sqrt2, 0, 0),
    ]
    for label, poly, t, forward, backward in table:
        assert sign_ahead(poly, t) == forward, label
        assert sign_ahead(poly, t, 1) == forward, label
        assert sign_ahead(poly, t, -1) == backward, label


def test_compare_values_table():
    F = Fraction
    sqrt2 = QuadraticNumber(0, 1, 1, 2)
    table = [
        ("float equal", 1.0, 1.0, 0),
        ("float within absolute EPS", 1.0, 1.0 + 5e-10, 0),
        ("float beyond EPS", 1.0, 1.0 + 5e-9, -1),
        ("float near zero", 0.0, 5e-10, 0),
        ("float relative at scale", 1e6, 1e6 + 1e-4, 0),
        ("float beyond relative EPS", 1e6, 1e6 + 1e-2, -1),
        ("float ordered", 2.0, 1.0, 1),
        ("Fraction exact", F(1), F(1) + F(1, 10**12), -1),
        ("Fraction equal", F(3, 2), F(3, 2), 0),
        ("int pair", 3, 3, 0),
        ("float against Fraction is exact", 1.0, F(1) + F(1, 10**12), -1),
        ("QuadraticNumber against Fraction", sqrt2, F(141421356, 10**8), 1),
        ("QuadraticNumber equal", QuadraticNumber(0, 1, 1, 8), QuadraticNumber(0, 2, 1, 2), 0),
    ]
    for label, a, b, expected in table:
        assert compare_values(a, b) == expected, label
        assert compare_values(b, a) == -expected, label


def _random_qn(rng: Random) -> QuadraticNumber:
    a = rng.randint(1, 12)
    b = rng.randint(-12, 12)
    c = rng.randint(-12, 12)
    roots = quadratic_roots(
        QuadraticPoly(Fraction(a), Fraction(b), Fraction(c)), Fraction(-100), Fraction(100)
    )
    if roots:
        return roots[rng.randrange(len(roots))]
    return QuadraticNumber.from_rational(Fraction(rng.randint(-50, 50), rng.randint(1, 9)))


def test_exact_comparison_total_order():
    rng = Random(99)
    values = [_random_qn(rng) for _ in range(60)]
    for _ in range(2000):
        x, y, z = rng.choice(values), rng.choice(values), rng.choice(values)
        cxy, cyx = compare_event_times(x, y), compare_event_times(y, x)
        assert cxy == -cyx
        if cxy <= 0 and compare_event_times(y, z) <= 0:
            assert compare_event_times(x, z) <= 0
        # consistency with float approximations
        fx, fy = float(x), float(y)
        if abs(fx - fy) > 1e-6:
            assert cxy == (-1 if fx < fy else 1)
    # A twin (p*k + q*sqrt(d*k*k)) / (r*k) is the same number in another
    # form: it compares 0 with its value, hashes equal to it, and orders
    # the same against every other value.
    for x in values:
        k = rng.randint(2, 30)
        twin = QuadraticNumber(x.p * k, x.q, x.r * k, x.d * k * k)
        assert compare_event_times(x, twin) == 0 == compare_event_times(twin, x), x
        assert twin == x and hash(twin) == hash(x), x
        for y in values:
            assert compare_event_times(twin, y) == compare_event_times(x, y), (x, y)
            assert compare_event_times(y, twin) == compare_event_times(y, x), (x, y)


def test_quadratic_number_hash_ignores_square_factors():
    # Two forms of 1009*sqrt(2).  1009 is a prime above 1000, so a trial
    # division by small primes would not bring them to one form either.
    x = QuadraticNumber(0, 1, 1, 2 * 1009**2)
    y = QuadraticNumber(0, 1009, 1, 2)
    assert x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1
    assert hash(QuadraticNumber(-4, 1, 8, 64)) == hash(Fraction(1, 2))


def test_quadratic_number_arithmetic():
    r = QuadraticNumber(1, 1, 2, 2)  # (1 + sqrt(2)) / 2
    assert float(r) == pytest.approx((1 + math.sqrt(2)) / 2, rel=1e-15)
    s = r + Fraction(1, 2)
    assert float(s) == pytest.approx((2 + math.sqrt(2)) / 2, rel=1e-15)
    assert (r * 2 - 1) * (r * 2 - 1) == 2  # (2r - 1)^2 == 2
    assert QuadraticNumber(0, 1, 1, 8) == QuadraticNumber(0, 2, 1, 2)
    half = QuadraticNumber(-4, 1, 8, 64)  # (-4 + sqrt(64)) / 8: a square radicand
    assert half.is_rational and (half.p, half.q, half.r, half.d) == (1, 0, 2, 0)
    assert half == Fraction(1, 2)
    with pytest.raises(ValueError):
        QuadraticNumber(0, 1, 1, 2) + QuadraticNumber(0, 1, 1, 3)


def test_quadratic_number_float_is_nearest_double():
    # 665857 - 470832*sqrt(2) is about 7.5e-7: its two terms cancel to 12
    # digits, which a fixed-precision sqrt turns into a wrong 8th digit.
    # 2**1992 * sqrt(2) - isqrt(2 * 4**1992) lies in [0, 1), but the ends
    # of its first 64-bit bracket are about 2**1928 apart, beyond the
    # float range.
    def reference(x):
        root = Fraction(math.isqrt(x.d << 8000), 1 << 4000)
        return float((x.p + x.q * root) / x.r)

    rng = Random(7)
    q = 2 ** 1992
    cases = [QuadraticNumber(665857, -470832, 1, 2), QuadraticNumber(-665857, 470832, 3, 2),
             QuadraticNumber(-math.isqrt(2 * q * q), q, 1, 2)]
    cases += [x for x in (_random_qn(rng) for _ in range(200)) if not x.is_rational]
    assert len(cases) > 50
    for x in cases:
        assert float(x) == reference(x), x
    with pytest.raises(OverflowError):  # a value beyond the float range
        float(QuadraticNumber(10 ** 400, 1, 1, 2))


def test_sign_helpers_against_decimal():
    """Every a, b, c in [-3, 3] and d1, d2 in [0, 9] against the sign of
    the same sum at 50 digits.  Perfect squares make a + b*sqrt(d1) vanish
    with c nonzero.  A nonzero sum of such small terms is far above 1e-40;
    an exact zero with non-square radicands (2*sqrt(2) - sqrt(8)) rounds
    to below it."""

    def sign(total):
        return 0 if abs(total) < Decimal("1e-40") else (1 if total > 0 else -1)

    coefs = range(-3, 4)
    with localcontext() as ctx:
        ctx.prec = 50
        root = [Decimal(d).sqrt() for d in range(10)]
        for a, b, d1 in product(coefs, coefs, range(10)):
            pair = a + b * root[d1]
            assert _sign_pair(a, b, d1) == sign(pair), (a, b, d1)
            for c, d2 in product(coefs, range(10)):
                assert _sign_sum(a, b, d1, c, d2) == sign(pair + c * root[d2]), (
                    a, b, d1, c, d2)


def test_instance_validation():
    with pytest.raises(ValueError):
        MovingInstance((), (Trajectory(Point2(0.0, 0.0), Point2(1.0, 0.0)),))
    with pytest.raises(ValueError):
        Point2(math.nan, 0.0)
    inst = MovingInstance((Point2(0.5, 0.25),), (Trajectory(Point2(0.1, 0.2), Point2(0.3, 0.4)),))
    exact = inst.as_exact()
    assert exact.stations[0].x == Fraction(0.5)
    assert isinstance(exact.objects[0].start.y, Fraction)
