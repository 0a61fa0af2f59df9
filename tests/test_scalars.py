"""Exact scalar arithmetic: worked examples, ring axioms, inverses, text, and
a differential test of the integer representation against Fractions."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from crystref import (AlphaNotInvertible, AlphaSquared, DivisionByZero, Ring,
                      RingMismatch, parse_scalar)
from conftest import (fraction_coords, fraction_inverse, fraction_mul,
                      random_scalar)


def test_product_examples():
    r4 = Ring(4)
    assert (r4.one() + r4.xi()) * (r4.one() - r4.xi()) == r4.rational(2)
    r3 = Ring(3)
    w = r3.xi()
    assert (r3.one() - w) * (r3.one() - w * w) == r3.rational(3)
    r6a = Ring(6, alpha=True)
    al = r6a.formal()
    assert (r6a.one() + al) + (r6a.xi() - al) == r6a.one() + r6a.xi()


def test_inverse_examples():
    r4 = Ring(4)
    assert (r4.one() - r4.xi()).inverse() == r4.scalar(Fraction(1, 2), Fraction(1, 2))
    r3 = Ring(3)
    x = r3.one() - r3.xi()
    inv = x.inverse()
    assert inv == r3.scalar(Fraction(2, 3), Fraction(1, 3))
    assert inv * x == r3.one()
    r6 = Ring(6)
    assert r6.xi().inverse() * r6.xi() == r6.one()
    assert r6.xi().inverse() == r6.scalar(1, -1)


def test_inverse_errors():
    r4 = Ring(4, alpha=True)
    with pytest.raises(DivisionByZero):
        r4.zero().inverse()
    with pytest.raises(AlphaNotInvertible):
        (r4.one() + r4.formal()).inverse()


def test_alpha_squared_guard():
    r2 = Ring(2, alpha=True)
    al = r2.formal()
    with pytest.raises(AlphaSquared):
        _ = al * al
    with pytest.raises(AlphaSquared):
        _ = (r2.one() + al) * (r2.one() - al)
    # products with a parameter-free factor stay legal
    assert (r2.rational(2) * al).c == 2


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        _ = Ring(3).one() + Ring(4).one()
    with pytest.raises(RingMismatch):
        Ring(4).scalar(0, 0, 1)   # alpha coefficient in a plain ring


def test_roots_of_unity():
    r4 = Ring(4)
    assert r4.root(2) == r4.rational(-1)
    r6 = Ring(6)
    assert r6.root(2) == r6.scalar(-1, 1)        # xi^2 = xi - 1 is e^{2pi i/3}
    r3 = Ring(3)
    assert r3.root(1) * r3.root(2) == r3.one()
    for r in (1, 2, 3, 4, 6):
        ring = Ring(r)
        xi = ring.root(1)
        assert xi ** r == ring.one()
        for m in range(1, r):
            assert xi ** m != ring.one(), (r, m)
        assert ring.root(-1) * xi == ring.one()


def test_coordinates_round_trip():
    r6 = Ring(6)
    x = r6.scalar(2, 3)
    assert x.coordinates() == (Fraction(2), Fraction(3))
    assert r6.from_coordinates(x.coordinates()) == x
    assert Ring(4).zero().coordinates() == (0, 0)
    r4a = Ring(4, alpha=True)
    y = r4a.scalar(Fraction(1, 2), 0, 0, 1)
    assert y.coordinates() == (Fraction(1, 2), 0, 0, 1)
    assert r4a.from_coordinates(y.coordinates()) == y


def test_folding_for_small_r():
    r2 = Ring(2)
    assert r2.scalar(1, 1) == r2.zero()          # 1 + xi = 1 - 1
    assert r2.xi() == r2.rational(-1)
    r1 = Ring(1)
    assert r1.scalar(1, 1) == r1.rational(2)


def test_text_round_trip(rng):
    r4 = Ring(4)
    assert r4.scalar(Fraction(1, 2), Fraction(1, 2)).text() == "1/2 + 1/2*x"
    assert r4.zero().text() == "0"
    for ring in (Ring(3), Ring(4), Ring(6), Ring(2, True), Ring(6, True), Ring(1, True)):
        for _ in range(200):
            s = random_scalar(rng, ring, with_alpha=True)
            assert parse_scalar(ring, s.text()) == s, s.text()


def test_ring_axioms(rng):
    for ring in (Ring(3), Ring(4), Ring(6), Ring(2, True), Ring(6, True)):
        for _ in range(150):
            x = random_scalar(rng, ring, with_alpha=True)
            y = random_scalar(rng, ring, with_alpha=True)
            z = random_scalar(rng, ring)          # keep products defined
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * z == z * x
            assert (x + y) * z == x * z + y * z
            w = random_scalar(rng, ring)
            assert (z * w) * x == z * (w * x)
            assert x - x == ring.zero()


def test_inverse_property(rng):
    for ring in (Ring(3), Ring(4), Ring(6)):
        count = 0
        while count < 80:
            x = random_scalar(rng, ring)
            if x.is_zero():
                continue
            count += 1
            assert x * x.inverse() == ring.one()
            assert (x ** 3) * (x ** -3) == ring.one()


_RINGS = [Ring(r, alpha) for r in (1, 2, 3, 4, 6) for alpha in (False, True)]
_COEFFS = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-40, max_value=40, max_denominator=24))


@st.composite
def _scalar_pairs(draw):
    """(ring, x, y, coordinates of x, coordinates of y); the formal
    coordinates are drawn only for alpha rings, and often left zero."""
    ring = draw(st.sampled_from(_RINGS))

    def coords():
        a, b = draw(_COEFFS), draw(_COEFFS)
        c = d = 0
        if ring.alpha and draw(st.booleans()):
            c, d = draw(_COEFFS), draw(_COEFFS)
        return fraction_coords(ring, a, b, c, d)

    cx, cy = coords(), coords()
    return ring, ring.scalar(*cx), ring.scalar(*cy), cx, cy


def _matches(s, want):
    """s has the reference value and is in lowest terms over den > 0."""
    nums, den = s.int_coordinates()
    assert den > 0 and gcd(*nums, den) == 1
    assert gcd(s.na, s.nb, s.nc, s.nd, s.den) == 1
    width = s.ring.flat_width
    coords = want if s.ring.alpha else want[:2]
    assert want[width:] == (0,) * (4 - width)
    assert s.coordinates() == coords
    assert tuple(Fraction(n, den) for n in nums) == coords
    assert (s.a, s.b, s.c, s.d) == want


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_scalar_pairs())
def test_integer_scalar_matches_fraction_reference(case):
    ring, x, y, cx, cy = case
    _matches(x, cx)
    _matches(x + y, tuple(p + q for p, q in zip(cx, cy)))
    _matches(x - y, tuple(p - q for p, q in zip(cx, cy)))
    _matches(-x, tuple(-p for p in cx))
    prod = fraction_mul(ring, cx, cy)
    if prod is None:
        with pytest.raises(AlphaSquared):
            _ = x * y
    else:
        _matches(x * y, prod)
    inv = fraction_inverse(ring, cy)
    if inv is None:
        error = AlphaNotInvertible if (cy[2] or cy[3]) else DivisionByZero
        with pytest.raises(error):
            y.inverse()
        with pytest.raises(error):
            _ = x / y
    else:
        _matches(y.inverse(), inv)
        quot = fraction_mul(ring, cx, inv)
        if quot is None:
            with pytest.raises(AlphaSquared):
                _ = x / y
        else:
            _matches(x / y, quot)
    # equal values built two ways compare and hash equal
    same = (x + y) - y
    assert same == x and hash(same) == hash(x)
    assert (x == y) == (cx == cy)
    assert parse_scalar(ring, x.text()) == x
    other = Ring(4 if ring.r != 4 else 3, ring.alpha)
    with pytest.raises(RingMismatch):
        _ = x + other.one()
    with pytest.raises(RingMismatch):
        _ = x * other.one()
    if not ring.alpha:
        with pytest.raises(RingMismatch):
            ring.scalar(cx[0], cx[1], 1)
