"""Affine maps: composition law, fixed spaces, reflection predicates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crystref import (AffineMap, DimensionMismatch, EMPTY, Monomial, Ring,
                      Vector, compose, fixed_space, has_finite_order,
                      is_central_reflection, is_reflection, power,
                      subspace_satisfies_form)
from crystref.hyperplanes import LinearForm
from conftest import (dense_fixed_space, dense_rank, random_affine,
                      random_monomial, random_vector, subspace_contains)


def _diag(ring, exps):
    return Monomial.diagonal(ring, exps)


def test_compose_translations():
    r4 = Ring(4)
    t = Vector(r4, [r4.one(), r4.xi()])
    s = Vector(r4, [r4.rational(2), r4.one()])
    g = AffineMap.translation(t)
    h = AffineMap.translation(s)
    out = compose(g, h)
    assert out.lin.is_identity()
    assert out.tran == t + s


def test_compose_root_of_unity_power():
    r4 = Ring(4)
    g = AffineMap.linear(_diag(r4, [1]))
    assert power(g, 4).is_identity()
    assert not power(g, 2).is_identity()
    assert power(g, 0).is_identity()
    assert power(g, 1) == g


def test_compose_table_element_square():
    # the failing element of the r = 3 index-2 group, squared
    r3 = Ring(3)
    w = r3.xi()
    c = (r3.one() - w).inverse()
    g = AffineMap(_diag(r3, [1, 1]), Vector(r3, [c, -c]))
    sq = compose(g, g)
    assert sq.lin == _diag(r3, [2, 2])
    factor = r3.one() + w
    assert sq.tran == Vector(r3, [factor * c, -(factor * c)])


def test_power_of_reflection_with_perpendicular_translation():
    # g = s + b with b perpendicular to the mirror has order = order of s
    r4 = Ring(4)
    beta = r4.scalar(Fraction(2, 3), 1)
    g = AffineMap(Monomial.from_cycles(r4, 2, [[1, 2]]),
                  Vector(r4, [beta, -beta]))
    assert power(g, 2).is_identity()
    r6 = Ring(6)
    s = _diag(r6, [1, 0])
    g6 = AffineMap(s, Vector(r6, [r6.scalar(1, 1), r6.zero()]))
    assert power(g6, 6).is_identity()
    assert not power(g6, 3).is_identity()


def test_power_negative_exponent():
    r6 = Ring(6)
    g = AffineMap(Monomial.diagonal(r6, [1, 3]),
                  Vector(r6, [r6.one(), r6.xi()]))
    assert compose(power(g, -2), power(g, 2)).is_identity()
    assert power(g, -1) == g.inverse()


def test_is_central_reflection():
    r4 = Ring(4)
    assert is_central_reflection(_diag(r4, [1, 0, 0]))
    assert is_central_reflection(Monomial.from_cycles(r4, 2, [[1, 2]]))
    r3 = Ring(3)
    assert not is_central_reflection(_diag(r3, [1, 1]))
    assert not is_central_reflection(Monomial.identity(r3, 2))
    # weighted transposition with inverse weights is a reflection
    assert is_central_reflection(Monomial(r4, [1, 0], [-1, 1]))
    # ... with non-inverse weights it is not
    assert not is_central_reflection(Monomial(r4, [1, 0], [1, 1]))
    # 3-cycles never are
    assert not is_central_reflection(Monomial.from_cycles(r4, 3, [[1, 2, 3]]))


def test_central_reflection_matches_cycle_count(rng):
    # the cycle count is the implementation; dense rank(1 - m) is the oracle
    for ring in (Ring(3), Ring(4), Ring(6), Ring(2, True)):
        for n in (1, 2, 3, 4):
            for _ in range(60):
                m = random_monomial(rng, ring, n)
                assert is_central_reflection(m) == (dense_rank(m) == 1), \
                    m.text()


def test_fixed_space_examples():
    r3 = Ring(3)
    assert fixed_space(AffineMap.identity(r3, 2)).dim == 2
    t = AffineMap.translation(Vector.basis(r3, 2, 1))
    assert fixed_space(t).is_empty
    w = r3.xi()
    c = (r3.one() - w).inverse()
    g = AffineMap(_diag(r3, [1, 1]), Vector(r3, [c, -c]))
    space = fixed_space(g)
    assert space.dim == 0
    assert space.point() == Vector(r3, [c * c, -(c * c)])
    # substituting back fixes the point
    assert g.apply(space.point()) == space.point()


_RINGS = (Ring(3), Ring(4), Ring(6), Ring(2, True))
_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _affine_maps(draw):
    """Monomial affine maps over the test rings, n <= 4.  Half of them take
    the translation u - Lin(u), so that every cycle of weight product one
    is consistent and the fixed space is not empty."""
    ring = draw(st.sampled_from(_RINGS))
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(n)))
    exps = draw(st.lists(st.integers(0, ring.r - 1), min_size=n, max_size=n))
    lin = Monomial(ring, perm, exps)
    width = ring.flat_width
    u = Vector(ring, [ring.from_coordinates(draw(st.lists(
        _FRACTIONS, min_size=width, max_size=width))) for _ in range(n)])
    return AffineMap(lin, u - lin.apply(u) if draw(st.booleans()) else u)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_affine_maps())
def test_fixed_space_matches_dense_reference(g):
    fast, dense = fixed_space(g), dense_fixed_space(g)
    assert fast.is_empty == dense.is_empty
    if not fast.is_empty:
        assert fast.base == dense.base
        assert fast.directions == dense.directions


def test_fixed_space_kernel_is_normalized():
    r4 = Ring(4)
    g = AffineMap.linear(Monomial.from_cycles(r4, 3, [[1, 2]]))
    space = fixed_space(g)
    assert space.dim == 2
    for d in space.directions:
        lead = next(x for x in d.coords if not x.is_zero())
        assert lead.is_one()


def test_is_reflection_examples():
    r6 = Ring(6)
    beta = r6.scalar(Fraction(1, 2), 3)
    g = AffineMap(Monomial.from_cycles(r6, 2, [[1, 2]]),
                  Vector(r6, [beta, -beta]))
    assert is_reflection(g)
    assert not is_reflection(AffineMap.translation(Vector.basis(r6, 2, 1)))
    anyt = Vector(r6, [r6.one(), r6.xi()])
    assert not is_reflection(AffineMap(_diag(r6, [2, 2]), anyt))


def test_has_finite_order_examples():
    r4 = Ring(4)
    assert has_finite_order(AffineMap.identity(r4, 2))
    assert not has_finite_order(AffineMap.translation(Vector.basis(r4, 2, 1)))
    for t in (Vector.zero(r4, 2), Vector(r4, [r4.xi(), r4.rational(7)])):
        assert has_finite_order(AffineMap(_diag(r4, [2, 2]), t))


def test_finite_order_iff_fixed_point(rng):
    # both directions of the geometry lemma against direct iteration
    for ring in (Ring(3), Ring(4), Ring(6)):
        for n in (1, 2, 3):
            for _ in range(40):
                g = random_affine(rng, ring, n)
                order = g.lin.order()
                iterated = power(g, order).is_identity()
                assert has_finite_order(g) == iterated


def test_reflection_translation_in_image(rng):
    # for affine reflections, Tran(g) = (1 - Lin(g)) u at any fixed point u
    r4 = Ring(4)
    found = 0
    while found < 30:
        g = random_affine(rng, r4, 2)
        if not is_reflection(g):
            continue
        found += 1
        u = fixed_space(g).point()
        assert u - g.lin.apply(u) == g.tran


def test_fixed_space_of_powers(rng):
    for ring in (Ring(3), Ring(6)):
        checked = 0
        while checked < 25:
            g = random_affine(rng, ring, 3)
            space = fixed_space(g)
            if space.is_empty:
                continue
            checked += 1
            for j in (2, 3):
                gp = power(g, j)
                bigger = fixed_space(gp)
                assert not bigger.is_empty
                assert subspace_contains(bigger, space.base)
                for d in space.directions:
                    assert subspace_contains(bigger, space.base + d)


def test_compose_associative(rng):
    r6 = Ring(6)
    ident = AffineMap.identity(r6, 3)
    for _ in range(40):
        g = random_affine(rng, r6, 3)
        h = random_affine(rng, r6, 3)
        k = random_affine(rng, r6, 3)
        assert compose(compose(g, h), k) == compose(g, compose(h, k))
        assert compose(g, ident) == g
        assert compose(ident, g) == g
        assert compose(g, g.inverse()).is_identity()


def test_dimension_mismatch():
    r4 = Ring(4)
    with pytest.raises(DimensionMismatch):
        compose(AffineMap.identity(r4, 2), AffineMap.identity(r4, 3))


def test_subspace_satisfies_form():
    r3 = Ring(3)
    beta = r3.scalar(Fraction(5, 2), 1)
    pt = Vector(r3, [beta, beta])
    space_pt = fixed_space(AffineMap(Monomial.from_cycles(r3, 2, [[1, 2]]),
                                     Vector(r3, [beta - beta, r3.zero()])))
    form = LinearForm(r3, 1, 2, 0)
    point_space = type(space_pt)(pt, ())
    assert subspace_satisfies_form(point_space, form, r3.zero())
    # a line where the form is non-constant never satisfies it
    line = type(space_pt)(Vector.zero(r3, 2), (Vector.basis(r3, 2, 1),))
    coord = LinearForm(r3, 1)
    assert not subspace_satisfies_form(line, coord, r3.zero())
    assert not subspace_satisfies_form(line, coord, r3.one())
