"""Lattices and scalar modules: membership, invariance, line intersections."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from crystref import (CrystrefError, Lattice, Monomial, RankDeficient, Ring,
                      RingMismatch, ScalarModule, Vector, ZeroDirection,
                      build_group, lattice_from_generators, parse_scalar)
from crystref import linalg
from conftest import (frac_right_kernel, frac_rref,
                      fraction_line_intersection, fraction_solve,
                      int_matrix_and_den)


def _zx(ring):
    return (ring.one(), ring.xi())


def test_construction_examples():
    r4 = Ring(4)
    e1, e2 = Vector.basis(r4, 2, 1), Vector.basis(r4, 2, 2)
    lat = lattice_from_generators(r4, 2, [(e1, _zx(r4), "Z[x]"),
                                          (e1 - e2, _zx(r4), "Z[x]")])
    assert lat.rank == 4
    spec632 = build_group("[G(6,3,2)]_2")
    assert spec632.lattice.rank == 4
    with pytest.raises(RankDeficient):
        v = Vector.basis(r4, 1, 1)
        lattice_from_generators(r4, 1, [(v, (r4.one(),), "Z"),
                                        (v.scale(r4.rational(2)), (r4.one(),), "Z")])


def test_redundant_generators_reduce_to_basis():
    # the k = 2 lattice of the r = 4, p = 2 family lists n + 1 generators
    spec = build_group("[G(4,2,2)]_2")
    assert spec.lattice.rank == 4
    # it equals the full ring lattice, like the k = 1 lattice of G(4,1,n)
    other = build_group("[G(4,1,2)]_1")
    assert all(other.lattice.contains(b) for b in spec.lattice.zbasis)
    assert all(spec.lattice.contains(b) for b in other.lattice.zbasis)
    # whereas the k = 1 lattice of the same group is strictly smaller
    first = build_group("[G(4,2,2)]_1")
    assert all(other.lattice.contains(b) for b in first.lattice.zbasis)
    assert not all(first.lattice.contains(b) for b in other.lattice.zbasis)


def test_contains_examples():
    spec = build_group("[G(3,1,2)]_2")
    r3 = spec.ring
    c = (r3.one() - r3.xi()).inverse()
    e1, e2 = Vector.basis(r3, 2, 1), Vector.basis(r3, 2, 2)
    assert spec.lattice.contains((e1 - e2).scale(c))
    assert spec.lattice.contains(Vector.zero(r3, 2))
    assert not spec.lattice.contains(e1.scale(r3.rational(Fraction(1, 2))))


def test_zbasis_group_closure(rng):
    for name in ("[G(4,1,2)]_2", "[G(6,3,2)]_2", "[G(2,1,2)]^a_2",
                 "[G(6,6,2)]^a_3"):
        lat = build_group(name).lattice
        for b in lat.zbasis:
            assert lat.contains(b)
            assert lat.contains(-b)
        for _ in range(20):
            b1, b2 = rng.choice(lat.zbasis), rng.choice(lat.zbasis)
            assert lat.contains(b1 + b2)


def test_invariance_examples():
    spec = build_group("[G(6,3,2)]_2")
    for m in spec.linear_generators:
        assert spec.lattice.is_invariant(m)
    # full-group invariance of the r = 6 k = 1 lattices
    for name in ("[G(6,2,2)]_1", "[G(6,3,2)]_1"):
        spec = build_group(name)
        assert spec.invariant_under_full_group()
    # mismatched rings raise
    r3 = Ring(3)
    e1, e2 = Vector.basis(r3, 2, 1), Vector.basis(r3, 2, 2)
    lat = lattice_from_generators(r3, 2, [(e1, _zx(r3), "Z[x]"),
                                          (e2, _zx(r3), "Z[x]")])
    with pytest.raises(RingMismatch):
        lat.is_invariant(Monomial.diagonal(Ring(4), [1, 0]))


def test_line_intersection_examples():
    spec = build_group("[G(4,1,2)]_2")
    r4 = spec.ring
    e1, e2 = Vector.basis(r4, 2, 1), Vector.basis(r4, 2, 2)
    m = spec.lattice.line_intersection(e1 - e2)
    half = Fraction(1, 2)
    target = ScalarModule(r4, [r4.scalar(half, half), r4.scalar(-half, half)])
    assert m.same_module(target)
    spec1 = build_group("[G(4,1,2)]_1")
    m1 = spec1.lattice.line_intersection(e1)
    assert m1.same_module(ScalarModule(r4, list(_zx(r4))))
    # a direction off every lattice line yields the zero module
    low = lattice_from_generators(r4, 2, [(e1 - e2, _zx(r4), "Z[x]")], rank=2)
    assert low.line_intersection(e1).is_zero()
    with pytest.raises(ZeroDirection):
        low.line_intersection(Vector.zero(r4, 2))


def test_line_intersection_soundness_and_completeness(rng):
    for name in ("[G(4,1,2)]_2", "[G(3,1,2)]_2", "[G(6,2,2)]_2",
                 "[G(2,1,2)]^a_3", "[G(6,6,2)]^a_2"):
        spec = build_group(name)
        ring = spec.ring
        w = Vector.basis(ring, 2, 1) - Vector.basis(ring, 2, 2)
        mod = spec.lattice.line_intersection(w)
        for t in mod.gens:
            assert spec.lattice.contains(w.scale(t)), (name, t.text())
        # completeness spot check against small scalar combinations
        basis = ring.basis_scalars()
        for _ in range(60):
            x = ring.zero()
            for b in basis:
                x = x + b * Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
            assert mod.contains(x) == spec.lattice.contains(w.scale(x)), \
                (name, x.text())


def test_line_intersection_guard_raises_error(monkeypatch):
    # a lattice vector on the line always solves; if it did not, the guard
    # must raise an error rather than an assert that python -O strips
    spec = build_group("[G(4,1,2)]_2")
    w = Vector.basis(spec.ring, 2, 1)
    monkeypatch.setattr(linalg.RowSolver, "solve_rational",
                        lambda self, nums, den: None)
    with pytest.raises(CrystrefError):
        spec.lattice.line_intersection(w)


# p/q with 1 <= q <= 4 and |p| <= 5q, drawn from a list (shrinking to 0)
_FRACTIONS = st.sampled_from(sorted(
    {Fraction(p, q) for q in range(1, 5) for p in range(-5 * q, 5 * q + 1)},
    key=lambda x: (abs(x), x)))


@st.composite
def _solver_cases(draw):
    """(G, v, x): G has independent rows; v = x @ G, plus a nonzero vector
    of the right kernel of G (so v leaves the row span) when `x` is None.
    Coefficients x are integral or fractional."""
    ncols = draw(st.integers(1, 6))
    k = draw(st.integers(1, ncols))
    gmat = draw(st.lists(st.lists(_FRACTIONS, min_size=ncols, max_size=ncols),
                         min_size=k, max_size=k))
    assume(len(frac_rref(gmat)[1]) == k)
    coeff = st.integers(-4, 4).map(Fraction) if draw(st.booleans()) \
        else _FRACTIONS
    x = draw(st.lists(coeff, min_size=k, max_size=k))
    v = [sum(x[i] * gmat[i][j] for i in range(k)) for j in range(ncols)]
    if k < ncols and draw(st.booleans()):
        w = frac_right_kernel(gmat)[0]
        c = draw(_FRACTIONS.filter(bool))
        return gmat, [a + c * b for a, b in zip(v, w)], None
    return gmat, v, x


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_solver_cases())
def test_solve_integral_matches_fraction_solve(case):
    gmat, v, x = case
    assert fraction_solve(gmat, v) == x
    rows, gden = int_matrix_and_den(gmat)
    solver = linalg.RowSolver(rows, gden)
    # L / dL and C come in lowest terms, whatever the scaling of G
    assert gcd(solver.dl, *itertools.chain(*solver.lmat)) == 1
    assert gcd(*itertools.chain(*solver.cmat)) in (0, 1)
    scaled = linalg.RowSolver([[3 * a for a in row] for row in rows], 3 * gden)
    assert (scaled.lmat, scaled.dl, scaled.cmat) == \
        (solver.lmat, solver.dl, solver.cmat)
    nums, den = int_matrix_and_den([v])
    solved = solver.solve_rational(nums[0], den)
    got = None if solved is None else [Fraction(n, solved[1]) for n in solved[0]]
    assert got == x
    want = None if x is None or any(xi.denominator != 1 for xi in x) \
        else [int(xi) for xi in x]
    assert solver.solve_integral(nums[0], den) == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
    min_size=1, max_size=5)))
def test_int_rref_is_the_fraction_rref_times_its_pivots(rows):
    got, pivots = linalg.int_rref(rows)
    want, want_pivots = frac_rref(rows)
    assert pivots == want_pivots and len(got) == len(pivots)
    for row, ref, c in zip(got, want, pivots):
        assert row[c] > 0 and gcd(*row) == 1
        assert [Fraction(x, row[c]) for x in row] == ref


def _det(mat):
    """Integer determinant by Laplace expansion along the first row."""
    if not mat:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j, x in enumerate(mat[0]) if x)


def _minor_gcd(rows, k):
    """The gcd of the k x k minors, an invariant of the rows' Z-span: for a
    sublattice of the same rank it grows by the index."""
    return gcd(*(_det([[rows[i][j] for j in cols] for i in chosen])
                 for chosen in itertools.combinations(range(len(rows)), k)
                 for cols in itertools.combinations(range(len(rows[0])), k)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
    min_size=1, max_size=5)))
def test_int_hnf_is_the_hermite_form_of_the_row_lattice(rows):
    hnf = linalg.int_hnf(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in hnf]
    assert len(hnf) == len(linalg.int_rref(rows)[1])
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, (row, c) in enumerate(zip(hnf, pivots)):
        assert row[c] > 0
        assert all(0 <= above[c] < row[c] for above in hnf[:i]), hnf
    # the same row lattice: the input lies in the span of the form, with
    # the same rank and the same gcd of maximal minors
    if hnf:
        solver = linalg.RowSolver(hnf, 1)
        assert all(solver.solve_integral(row, 1) is not None for row in rows)
        assert _minor_gcd(hnf, len(hnf)) == _minor_gcd(rows, len(hnf))


def test_module_equality_examples():
    r4 = Ring(4, True)
    a = ScalarModule(r4, [parse_scalar(r4, s)
                          for s in ("-2*x", "1", "x - x*al")])
    b = ScalarModule(r4, [parse_scalar(r4, s)
                          for s in ("-2*x", "1 - 2*x", "x - x*al")])
    assert a.same_module(b)
    assert a == b and hash(a) == hash(b)
    assert a != ScalarModule(r4, [parse_scalar(r4, s)
                                  for s in ("-2*x", "2", "x - x*al")])


@st.composite
def _regrouped_modules(draw):
    """(ring, gens, regrouped): Z-independent scalars of a ring with the
    formal parameter, and the same module's generators after unimodular
    changes (adding a multiple of one generator to another, reordering and
    negating)."""
    ring = Ring(draw(st.sampled_from((3, 4, 6))), True)
    k = draw(st.integers(2, 4))
    gens = [ring.scalar(*draw(st.lists(_FRACTIONS, min_size=4, max_size=4)))
            for _ in range(k)]
    assume(len(linalg.int_rref([g.int_coordinates()[0] for g in gens])[1]) == k)
    regrouped = list(gens)
    steps = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                      st.integers(-3, 3))
    for i, j, c in draw(st.lists(steps, max_size=6)):
        if i != j:
            regrouped[i] = regrouped[i] + regrouped[j] * c
    signs = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    regrouped = [-g if neg else g for g, neg in zip(regrouped, signs)]
    return ring, gens, draw(st.permutations(regrouped))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_regrouped_modules())
def test_module_key_ignores_unimodular_regrouping(case):
    ring, gens, regrouped = case
    a, b = ScalarModule(ring, gens), ScalarModule(ring, regrouped)
    assert a == b and hash(a) == hash(b)


def test_line_intersection_matches_fraction_reference():
    # every mirror family's constants module comes from line_intersection:
    # its generators equal those of the Fraction reference on every row
    from crystref import catalog_ids, reflection_families
    checked = 0
    for gid in catalog_ids():
        spec = build_group(gid)
        for fam in reflection_families(spec):
            w = fam.form.direction(spec.n)
            assert (spec.lattice.line_intersection(w).gens
                    == tuple(fraction_line_intersection(spec.lattice, w))), \
                (spec.name, fam.form.text())
            checked += 1
    assert checked > 100


def test_module_membership_examples():
    r3 = Ring(3)
    one, w = r3.one(), r3.xi()
    zw = ScalarModule(r3, [one, w])
    assert zw.contains(r3.scalar(2, 1))
    m = ScalarModule(r3, [one - w, (one - w) * w])   # the index-3 ideal
    assert not m.contains(one)
    assert m.contains(r3.scalar(1, 2))
    assert m.contains(r3.scalar(2, 1))
    # the ideal is the congruence a + b = 0 mod 3
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert m.contains(r3.scalar(a, b)) == ((a + b) % 3 == 0)


def test_module_zero_and_scaled():
    r4 = Ring(4)
    zero = ScalarModule(r4, [])
    assert zero.contains(r4.zero())
    assert not zero.contains(r4.one())
    zi = ScalarModule(r4, list(_zx(r4)))
    half = zi.scaled(r4.rational(Fraction(1, 2)))
    assert half.contains(r4.scalar(Fraction(1, 2), Fraction(3, 2)))
    assert not half.contains(r4.scalar(Fraction(1, 3)))
    assert half.includes(zi) and not zi.includes(half)


def test_catalog_row_invariance():
    # every catalogued lattice is stable under every linear generator
    from crystref import catalog_ids
    for gid in catalog_ids():
        spec = build_group(gid)
        for m in spec.linear_generators:
            assert spec.lattice.is_invariant(m), spec.name


def test_lattice_serialization_round_trip():
    spec = build_group("[G(6,6,2)]^a_3")
    d = spec.lattice.to_dict()
    assert d["rank"] == 4 and d["dimension"] == 2
    from crystref import parse_scalar
    for row, b in zip(d["zbasis"], spec.lattice.zbasis):
        got = [parse_scalar(spec.ring, s) for s in row]
        assert got == list(b.coords)
