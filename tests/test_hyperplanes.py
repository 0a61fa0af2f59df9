"""Mirror arrangements: golden lists, windows, witnesses, completeness."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from crystref import (AffineMap, ConstantNotAdmissible, CrystrefError,
                      EmptySubspace, Monomial, NotRankOne, Ring, ScalarModule,
                      Vector, build_group, catalog_ids, enumerate_linear_group,
                      fixed_space, in_window, is_central_reflection,
                      is_reflection, module_window, off_arrangement_point,
                      point_on_arrangement, rank1_window, reflection_families,
                      subspace_on_arrangement, subspace_satisfies_form,
                      witness_reflection)
from crystref.affine import EMPTY, AffineSubspace
from crystref import hyperplanes
from crystref.catalog import _ROWS, GroupId
from crystref.hyperplanes import family_index as _family_index
from crystref.linalg import int_left_kernel


def _zmod(ring, *gens):
    return ScalarModule(ring, list(gens))


def test_rank1_gaussian_window():
    # the rank-1 r = 4 group: mirrors through the half-Gaussian integers
    spec = build_group("[G(4,1,1)]_1")
    r4 = spec.ring
    lat, hyp = rank1_window(spec, 3)
    half = _zmod(r4, r4.rational(Fraction(1, 2)), r4.scalar(0, Fraction(1, 2)))
    expected = module_window(half, Fraction(3))
    assert [(p.a, p.b) for p in hyp] == [(p.a, p.b) for p in expected]
    zi = _zmod(r4, r4.one(), r4.xi())
    assert [(p.a, p.b) for p in lat] == \
        [(p.a, p.b) for p in module_window(zi, Fraction(3))]


def test_rank1_eisenstein_window():
    # the rank-1 r = 6 group over the Eisenstein lattice: two mirror families
    spec = build_group("[G(6,1,1)]_1")
    r6 = spec.ring
    w = r6.root(2)
    inv = (r6.one() - w).inverse()
    m1 = _zmod(r6, inv, inv * w)
    m2 = _zmod(r6, r6.rational(Fraction(1, 2)), w * Fraction(1, 2))
    union = {}
    for m in (m1, m2):
        for p in module_window(m, Fraction(3)):
            union[(p.a, p.b)] = p
    lat, hyp = rank1_window(spec, 3)
    assert sorted(union) == [(p.a, p.b) for p in hyp]
    # and the r = 3 lattice window is the Eisenstein integers themselves
    zw = _zmod(r6, r6.one(), w)
    assert [(p.a, p.b) for p in lat] == \
        [(p.a, p.b) for p in module_window(zw, Fraction(3))]


def test_rank1_window_zero_radius():
    spec = build_group("[G(4,1,1)]_1")
    lat, hyp = rank1_window(spec, 0)
    assert [(p.a, p.b) for p in lat] == [(0, 0)]
    assert [(p.a, p.b) for p in hyp] == [(0, 0)]


def test_rank1_guard():
    with pytest.raises(NotRankOne):
        rank1_window(build_group("[G(4,1,2)]_1"), 2)
    with pytest.raises(NotRankOne):
        rank1_window(build_group("[G(2,1,1)]^a_1"), 2)


def test_display_families_of_the_hexagonal_index2_group():
    # golden list for the r = 6, p = 2, k = 2 group: constants Z[w] on both
    # coordinate forms and on odd-exponent difference forms; (1-w)Z[w] on even
    spec = build_group("[G(6,2,2)]_2")
    r6 = spec.ring
    w = r6.root(2)
    zw = _zmod(r6, r6.one(), w)
    ideal = zw.scaled(r6.one() - w)
    by_form = {f.form.text(): f for f in reflection_families(spec)}
    for j in (1, 2):
        fam = by_form[f"x{j}"]
        assert len(fam.branches) == 2
        for br in fam.branches:
            assert br.constants.same_module(zw)
    for m in range(6):
        key = f"x1 - x^{m}*x2" if m else "x1 - x2"
        mod = by_form[key].branches[0].constants
        if m % 2 == 1:
            assert mod.same_module(zw), m
        else:
            assert mod.same_module(ideal), m


def test_no_coordinate_families_when_p_equals_r():
    spec = build_group("[G(3,3,3)]_1")
    assert all(not f.form.is_coordinate for f in reflection_families(spec))
    spec2 = build_group("[G(6,6,2)]^a_1")
    assert all(not f.form.is_coordinate for f in reflection_families(spec2))


def test_point_on_arrangement_examples():
    spec = build_group("[G(6,2,2)]_2")
    wit = point_on_arrangement(spec, Vector.zero(spec.ring, 2))
    assert wit is not None and wit.constant.is_zero()
    assert is_reflection(wit.reflection)
    assert spec.is_member(wit.reflection)
    # the tabulated counterexample points are off the arrangement
    s632 = build_group("[G(6,3,2)]_2")
    u = fixed_space(s632.counterexample).point()
    assert point_on_arrangement(s632, u) is None
    s333 = build_group("[G(3,3,3)]_1")
    u3 = fixed_space(s333.counterexample).point()
    assert point_on_arrangement(s333, u3) is None


def test_subspace_on_arrangement_examples():
    spec = build_group("[G(4,1,1)]_1")
    r4 = spec.ring
    pt = AffineSubspace(Vector(r4, [r4.rational(Fraction(1, 2))]), ())
    wit = subspace_on_arrangement(spec, pt)
    assert wit is not None
    # the whole space is never contained in a mirror
    spec2 = build_group("[G(4,1,2)]_1")
    whole = fixed_space(AffineMap.identity(spec2.ring, 2))
    assert subspace_on_arrangement(spec2, whole) is None
    with pytest.raises(EmptySubspace):
        subspace_on_arrangement(spec2, EMPTY)
    # a reflection's fixed space always hits its own mirror
    refl = AffineMap.linear(spec2.linear_generators[0])
    space = fixed_space(refl)
    wit2 = subspace_on_arrangement(spec2, space)
    assert wit2 is not None
    assert subspace_satisfies_form(space, wit2.family.form, wit2.constant)


def test_off_arrangement_point_gives_up_with_an_error(monkeypatch):
    spec = build_group("[G(3,1,2)]_2")
    space = fixed_space(spec.counterexample)
    assert hyperplanes.off_arrangement_point(spec, space) is not None
    # every candidate on a mirror: the search ends in an error, not an
    # AssertionError
    monkeypatch.setattr(hyperplanes, "subspace_mirror",
                        lambda spec, space: object())
    with pytest.raises(CrystrefError):
        hyperplanes.off_arrangement_point(spec, space)


# every row at each n from nmin through nmin + 3 where the property fails:
# only there can a fixed space lie off the arrangement
_FAILING_IDS = [GroupId(row.family, row.r, row.p, n, row.k, row.alpha)
                for row in _ROWS for n in range(row.nmin, row.nmin + 4)
                if (row.nmax is None or n <= row.nmax) and not row.steinberg(n)]


@st.composite
def _failing_row_elements(draw):
    """(spec, g): a member of a failing row with a fixed point.  With A the
    matrix of sigma on lattice coefficients, t has a fixed point iff its
    coefficients lie in the rational row span of I - A; they are drawn as a
    combination, coefficients in [-2, 2], of a Z-basis of that span's integer
    points (the left kernel of the right kernel of I - A)."""
    spec = build_group(draw(st.sampled_from(_FAILING_IDS)))
    ring, n, lat = spec.ring, spec.n, spec.lattice
    exps = draw(st.lists(st.integers(0, ring.r - 1), min_size=n, max_size=n))
    exps[-1] -= sum(exps) % spec.id.p
    sigma = Monomial(ring, draw(st.permutations(range(n))), exps)
    a = [lat.coefficients(sigma.apply(b)) for b in lat.zbasis]
    m = len(a)
    kernel = int_left_kernel([[int(i == j) - a[j][i] for j in range(m)]
                              for i in range(m)])
    t = Vector.zero(ring, n)
    for row in int_left_kernel([[v[i] for v in kernel] for i in range(m)]):
        y = draw(st.integers(-2, 2))
        for c, b in zip(row, lat.zbasis):
            t = t + b.scale(ring.rational(y * c))
    return spec, AffineMap(sigma, t)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_failing_row_elements())
def test_off_arrangement_point_lies_in_the_space_and_off_every_mirror(case):
    spec, g = case
    space = fixed_space(g)
    assume(space.dim <= 4)
    if subspace_on_arrangement(spec, space) is None:
        pt = off_arrangement_point(spec, space)
        assert g.apply(pt) == pt, g.text()
        assert point_on_arrangement(spec, pt) is None, g.text()


def test_witness_reflection_examples():
    # rank 1: the mirror at one half, eigenvalue -1, is v -> -v + 1
    spec = build_group("[G(4,1,1)]_1")
    r4 = spec.ring
    fam = next(f for f in reflection_families(spec) if f.form.is_coordinate)
    br = next(b for b in fam.branches if b.eigenvalue == r4.rational(-1))
    refl = witness_reflection(spec, fam, br, r4.rational(Fraction(1, 2)))
    assert refl.lin == Monomial.diagonal(r4, [2])
    assert refl.tran == Vector(r4, [r4.one()])
    with pytest.raises(ConstantNotAdmissible):
        witness_reflection(spec, fam, br, r4.rational(Fraction(1, 3)))


def test_witness_reflection_type_d_shape():
    # the x1 + x2 = beta mirrors of the D-type rank-3 group: the witness sends
    # e1 -> -e2, e2 -> -e1, e3 -> e3 with translation (beta, beta, 0)
    spec = build_group("[G(2,2,3)]^a_1")
    ring = spec.ring
    beta = ring.one() + ring.formal()
    fam = _family_index(spec)[("d", 1, 2, 1)]   # x1 - xi^1 x2 = x1 + x2
    br = fam.branches[0]
    assert br.constants.contains(beta)
    refl = witness_reflection(spec, fam, br, beta)
    assert refl.lin == Monomial(ring, [1, 0, 2], [1, 1, 0])
    assert refl.tran == Vector(ring, [beta, beta, ring.zero()])
    assert is_reflection(refl)


def test_witness_soundness(rng):
    for name in ("[G(4,1,2)]_2", "[G(6,3,2)]_2", "[G(2,1,2)]^a_4"):
        spec = build_group(name)
        for fam in reflection_families(spec):
            for br in fam.branches:
                for t in list(br.constants.gens)[:2] + [spec.ring.zero()]:
                    refl = witness_reflection(spec, fam, br, t)
                    assert spec.is_member(refl)
                    assert is_reflection(refl)
                    space = fixed_space(refl)
                    assert subspace_satisfies_form(space, fam.form, t)


def test_families_complete_by_brute_force():
    # rank <= 2 rows, translations bounded by 2 in the lattice basis: every
    # reflection found by exhaustive scan has its mirror in some family branch
    names = [gid for gid in catalog_ids() if build_group(gid).n <= 2]
    for gid in names:
        spec = build_group(gid)
        fams = reflection_families(spec)
        sigmas = [m for m in spec.elements_of_linear_part()
                  if is_central_reflection(m)]
        basis = spec.lattice.zbasis
        m = len(basis)
        from itertools import product as iproduct
        for sigma in sigmas:
            for coeffs in iproduct(range(-2, 3), repeat=m):
                t = Vector.zero(spec.ring, spec.n)
                for c, b in zip(coeffs, basis):
                    if c:
                        t = t + b.scale(spec.ring.rational(c))
                g = AffineMap(sigma, t)
                space = fixed_space(g)
                if space.is_empty:
                    continue
                # g is an affine reflection of W; its mirror must be covered
                assert is_reflection(g)
                covered = False
                for fam in fams:
                    if any(not fam.form.evaluate(d).is_zero()
                           for d in space.directions):
                        continue
                    val = fam.form.evaluate(space.base)
                    if fam.admits(val) is not None:
                        covered = True
                        break
                assert covered, (spec.name, g.text())


def test_difference_constants_shift_under_the_root_action():
    # for lattices invariant under the full wreath group, multiplying the
    # constants of x1 - xi^m x2 by xi gives the constants of x1 - xi^(m+1) x2
    for name in ("[G(6,2,2)]_1", "[G(4,1,2)]_2", "[G(6,1,2)]_1"):
        spec = build_group(name)
        assert spec.invariant_under_full_group()
        idx = _family_index(spec)
        r = spec.ring.r
        for m in range(r):
            cur = idx[("d", 1, 2, m)].branches[0].constants
            nxt = idx[("d", 1, 2, (m + 1) % r)].branches[0].constants
            assert nxt.same_module(cur.scaled(spec.ring.xi())), (name, m)


def test_window_membership_is_exact():
    r6 = Ring(6)
    # the point (3, 2) in the basis (1, xi) has |Im| = sqrt(3) > R = 1.7
    s = r6.scalar(3, 2)
    assert not in_window(s, Fraction(17, 10))
    assert in_window(s, Fraction(74, 10))   # |Re| = 4 <= 7.4, |Im| <= 7.4
    assert in_window(r6.zero(), Fraction(0))
