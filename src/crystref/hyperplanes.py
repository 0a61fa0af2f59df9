"""Reflecting-hyperplane arrangements of catalogued groups.

Every affine reflection of W = G(r,p,n) x| Lambda has monomial linear part of
one of two shapes, so the arrangement splits into finitely many families:

  coordinate form x_j:        diagonal reflections diag(1,..,lam,..,1) + b e_j,
                              hyperplanes x_j = c for c in (1/(1-lam)) * M_j,
                              M_j = {t : t e_j in Lambda};
  difference form x_j - xi^m x_k:  weighted transpositions of determinant -1,
                              hyperplanes x_j - xi^m x_k = c for
                              c in {t : t (e_j - xi^-m e_k) in Lambda}.

The families are derived structurally from the lattice; the explicit lists in
the literature serve as golden tests, not as source data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product
from typing import Optional, Sequence

from .affine import AffineMap, AffineSubspace, Monomial, Vector
from .catalog import ENUMERATION_CAP, GroupSpec
from .errors import (ConstantNotAdmissible, CrystrefError, EmptySubspace,
                     NotRankOne, RingMismatch, TooLarge)
from .lattices import ScalarModule
from .scalars import Ring, Scalar


class LinearForm:
    """x_j (coordinate) or x_j - xi^m x_k (difference); 1-indexed."""

    __slots__ = ("ring", "j", "k", "m")

    def __init__(self, ring: Ring, j: int, k: Optional[int] = None, m: int = 0):
        self.ring = ring
        self.j = j
        self.k = k
        self.m = m % ring.r if k is not None else 0

    @property
    def is_coordinate(self) -> bool:
        return self.k is None

    def evaluate(self, v: Vector) -> Scalar:
        x = v[self.j - 1]
        if self.k is None:
            return x
        return x - self.ring.root(self.m) * v[self.k - 1]

    def direction(self, n: int) -> Vector:
        """The vector w with {t : t*w in Lambda} = admissible constants:
        e_j for coordinate forms, e_j - xi^-m e_k for difference forms."""
        if self.k is None:
            return Vector.basis(self.ring, n, self.j)
        return (Vector.basis(self.ring, n, self.j)
                - Vector.basis(self.ring, n, self.k).scale(self.ring.root(-self.m)))

    def text(self) -> str:
        if self.k is None:
            return f"x{self.j}"
        if self.m == 0:
            return f"x{self.j} - x{self.k}"
        return f"x{self.j} - x^{self.m}*x{self.k}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearForm):
            return NotImplemented
        return (self.ring is other.ring and self.j == other.j
                and self.k == other.k and self.m == other.m)

    def __hash__(self) -> int:
        return hash((self.ring.r, self.j, self.k, self.m))

    def __repr__(self) -> str:
        return f"LinearForm({self.text()})"


@dataclass(frozen=True)
class Branch:
    """One eigenvalue branch of a family: hyperplanes {form = c} for c in the
    constants module."""
    eigenvalue: Scalar
    constants: ScalarModule


class HyperplaneFamily:
    __slots__ = ("form", "branches")

    def __init__(self, form: LinearForm, branches: Sequence[Branch]):
        self.form = form
        self.branches = tuple(branches)

    def admits(self, value: Scalar) -> Optional[Branch]:
        for br in self.branches:
            if br.constants.contains(value):
                return br
        return None

    def to_dict(self) -> dict:
        return {
            "form": self.form.text(),
            "branches": [{
                "eigenvalue": br.eigenvalue.text(),
                "constants": [g.text() for g in br.constants.gens],
            } for br in self.branches],
        }

    def __repr__(self) -> str:
        return f"HyperplaneFamily({self.form.text()}, {len(self.branches)} branches)"


@dataclass(frozen=True)
class Witness:
    """An explicit reflection certifying that {form = constant} belongs to the
    arrangement (and, in queries, contains the queried object)."""
    reflection: AffineMap
    family: HyperplaneFamily
    branch: Branch
    constant: Scalar

    def to_dict(self) -> dict:
        return {
            "form": self.family.form.text(),
            "constant": self.constant.text(),
            "eigenvalue": self.branch.eigenvalue.text(),
            "reflection": self.reflection.text(),
        }


def reflection_families(spec: GroupSpec) -> tuple[HyperplaneFamily, ...]:
    """Derive the full arrangement of the group, one family per form.

    Coordinate families exist when p < r (diagonal reflections); difference
    families range over all weight exponents m, since any weighted
    transposition with inverse weights has weight product 1 and hence lies in
    every G(r,p,n).
    """
    if spec._families is not None:
        return spec._families
    ring = spec.ring
    n = spec.n
    r, p = spec.id.r, spec.id.p
    lat = spec.lattice
    families: list[HyperplaneFamily] = []
    one = ring.one()
    if p < r:
        for j in range(1, n + 1):
            form = LinearForm(ring, j)
            base = lat.line_intersection(form.direction(n))
            branches = []
            for t in range(1, r // p):
                lam = ring.root(p * t)
                branches.append(Branch(lam, base.scaled((one - lam).inverse())))
            families.append(HyperplaneFamily(form, branches))
    minus_one = ring.rational(-1)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            for m in range(r):
                form = LinearForm(ring, j, k, m)
                constants = lat.line_intersection(form.direction(n))
                families.append(HyperplaneFamily(
                    form, [Branch(minus_one, constants)]))
    spec._families = tuple(families)
    return spec._families


def family_index(spec: GroupSpec) -> dict:
    """Families keyed by ("c", j) for coordinate forms and ("d", j, k, m) for
    difference forms (cached on the spec)."""
    if spec._family_idx is None:
        idx = {}
        for fam in reflection_families(spec):
            f = fam.form
            key = ("c", f.j) if f.is_coordinate else ("d", f.j, f.k, f.m)
            idx[key] = fam
        spec._family_idx = idx
    return spec._family_idx


def witness_reflection(spec: GroupSpec, family: HyperplaneFamily,
                       branch: Branch, constant: Scalar) -> AffineMap:
    """The explicit reflection of W about {form = constant}."""
    if not branch.constants.contains(constant):
        raise ConstantNotAdmissible(
            f"{constant} is not admissible for {family.form.text()}")
    ring = spec.ring
    n = spec.n
    form = family.form
    if form.is_coordinate:
        lam = branch.eigenvalue
        exps = [0] * n
        # eigenvalue is a root of unity xi^e; recover the exponent
        exps[form.j - 1] = next(e for e in range(ring.r) if ring.root(e) == lam)
        tran = Vector.basis(ring, n, form.j).scale((ring.one() - lam) * constant)
        refl = AffineMap(Monomial.diagonal(ring, exps), tran)
    else:
        j, k, m = form.j, form.k, form.m
        perm = list(range(n))
        perm[j - 1], perm[k - 1] = k - 1, j - 1
        exps = [0] * n
        exps[j - 1] = -m
        exps[k - 1] = m
        tran = form.direction(n).scale(constant)
        refl = AffineMap(Monomial(ring, perm, exps), tran)
    # membership holds by construction: the constants module is exactly the
    # set of translations the lattice admits along the root direction
    return refl


def subspace_mirror(spec: GroupSpec, space: AffineSubspace
                    ) -> Optional[tuple[HyperplaneFamily, Branch, Scalar]]:
    """(family, branch, value) of the first mirror that contains the whole
    subspace: its form vanishes on every direction and takes an admissible
    value at the base point.  None when no mirror contains it."""
    if space.is_empty:
        raise EmptySubspace("arrangement query on the empty subspace")
    for family in reflection_families(spec):
        form = family.form
        if any(not form.evaluate(d).is_zero() for d in space.directions):
            continue
        value = form.evaluate(space.base)
        branch = family.admits(value)
        if branch is not None:
            return family, branch, value
    return None


def subspace_on_arrangement(spec: GroupSpec,
                            space: AffineSubspace) -> Optional[Witness]:
    """A witness whose hyperplane contains the whole subspace, if any."""
    found = subspace_mirror(spec, space)
    if found is None:
        return None
    return Witness(witness_reflection(spec, *found), *found)


def point_on_arrangement(spec: GroupSpec, u: Vector) -> Optional[Witness]:
    """A witness reflection whose hyperplane passes through u, if any."""
    return subspace_on_arrangement(spec, AffineSubspace(u))


def off_arrangement_point(spec: GroupSpec, space: AffineSubspace) -> Vector:
    """An explicit point of the subspace lying on no reflecting hyperplane.

    Exists whenever subspace_on_arrangement returns None.  The direction
    v = sum_i N^i d_i takes the least N = 1, 2, ... on which every form that
    is not constant on the subspace is nonzero (such a form vanishes there
    for fewer than dim values of N).  Along base + s v the mirrors of a
    branch then meet s in a coset a + bZ or a single point, so s = 1/P
    escapes them all once the prime P divides no denominator of a or b; the
    points for P = 1, 2, 3, 5, 7, ... are checked exactly in turn.
    """
    if space.is_empty:
        raise EmptySubspace("no points in the empty subspace")
    if subspace_mirror(spec, AffineSubspace(space.base)) is None:
        return space.base
    ring = spec.ring
    forms = [fam.form for fam in reflection_families(spec)
             if any(not fam.form.evaluate(d).is_zero() for d in space.directions)]
    for big in count(1):
        v = Vector.zero(ring, spec.n)
        for i, d in enumerate(space.directions):
            v = v + d.scale(ring.rational(big ** i))
        if all(not f.evaluate(v).is_zero() for f in forms):
            break
    for p in _SHIFT_DENOMINATORS:
        pt = space.base + v.scale(ring.rational(Fraction(1, p)))
        if subspace_mirror(spec, AffineSubspace(pt)) is None:
            return pt
    raise CrystrefError("could not exhibit an off-arrangement point")


# 1 and the primes below 100, where the search gives up; the failing catalog
# rows up to three dimensions past the table need P <= 11
_SHIFT_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                       47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


# -- rank-1 windows ----------------------------------------------------------

def _embedding(ring: Ring) -> tuple[Fraction, Fraction]:
    """(Re(xi), Im(xi)^2) as exact rationals."""
    if ring.r == 3:
        return Fraction(-1, 2), Fraction(3, 4)
    if ring.r == 4:
        return Fraction(0), Fraction(1)
    if ring.r == 6:
        return Fraction(1, 2), Fraction(3, 4)
    return Fraction(1 if ring.r == 1 else -1), Fraction(0)


def scalar_xy(x: Scalar) -> tuple[Fraction, Fraction, Fraction]:
    """Exact planar data (re, b, im2) for the embedded point: the real part
    is the rational re, and the squared imaginary part is b*b*im2 (im2 is
    Im(xi)^2, so 3/4 for r = 3, 6 and 1 for r = 4)."""
    if not x.is_cyclo():
        raise RingMismatch("cannot embed a scalar with formal part")
    re_xi, im2 = _embedding(x.ring)
    re = x.a + x.b * re_xi
    return re, x.b, im2


def in_window(x: Scalar, radius: Fraction) -> bool:
    """Exact |Re| <= R and |Im| <= R test."""
    re, b, im2 = scalar_xy(x)
    if abs(re) > radius:
        return False
    return b * b * im2 <= radius * radius


def module_window(module: ScalarModule, radius: Fraction) -> list[Scalar]:
    """All module points in the closed square window [-R, R]^2, exactly."""
    radius = Fraction(radius)
    if module.is_zero():
        return [module.ring.zero()] if radius >= 0 else []
    # embed generators as rational pairs (re, im/sqrt(im2)), at most two for
    # Z-independent points of the plane; bound coefficients
    xy = [scalar_xy(g) for g in module.gens]
    if len(xy) == 2:
        # coefficient = point * inv, inv = [[d, -b], [-c, a]] / det for
        # rows [[a, b], [c, d]]; |point| coordinates bounded by 2R
        (a, b, _), (c, d, _) = xy
        det = a * d - b * c
        bound = max(abs(d) + abs(b), abs(c) + abs(a)) / abs(det) * 2 * radius
        kmax = int(bound) + 1
    else:
        re, b, _ = xy[0]
        denom = max(abs(re), Fraction(1, 2) * abs(b) if b else Fraction(0))
        if denom == 0:
            denom = Fraction(1, 2)
        kmax = int(2 * radius / denom) + 2
    candidates = (2 * kmax + 1) ** len(xy)
    if candidates > ENUMERATION_CAP:
        raise TooLarge(f"a window of radius {radius} has {candidates} "
                       f"candidate points, over the cap {ENUMERATION_CAP}")
    out = []
    for combo in product(range(-kmax, kmax + 1), repeat=len(xy)):
        pt = module.ring.zero()
        for c, g in zip(combo, module.gens):
            pt = pt + g * c
        if in_window(pt, radius):
            out.append(pt)
    out.sort(key=lambda s: (s.a, s.b))
    return out


def rank1_window(spec: GroupSpec, radius) -> tuple[list[Scalar], list[Scalar]]:
    """(lattice points, hyperplane points) of a rank-1 group in [-R, R]^2."""
    if spec.n != 1:
        raise NotRankOne(f"{spec.name} has rank {spec.n}")
    if spec.ring.alpha:
        raise NotRankOne("windows are defined for parameter-free groups only")
    radius = Fraction(radius)
    lattice_module = spec.lattice.line_intersection(
        Vector.basis(spec.ring, 1, 1))
    lattice_points = module_window(lattice_module, radius)
    seen = {}
    for family in reflection_families(spec):
        for br in family.branches:
            for pt in module_window(br.constants, radius):
                seen[(pt.a, pt.b)] = pt
    hyper_points = sorted(seen.values(), key=lambda s: (s.a, s.b))
    return lattice_points, hyper_points
