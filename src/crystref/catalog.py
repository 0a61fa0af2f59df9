"""Catalog of the crystallographic reflection groups in the infinite family:
constructors for every tabulated group W = G(r,p,n) x| Lambda (and the
symmetric-group family W(A_{n-1}) x| Lambda_a), generator sets, exhaustive
enumeration of linear parts, and membership tests.

Group naming grammar:
  genuine      "[G(r,p,n)]_k"        ascii alias "G(r,p,n):k"
  nongenuine   "[G(r,p,n)]^a_k"      ascii alias "G(r,p,n):a:k"
  symmetric    "[W(A(n-1))]^a_1"     ascii alias "W(A(n-1)):a:1"

For n = 2 the indices k = 3, 5 of the G(2,1,n) family are aliases of k = 4, 1
(the lattices are equivalent there); the canonical ids use k in {1, 2, 4}.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import Optional, Sequence

from .affine import AffineMap, Monomial, Vector
from .errors import (CrystrefError, InvalidParameters, RingMismatch, TooLarge,
                     UnknownGroup)
from .lattices import Lattice, ScalarModule, lattice_from_generators
from .scalars import Ring, Scalar

ENUMERATION_CAP = 100_000


@dataclass(frozen=True)
class GroupId:
    """Identifier of a catalogued group.

    family is "G" for the monomial families and "WA" for the symmetric group
    W(A_{n-1}); uses_alpha marks the nongenuine rows with formal parameter.
    """
    family: str
    r: int
    p: int
    n: int
    k: int
    uses_alpha: bool

    def name(self) -> str:
        if self.family == "WA":
            return f"[W(A({self.n - 1}))]^a_{self.k}"
        if self.uses_alpha:
            return f"[G({self.r},{self.p},{self.n})]^a_{self.k}"
        return f"[G({self.r},{self.p},{self.n})]_{self.k}"

    def __str__(self) -> str:
        return self.name()


_NAME_PATTERNS = [
    re.compile(r"^\[G\((\d+),(\d+),(\d+)\)\]\^(?:a|α)_(\d+)$"),
    re.compile(r"^G\((\d+),(\d+),(\d+)\):(?:a|α):(\d+)$"),
    re.compile(r"^\[G\((\d+),(\d+),(\d+)\)\]_(\d+)$"),
    re.compile(r"^G\((\d+),(\d+),(\d+)\):(\d+)$"),
    re.compile(r"^\[W\(A\((\d+)\)\)\]\^(?:a|α)_(\d+)$"),
    re.compile(r"^W\(A\((\d+)\)\):(?:a|α):(\d+)$"),
]


def parse_group_name(text: str) -> GroupId:
    """Parse bracketed or ascii-alias group names into a canonical GroupId."""
    s = text.strip().replace(" ", "")
    for i, pat in enumerate(_NAME_PATTERNS):
        m = pat.match(s)
        if not m:
            continue
        if i in (4, 5):
            rank, k = int(m.group(1)), int(m.group(2))
            return _canonical(GroupId("WA", 1, 1, rank + 1, k, True))
        r, p, n, k = (int(m.group(j)) for j in range(1, 5))
        alpha = i in (0, 1)
        return _canonical(GroupId("G", r, p, n, k, alpha))
    raise UnknownGroup(f"cannot parse group name {text!r}")


def _canonical(gid: GroupId) -> GroupId:
    # classification relabeling: at n = 2 the G(2,1,2) indices 3 and 5 name
    # groups equivalent to indices 4 and 1.
    if (gid.family, gid.r, gid.p, gid.n, gid.uses_alpha) == ("G", 2, 1, 2, True):
        if gid.k == 3:
            return GroupId("G", 2, 1, 2, 4, True)
        if gid.k == 5:
            return GroupId("G", 2, 1, 2, 1, True)
    return gid


# -- linear parts ----------------------------------------------------------

def generators_of_linear_part(ring: Ring, r: int, p: int, n: int) -> list[Monomial]:
    """Standard generating set of G(r,p,n): adjacent transpositions, the
    diagonal diag(xi^p, 1, ..) when p < r, and the weighted transposition
    e1 -> xi^-1 e2, e2 -> xi e1 when p > 1 and n >= 2."""
    if r < 1 or p < 1 or n < 1 or r % p != 0:
        raise InvalidParameters(f"G({r},{p},{n}) is not defined")
    if ring.r != r:
        raise RingMismatch(f"ring of order {ring.r} cannot host G({r},{p},{n})")
    gens: list[Monomial] = []
    for j in range(1, n):
        gens.append(Monomial.from_cycles(ring, n, [[j, j + 1]]))
    if p < r:
        gens.append(Monomial.diagonal(ring, [p] + [0] * (n - 1)))
    if p > 1 and n >= 2:
        perm = list(range(n))
        perm[0], perm[1] = 1, 0
        exps = [0] * n
        exps[0], exps[1] = -1, 1
        gens.append(Monomial(ring, perm, exps))
    return gens


def linear_group_order(r: int, p: int, n: int) -> int:
    return r ** n * factorial(n) // p


def enumerate_linear_group(ring: Ring, r: int, p: int, n: int) -> list[Monomial]:
    """All elements of G(r,p,n): monomial matrices whose weight exponents sum
    to 0 mod p.  Deterministic order (permutation-major)."""
    if r < 1 or p < 1 or n < 1 or r % p != 0:
        raise InvalidParameters(f"G({r},{p},{n}) is not defined")
    count = linear_group_order(r, p, n)
    if count > ENUMERATION_CAP:
        raise TooLarge(f"|G({r},{p},{n})| = {count} exceeds cap {ENUMERATION_CAP}")
    exp_tuples = [e for e in product(range(r), repeat=n) if sum(e) % p == 0]
    out = []
    for perm in permutations(range(n)):
        for exps in exp_tuples:
            out.append(Monomial(ring, perm, exps))
    return out


# -- catalog rows -----------------------------------------------------------

def _coeff_gens(ring: Ring, name: str) -> tuple[Scalar, ...]:
    one = ring.one()
    if name == "Z[x]":
        return (one, ring.xi())
    if name == "Z[2x]":
        return (one, ring.scalar(0, 2))
    al = ring.formal() if ring.alpha else None
    table = {
        "Z+Za": (one, al),
        "Z+Z(a/2)": (one, al * Fraction(1, 2)),
        "(1/2)Z+Za": (ring.rational(Fraction(1, 2)), al),
        "Z+Z((1+a)/2)": (one, (one + al) * Fraction(1, 2)),
        "(1/2)(Z+Za)": (ring.rational(Fraction(1, 2)), al * Fraction(1, 2)),
        "Z+Z(a/3)": (one, al * Fraction(1, 3)),
        "Z+Z((1+a)/3)": (one, (one + al) * Fraction(1, 3)),
        "Z+Z((2+a)/3)": (one, (ring.rational(2) + al) * Fraction(1, 3)),
    }
    if name not in table:
        raise UnknownGroup(f"unknown coefficient module {name!r}")
    return table[name]


def _diffs(ring: Ring, n: int, scale: Optional[Scalar] = None) -> list[Vector]:
    """The vectors e_{j-1} - e_j for j = 2..n, optionally scaled."""
    out = []
    for j in range(2, n + 1):
        v = Vector.basis(ring, n, j - 1) - Vector.basis(ring, n, j)
        out.append(v.scale(scale) if scale is not None else v)
    return out


class _Row:
    """One parametric row of the classification tables."""

    def __init__(self, family: str, r: int, p: int, k: int, nmin: int,
                 nmax: Optional[int], alpha: bool, steinberg,
                 lattice_builder, counterexample=None):
        self.family = family
        self.r = r
        self.p = p
        self.k = k
        self.nmin = nmin
        self.nmax = nmax
        self.alpha = alpha
        self._steinberg = steinberg
        self._lattice_builder = lattice_builder
        self._counterexample = counterexample

    def matches(self, gid: GroupId) -> bool:
        if (gid.family, gid.r, gid.p, gid.k, gid.uses_alpha) != (
                self.family, self.r, self.p, self.k, self.alpha):
            return False
        return gid.n >= self.nmin and (self.nmax is None or gid.n <= self.nmax)

    def steinberg(self, n: int) -> bool:
        return self._steinberg(n) if callable(self._steinberg) else self._steinberg

    def lattice(self, ring: Ring, n: int) -> Lattice:
        return self._lattice_builder(ring, n)

    def counterexample(self, ring: Ring, n: int) -> Optional[AffineMap]:
        if self._counterexample is None:
            return None
        base = self._counterexample(ring)
        n0 = base.n
        if n == n0:
            return base
        # lift to higher rank by extending with the identity
        perm = list(base.lin.perm) + list(range(n0, n))
        exps = list(base.lin.exps) + [0] * (n - n0)
        tran = list(base.tran.coords) + [ring.zero()] * (n - n0)
        return AffineMap(Monomial(ring, perm, exps), Vector(ring, tran))


def _genuine_lattice(first_kind: str, diff_coeff: str = "Z[x]",
                     diff_scale: Optional[str] = None, extra_en: bool = False):
    """Lattice builders for the genuine rows.

    first_kind: "e1" or "xie1-e2" or one of the n=2 specials.
    diff_scale: None, "1/(1-x)", "1+x", or "1-x".
    """
    def build(ring: Ring, n: int) -> Lattice:
        one, xi = ring.one(), ring.xi()
        gens = []
        if first_kind == "e1":
            gens.append((Vector.basis(ring, n, 1), _coeff_gens(ring, "Z[x]"), "Z[x]"))
        else:
            v = Vector.basis(ring, n, 1).scale(xi) - Vector.basis(ring, n, 2)
            coeff = "Z[2x]" if first_kind == "xie1-e2:Z[2x]" else "Z[x]"
            gens.append((v, _coeff_gens(ring, coeff), coeff))
        scale = None
        if diff_scale == "1/(1-x)":
            scale = (one - xi).inverse()
        elif diff_scale == "1+x":
            scale = one + xi
        elif diff_scale == "1-x":
            scale = one - xi
        diff_coeffs = _coeff_gens(ring, diff_coeff)
        for v in _diffs(ring, n, scale):
            gens.append((v, diff_coeffs, diff_coeff))
        if extra_en:
            gens.append((Vector.basis(ring, n, n), _coeff_gens(ring, "Z[x]"), "Z[x]"))
        return lattice_from_generators(ring, n, gens)
    return build


def _alpha_lattice(first: str, diff_coeff: str):
    """Lattice builders for the Coxeter-based rows (Z + Z*a style modules)."""
    def build(ring: Ring, n: int) -> Lattice:
        gens = []
        rank = None
        if first == "e1":
            gens.append((Vector.basis(ring, n, 1), _coeff_gens(ring, "Z+Za"), "Z+Za"))
        elif first == "-e1-e2":
            v = -(Vector.basis(ring, n, 1) + Vector.basis(ring, n, 2))
            gens.append((v, _coeff_gens(ring, "Z+Za"), "Z+Za"))
        elif first == "none":
            rank = 2 * (n - 1)
        diff_coeffs = _coeff_gens(ring, diff_coeff)
        for v in _diffs(ring, n):
            gens.append((v, diff_coeffs, diff_coeff))
        return lattice_from_generators(ring, n, gens, rank=rank)
    return build


def _dihedral_lattice(coeff2: str):
    def build(ring: Ring, n: int) -> Lattice:
        one, xi = ring.one(), ring.xi()
        u = Vector.basis(ring, 2, 1).scale(xi) - Vector.basis(ring, 2, 2)
        v = (Vector.basis(ring, 2, 1) - Vector.basis(ring, 2, 2)).scale(one + xi)
        return lattice_from_generators(ring, 2, [
            (u, _coeff_gens(ring, "Z+Za"), "Z+Za"),
            (v, _coeff_gens(ring, coeff2), coeff2),
        ])
    return build


def _diag_counterexample(exps: Sequence[int], tran_texts: Sequence[str]):
    from .scalars import parse_scalar

    def build(ring: Ring) -> AffineMap:
        tran = Vector(ring, [parse_scalar(ring, t) for t in tran_texts])
        return AffineMap(Monomial.diagonal(ring, list(exps)), tran)
    return build


_ROWS: list[_Row] = [
    # --- genuine groups: r in {3, 4, 6}, no formal parameter ---------------
    _Row("G", 3, 1, 1, 1, None, False, True,
         _genuine_lattice("e1")),
    _Row("G", 3, 1, 2, 2, None, False, False,
         _genuine_lattice("e1", diff_scale="1/(1-x)"),
         _diag_counterexample([1, 1], ["2/3 + 1/3*x", "-2/3 - 1/3*x"])),
    _Row("G", 3, 3, 1, 3, None, False, False,
         _genuine_lattice("xie1-e2"),
         _diag_counterexample([1, 1, 1], ["1", "-1", "0"])),
    _Row("G", 4, 1, 1, 1, None, False, True,
         _genuine_lattice("e1")),
    _Row("G", 4, 1, 2, 2, None, False, True,
         _genuine_lattice("e1", diff_scale="1/(1-x)")),
    _Row("G", 4, 2, 1, 2, None, False, True,
         _genuine_lattice("xie1-e2")),
    _Row("G", 4, 2, 2, 2, None, False, True,
         _genuine_lattice("xie1-e2", extra_en=True)),
    _Row("G", 4, 2, 3, 2, 2, False, True,
         _genuine_lattice("xie1-e2", diff_scale="1+x")),
    _Row("G", 4, 4, 1, 3, None, False, False,
         _genuine_lattice("xie1-e2"),
         _diag_counterexample([1, 2, 1], ["1", "-1", "0"])),
    _Row("G", 6, 1, 1, 1, None, False, True,
         _genuine_lattice("e1")),
    _Row("G", 6, 2, 1, 2, None, False, True,
         _genuine_lattice("xie1-e2")),
    _Row("G", 6, 2, 2, 2, 2, False, True,
         _genuine_lattice("xie1-e2", diff_scale="1+x")),
    _Row("G", 6, 3, 1, 2, None, False, True,
         _genuine_lattice("xie1-e2")),
    _Row("G", 6, 3, 2, 2, 2, False, False,
         _genuine_lattice("xie1-e2:Z[2x]", diff_coeff="Z[2x]", diff_scale="1-x"),
         _diag_counterexample([3, 3], ["1", "-2 + x"])),
    _Row("G", 6, 6, 1, 3, None, False, False,
         _genuine_lattice("xie1-e2"),
         _diag_counterexample([2, 3, 1], ["1", "-1", "0"])),
    # --- groups built on Coxeter linear parts, with formal parameter ------
    _Row("WA", 1, 1, 1, 3, None, True, True,
         _alpha_lattice("none", "Z+Za")),
    _Row("G", 2, 1, 1, 1, None, True, True,
         _alpha_lattice("e1", "Z+Za")),
    _Row("G", 2, 1, 2, 2, None, True, False,
         _alpha_lattice("e1", "Z+Z((1+a)/2)"),
         _diag_counterexample([1, 1], ["3/2 + 1/2*al", "-1/2 - 1/2*al"])),
    _Row("G", 2, 1, 3, 3, None, True, False,
         _alpha_lattice("e1", "(1/2)Z+Za"),
         _diag_counterexample([1, 1, 0], ["1/2 + al", "-1/2", "0"])),
    _Row("G", 2, 1, 4, 2, None, True, False,
         _alpha_lattice("e1", "Z+Z(a/2)"),
         _diag_counterexample([1, 1], ["1 + 1/2*al", "-1/2*al"])),
    _Row("G", 2, 1, 5, 3, None, True, False,
         _alpha_lattice("e1", "(1/2)(Z+Za)"),
         _diag_counterexample([1, 1, 1], ["3/2 + 1/2*al", "-1/2*al", "-1/2"])),
    _Row("G", 2, 2, 1, 3, None, True, lambda n: n == 3,
         _alpha_lattice("-e1-e2", "Z+Za"),
         _diag_counterexample([1, 1, 1, 1], ["1", "1 + al", "-al", "0"])),
    _Row("G", 6, 6, 1, 2, 2, True, False,
         _dihedral_lattice("Z+Za"),
         _diag_counterexample([3, 3], ["x + al + x*al", "-1 - al - x*al"])),
    _Row("G", 6, 6, 2, 2, 2, True, False,
         _dihedral_lattice("Z+Z(a/3)"),
         _diag_counterexample([3, 3], ["x + 1/3*al + 1/3*x*al",
                                       "-1 - 1/3*al - 1/3*x*al"])),
    _Row("G", 6, 6, 3, 2, 2, True, False,
         _dihedral_lattice("Z+Z((1+a)/3)"),
         _diag_counterexample([3, 3], ["1/3 + x + 1/3*al + 1/3*x*al + 1/3*x",
                                       "-4/3 - 1/3*x - 1/3*al - 1/3*x*al"])),
    _Row("G", 6, 6, 4, 2, 2, True, False,
         _dihedral_lattice("Z+Z((2+a)/3)"),
         _diag_counterexample([3, 3], ["2/3 + x + 2/3*x + 1/3*al + 1/3*x*al",
                                       "-5/3 - 2/3*x - 1/3*al - 1/3*x*al"])),
]


def _find_row(gid: GroupId) -> _Row:
    for row in _ROWS:
        if row.matches(gid):
            return row
    raise UnknownGroup(f"{gid.name()} is not in the catalog")


class GroupSpec:
    """A catalogued group: ring, lattice, linear generators, expected verdict
    and (for failing rows) the tabulated counterexample element."""

    __slots__ = ("id", "ring", "n", "lattice", "linear_generators",
                 "expected_steinberg", "counterexample", "_families",
                 "_family_idx", "_orbit_module", "_full_invariance",
                 "_elements")

    def __init__(self, gid: GroupId, ring: Ring, lattice: Lattice,
                 linear_generators: Sequence[Monomial],
                 expected_steinberg: bool,
                 counterexample: Optional[AffineMap]):
        self.id = gid
        self.ring = ring
        self.n = gid.n
        self.lattice = lattice
        self.linear_generators = tuple(linear_generators)
        self.expected_steinberg = expected_steinberg
        self.counterexample = counterexample
        self._families = None
        self._family_idx = None
        self._orbit_module = None
        self._full_invariance = None
        self._elements = None

    @property
    def name(self) -> str:
        return self.id.name()

    def elements_of_linear_part(self) -> list[Monomial]:
        if self._elements is None:
            self._elements = enumerate_linear_group(
                self.ring, self.id.r, self.id.p, self.n)
        return self._elements

    def is_member(self, g: AffineMap) -> bool:
        """Lin(g) in G(r,p,n) and Tran(g) in the lattice."""
        if g.ring is not self.ring or g.n != self.n:
            return False
        if g.lin.weight_exponent_sum() % self.id.p != 0:
            return False
        return self.lattice.contains(g.tran)

    def orbit_module(self) -> ScalarModule:
        """Lambda' = the scalars t with t(e1 - e2) in the lattice (n >= 2)."""
        if self._orbit_module is None:
            w = Vector.basis(self.ring, self.n, 1) - Vector.basis(self.ring, self.n, 2)
            self._orbit_module = self.lattice.line_intersection(w)
        return self._orbit_module

    def invariant_under_full_group(self) -> bool:
        """Whether the lattice is invariant under all of G(r,1,n)."""
        if self._full_invariance is None:
            gens = generators_of_linear_part(self.ring, self.id.r, 1, self.n)
            self._full_invariance = all(self.lattice.is_invariant(m) for m in gens)
        return self._full_invariance

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "family": "nongenuine" if self.id.uses_alpha else "genuine",
            "r": self.id.r, "p": self.id.p, "n": self.n, "k": self.id.k,
            "uses_alpha": self.id.uses_alpha,
            "steinberg": self.expected_steinberg,
            "lattice": self.lattice.to_dict(),
            "linear_generators": [m.text() for m in self.linear_generators],
        }
        if self.counterexample is not None:
            out["counterexample"] = {
                "lin": self.counterexample.lin.text(),
                "tran": [x.text() for x in self.counterexample.tran.coords],
            }
        return out

    def __repr__(self) -> str:
        return f"GroupSpec({self.name})"


_SPEC_CACHE: dict[GroupId, GroupSpec] = {}


def build_group(gid) -> GroupSpec:
    """Construct (and cache) the GroupSpec for a group id or name string."""
    if isinstance(gid, str):
        gid = parse_group_name(gid)
    gid = _canonical(gid)
    if gid in _SPEC_CACHE:
        return _SPEC_CACHE[gid]
    row = _find_row(gid)
    ring = Ring(gid.r, row.alpha)
    lattice = row.lattice(ring, gid.n)
    if gid.family == "WA":
        gens = generators_of_linear_part(ring, 1, 1, gid.n)
    else:
        gens = generators_of_linear_part(ring, gid.r, gid.p, gid.n)
    expected = row.steinberg(gid.n)
    counter = None
    if not expected:
        counter = row.counterexample(ring, gid.n)
    spec = GroupSpec(gid, ring, lattice, gens, expected, counter)
    # sanity: the lattice must be stable under every linear generator, and a
    # tabulated counterexample must be a member with small basis coefficients
    for m in gens:
        if not lattice.is_invariant(m):
            raise CrystrefError(f"{gid.name()}: lattice not invariant")
    if counter is not None:
        coeffs = lattice.coefficients(counter.tran)
        if coeffs is None:
            raise CrystrefError(f"{gid.name()}: counterexample not in lattice")
        if max(abs(c) for c in coeffs) > 1:
            raise CrystrefError(
                f"{gid.name()}: counterexample outside the B=1 box")
    _SPEC_CACHE[gid] = spec
    return spec


def catalog_ids() -> list[GroupId]:
    """One id per table row, at the smallest catalogued dimension."""
    out = []
    for row in _ROWS:
        if row.family == "G" and row.p == 1 and row.k == 1 and not row.alpha \
                and row.nmin == 1:
            # the rank-1 rows double as the n >= 2 family; report both sizes
            out.append(GroupId("G", row.r, 1, 1, 1, False))
            out.append(GroupId("G", row.r, 1, 2, 1, False))
            continue
        if row.family == "G" and (row.r, row.p, row.k, row.alpha) == (2, 1, 1, True):
            out.append(GroupId("G", 2, 1, 1, 1, True))
            out.append(GroupId("G", 2, 1, 2, 1, True))
            continue
        if row.family == "G" and (row.r, row.p, row.k, row.alpha) == (2, 2, 1, True):
            out.append(GroupId("G", 2, 2, 3, 1, True))
            out.append(GroupId("G", 2, 2, 4, 1, True))
            continue
        out.append(GroupId(row.family, row.r, row.p, row.nmin, row.k, row.alpha))
    return out
