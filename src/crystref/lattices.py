"""Z-lattices in C^n given by module generators, with exact membership,
invariance checks and line intersections; plus rank-<=4 modules of scalars.

A lattice is stored as a Z-basis of vectors together with its flat
coordinates as one integer matrix B over one denominator D (int_basis),
computed once.  Membership reads the flattened vector as integer numerators
over one denominator (Vector.int_flat) and applies the precomputed integer
inverse of B / D (linalg.RowSolver): a row-span test and a divisibility test,
with no rational arithmetic.  Line intersections work on B as well: the left
kernel of an integer matrix and one integer solve per generator.  Modules of
scalars are ranked, solved and keyed by the same integer routines.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Optional, Sequence

from . import linalg
from .affine import Monomial, Vector
from .errors import (CrystrefError, DimensionMismatch, RankDeficient,
                     RingMismatch, ZeroDirection)
from .scalars import Ring, Scalar


class ScalarModule:
    """Finitely generated additive subgroup of the scalar space, presented by
    a Z-independent generator list (possibly empty: the zero module)."""

    __slots__ = ("ring", "gens", "_solver", "_key")

    def __init__(self, ring: Ring, gens: Iterable[Scalar]):
        gens = tuple(gens)
        for g in gens:
            if g.ring is not ring:
                raise RingMismatch("module generator from a different ring")
        rows = [g.int_coordinates()[0] for g in gens]
        if len(linalg.int_rref(rows)[1]) != len(gens):
            raise RankDeficient("module generators are not Z-independent")
        self.ring = ring
        self.gens = gens
        self._solver = None
        self._key = None

    @property
    def rank(self) -> int:
        return len(self.gens)

    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, x: Scalar) -> bool:
        """True iff x is a Z-combination of the generators."""
        if x.ring is not self.ring:
            raise RingMismatch("membership across rings")
        if not self.gens:
            return x.is_zero()
        return self.solver().solve_integral(*x.int_coordinates()) is not None

    __contains__ = contains

    def coefficients(self, x: Scalar) -> Optional[list[int]]:
        """Integer coordinates of x in the generator basis, if any."""
        if not self.gens:
            return [] if x.is_zero() else None
        return self.solver().solve_integral(*x.int_coordinates())

    def solver(self) -> linalg.RowSolver:
        """The solver of the generator coordinate matrix, built once."""
        if self._solver is None:
            self._solver = linalg.RowSolver(*linalg.over_one_denominator(
                g.int_coordinates() for g in self.gens))
        return self._solver

    def scaled(self, s: Scalar) -> "ScalarModule":
        """The module s * M."""
        return ScalarModule(self.ring, [s * g for g in self.gens])

    def includes(self, other: "ScalarModule") -> bool:
        return all(self.contains(g) for g in other.gens)

    def same_module(self, other: "ScalarModule") -> bool:
        """Two-sided inclusion (exact equality as subgroups)."""
        return self.includes(other) and other.includes(self)

    def canonical_key(self):
        """Hashable canonical form: the least D with D * M integral (the lcm
        of the generators' denominators, a module invariant) and the Hermite
        normal form of the integer coordinate matrix of D * M."""
        if self._key is None:
            rows, den = linalg.over_one_denominator(
                g.int_coordinates() for g in self.gens)
            self._key = (self.ring.r, self.ring.alpha, den,
                         tuple(map(tuple, linalg.int_hnf(rows))))
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarModule):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def text(self) -> str:
        return "<" + ", ".join(g.text() for g in self.gens) + ">"

    def __repr__(self) -> str:
        return f"ScalarModule{self.text()}"


class Lattice:
    """Z-lattice given by a Z-basis of vectors in C^n; int_basis is (B, D),
    the flat basis vectors as the integer rows of B over one denominator D."""

    __slots__ = ("ring", "n", "zbasis", "int_basis", "generators", "_solver")

    def __init__(self, ring: Ring, n: int, zbasis: Sequence[Vector],
                 generators: Sequence[tuple[Vector, tuple[Scalar, ...], str]] = ()):
        self.ring = ring
        self.n = n
        self.zbasis = tuple(zbasis)
        self.int_basis = linalg.over_one_denominator(
            b.int_flat() for b in self.zbasis)
        self.generators = tuple(generators)
        self._solver = None

    @property
    def rank(self) -> int:
        return len(self.zbasis)

    def _get_solver(self) -> linalg.RowSolver:
        if self._solver is None:
            self._solver = linalg.RowSolver(*self.int_basis)
        return self._solver

    def contains(self, v: Vector) -> bool:
        """Exact membership: integral coordinates in the Z-basis."""
        if v.ring is not self.ring:
            raise RingMismatch("vector from a different ring")
        if v.n != self.n:
            raise DimensionMismatch(f"{self.n} vs {v.n}")
        return self._get_solver().solve_integral(*v.int_flat()) is not None

    __contains__ = contains

    def coefficients(self, v: Vector) -> Optional[list[int]]:
        if v.n != self.n or v.ring is not self.ring:
            return None
        return self._get_solver().solve_integral(*v.int_flat())

    def is_invariant(self, m: Monomial) -> bool:
        """True iff m maps every basis vector back into the lattice."""
        if m.ring is not self.ring:
            raise RingMismatch("monomial from a different ring")
        if m.n != self.n:
            raise DimensionMismatch(f"{self.n} vs {m.n}")
        return all(self.contains(m.apply(b)) for b in self.zbasis)

    def line_intersection(self, w: Vector) -> ScalarModule:
        """The module of scalars t with t*w in the lattice (saturated)."""
        if w.ring is not self.ring:
            raise RingMismatch("vector from a different ring")
        if w.n != self.n:
            raise DimensionMismatch(f"{self.n} vs {w.n}")
        if w.is_zero():
            raise ZeroDirection("line direction must be nonzero")
        if not all(x.is_cyclo() for x in w.coords):
            raise RingMismatch("line direction must be free of the parameter")
        ring = self.ring
        basis = ring.basis_scalars()
        solver = linalg.RowSolver(*linalg.over_one_denominator(
            w.scale(b).int_flat() for b in basis))
        zmat, zden = self.int_basis
        # the columns of -C span the right kernel K of F (positive multiples
        # of its RREF basis), which cuts out the complement of span(F);
        # scaling Z and K's columns by positive integers scales the columns of
        # Z K by positive factors, which leaves its left kernel unchanged
        # (with no kernel, the left kernel of the empty Z K is the identity)
        akern = [[-x for x in col] for col in zip(*solver.cmat)]
        ys = linalg.int_left_kernel(
            [[sum(map(mul, zrow, avec)) for avec in akern] for zrow in zmat])
        # the basis scalars are coordinate unit vectors: x @ units places the
        # solution's coefficients on the scalar's coordinates
        units = [b.int_coordinates()[0] for b in basis]
        pad = [0] * (4 - ring.flat_width)
        gens = []
        for y in ys:
            v = [sum(map(mul, y, col)) for col in zip(*zmat)]
            solved = solver.solve_rational(v, zden)
            if solved is None:
                raise CrystrefError(
                    "a lattice vector on the line left its span")
            xs, den = solved
            nums = [sum(map(mul, xs, col)) for col in zip(*units)]
            gens.append(Scalar._raw(ring, *nums, *pad, den))
        return ScalarModule(ring, gens)

    def to_dict(self) -> dict:
        return {
            "ring": {"r": self.ring.r, "alpha": self.ring.alpha},
            "dimension": self.n,
            "rank": self.rank,
            "generators": [
                {"vector": [x.text() for x in vec.coords],
                 "coefficients": name}
                for vec, _, name in self.generators
            ],
            "zbasis": [[x.text() for x in b.coords] for b in self.zbasis],
        }

    def __repr__(self) -> str:
        return f"Lattice(n={self.n}, rank={self.rank})"


def lattice_from_generators(ring: Ring, n: int,
                            gens: Sequence[tuple[Vector, Sequence[Scalar], str]],
                            rank: Optional[int] = None) -> Lattice:
    """Build a lattice from (vector, coefficient-module generators, label)
    triples; each pair (s, v) contributes the basis candidate s*v.

    The flattened candidates must span a module of the expected rank
    (2n unless stated otherwise); redundant generating sets are reduced to a
    canonical Hermite basis.
    """
    expected = 2 * n if rank is None else rank
    flats: list[Vector] = []
    stored = []
    for vec, coeff_gens, name in gens:
        coeff_gens = tuple(coeff_gens)
        stored.append((vec, coeff_gens, name))
        for s in coeff_gens:
            flats.append(vec.scale(s))
    rows, den = linalg.over_one_denominator(v.int_flat() for v in flats)
    got = len(linalg.int_rref(rows)[1])
    if got != expected:
        raise RankDeficient(f"expected rank {expected}, generators span {got}")
    if got == len(flats):
        zbasis = flats
    else:
        zbasis = [Vector.from_int_flat(ring, row, den)
                  for row in linalg.int_hnf(rows)]
    return Lattice(ring, n, zbasis, stored)
