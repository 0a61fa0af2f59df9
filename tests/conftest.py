"""Shared helpers: seeded random generators for scalars, monomials and maps,
and dense reference solvers that the cycle-wise fast paths are tested
against."""

import random
from fractions import Fraction

import pytest

from crystref import (EMPTY, AffineMap, AffineSubspace, Monomial, Ring, Scalar,
                      Vector)
from crystref.affine import _solve_scalar_system


def random_fraction(rng: random.Random, num: int = 3, dens=(1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.choice(dens))


def random_scalar(rng: random.Random, ring: Ring, with_alpha: bool = False) -> Scalar:
    a = random_fraction(rng)
    b = random_fraction(rng) if ring.is_quadratic else 0
    if with_alpha and ring.alpha:
        c = random_fraction(rng)
        d = random_fraction(rng) if ring.is_quadratic else 0
        return ring.scalar(a, b, c, d)
    return ring.scalar(a, b)


def random_cyclo(rng: random.Random, ring: Ring) -> Scalar:
    return random_scalar(rng, ring, with_alpha=False)


def random_monomial(rng: random.Random, ring: Ring, n: int) -> Monomial:
    perm = list(range(n))
    rng.shuffle(perm)
    exps = [rng.randrange(ring.r) for _ in range(n)]
    return Monomial(ring, perm, exps)


def random_vector(rng: random.Random, ring: Ring, n: int,
                  with_alpha: bool = False) -> Vector:
    return Vector(ring, [random_scalar(rng, ring, with_alpha) for _ in range(n)])


def random_affine(rng: random.Random, ring: Ring, n: int,
                  with_alpha: bool = False) -> AffineMap:
    return AffineMap(random_monomial(rng, ring, n),
                     random_vector(rng, ring, n, with_alpha))


def dense_one_minus(m: Monomial) -> list[list[Scalar]]:
    """The dense matrix 1 - m over the scalars."""
    ring = m.ring
    rows = [[ring.one() if i == j else ring.zero() for j in range(m.n)]
            for i in range(m.n)]
    for j in range(m.n):
        i = m.perm[j]
        rows[i][j] = rows[i][j] - m.weight(j)
    return rows


def dense_rank(m: Monomial) -> int:
    """rank(1 - m) by dense Gaussian elimination."""
    ring = m.ring
    solved = _solve_scalar_system(dense_one_minus(m), [ring.zero()] * m.n,
                                  ring)
    return m.n - len(solved[1])


def dense_fixed_space(g: AffineMap) -> AffineSubspace:
    """Reference fixed space: the reduced row echelon form of the dense
    system (1 - Lin(g)) v = Tran(g), free variables set to zero and each
    kernel vector scaled to lead with one."""
    ring = g.ring
    solved = _solve_scalar_system(dense_one_minus(g.lin), list(g.tran.coords),
                                  ring)
    if solved is None:
        return EMPTY
    particular, kernel = solved
    return AffineSubspace(Vector(ring, particular),
                          [Vector(ring, vec) for vec in kernel])


@pytest.fixture
def rng():
    return random.Random(20240229)
