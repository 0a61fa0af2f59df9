"""Shared helpers: seeded random generators for scalars, monomials and maps,
the dense Scalar solver that the cycle-wise fast paths are tested against,
and Fraction references (a Fraction RREF among them) for the integer scalar
arithmetic, the integer elimination, the integer row solver and the integer
line intersection."""

import random
from fractions import Fraction
from math import lcm

import pytest

from crystref import (EMPTY, AffineMap, AffineSubspace, Monomial, Ring, Scalar,
                      Vector)
from crystref.linalg import int_left_kernel
from crystref.scalars import _FOLDED, _REDUCTION


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


def solve_scalar_system(rows, rhs, ring: Ring):
    """Dense reference: solve A x = rhs over the scalar field by Gauss-Jordan
    elimination on Scalars.

    A has cyclotomic entries (pivots stay invertible); rhs may carry the
    formal parameter.  Returns (particular solution, kernel basis with leading
    coefficient one) or None when inconsistent.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(nrows)]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        prow = next((i for i in range(r, nrows) if not aug[i][col].is_zero()), None)
        if prow is None:
            continue
        aug[r], aug[prow] = aug[prow], aug[r]
        inv = aug[r][col].inverse()
        aug[r] = [inv * x for x in aug[r]]
        for i in range(nrows):
            if i != r and not aug[i][col].is_zero():
                f = aug[i][col]
                aug[i] = [aug[i][j] - f * aug[r][j] for j in range(ncols + 1)]
        pivots.append(col)
        r += 1
    for i in range(r, nrows):
        if not aug[i][ncols].is_zero():
            return None
    particular = [ring.zero()] * ncols
    for i, pc in enumerate(pivots):
        particular[pc] = aug[i][ncols]
    kernel = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [ring.zero()] * ncols
        vec[fc] = ring.one()
        for i, pc in enumerate(pivots):
            vec[pc] = -aug[i][fc]
        lead = next(x for x in vec if not x.is_zero())
        if not lead.is_one():
            inv = lead.inverse()
            vec = [inv * x for x in vec]
        kernel.append(vec)
    return particular, kernel


def subspace_contains(space: AffineSubspace, u: Vector) -> bool:
    """Reference membership of a point in an affine subspace, by the dense
    solver."""
    if space.is_empty:
        return False
    diff = u - space.base
    if not space.directions:
        return diff.is_zero()
    cols = [list(d.coords) for d in space.directions]
    rows = [[cols[k][i] for k in range(len(cols))] for i in range(u.n)]
    return solve_scalar_system(rows, list(diff.coords), u.ring) is not None


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
    solved = solve_scalar_system(dense_one_minus(m), [ring.zero()] * m.n,
                                 ring)
    return m.n - len(solved[1])


def dense_fixed_space(g: AffineMap) -> AffineSubspace:
    """Reference fixed space: the reduced row echelon form of the dense
    system (1 - Lin(g)) v = Tran(g), free variables set to zero and each
    kernel vector scaled to lead with one."""
    ring = g.ring
    solved = solve_scalar_system(dense_one_minus(g.lin), list(g.tran.coords),
                                 ring)
    if solved is None:
        return EMPTY
    particular, kernel = solved
    return AffineSubspace(Vector(ring, particular),
                          [Vector(ring, vec) for vec in kernel])


# -- Fraction references -----------------------------------------------------

def fraction_coords(ring: Ring, a=0, b=0, c=0, d=0) -> tuple[Fraction, ...]:
    """Reference coordinates (a, b, c, d) of a scalar: Fractions, with xi
    folded into the rational part for r = 1, 2."""
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    if not ring.is_quadratic:
        fold = _FOLDED[ring.r]
        a, b, c, d = a + fold * b, Fraction(0), c + fold * d, Fraction(0)
    return a, b, c, d


def fraction_mul(ring: Ring, x, y) -> tuple[Fraction, ...] | None:
    """Reference product of coordinate tuples; None when both operands carry
    the formal parameter (the product would carry al^2)."""
    if (x[2] or x[3]) and (y[2] or y[3]):
        return None
    if not ring.is_quadratic:
        return fraction_coords(ring, x[0] * y[0], 0, x[0] * y[2] + x[2] * y[0])
    u, v = _REDUCTION[ring.r]

    def times(a1, b1, a2, b2):
        return a1 * a2 + v * b1 * b2, a1 * b2 + b1 * a2 + u * b1 * b2

    cyclo = times(x[0], x[1], y[0], y[1])
    formal = tuple(p + q for p, q in zip(times(x[0], x[1], y[2], y[3]),
                                         times(x[2], x[3], y[0], y[1])))
    return cyclo + formal


def fraction_inverse(ring: Ring, x) -> tuple[Fraction, ...] | None:
    """Reference inverse of a nonzero cyclotomic coordinate tuple (None for
    zero or a formal part)."""
    a, b = x[0], x[1]
    if x[2] or x[3] or not (a or b):
        return None
    if not ring.is_quadratic:
        return fraction_coords(ring, 1 / a)
    u, v = _REDUCTION[ring.r]
    norm = a * a + a * b * u - b * b * v
    return fraction_coords(ring, (a + b * u) / norm, -b / norm)


def frac_rref(rows):
    """Reference reduced row echelon form over Fractions: (rows, pivot
    columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        prow = next((i for i in range(r, nrows) if mat[i][col] != 0), None)
        if prow is None:
            continue
        mat[r], mat[prow] = mat[prow], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [mat[i][j] - f * mat[r][j] for j in range(ncols)]
        pivots.append(col)
        r += 1
    return mat, pivots


def frac_right_kernel(rows) -> list[list[Fraction]]:
    """Reference basis of {x : A x = 0} from the Fraction RREF, one vector
    per free column."""
    ncols = len(rows[0])
    rref, pivots = frac_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rref[i][fc]
        basis.append(vec)
    return basis


def int_matrix_and_den(rows) -> tuple[list[list[int]], int]:
    """(numerators, den) with rows = numerators / den exactly, den the lcm of
    the entries' denominators."""
    den = lcm(1, *(Fraction(x).denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows], den


def flat(v: Vector) -> list[Fraction]:
    """Rational coordinates of a vector, coordinate-major."""
    return [c for x in v.coords for c in x.coordinates()]


def fraction_solve(gmat, v) -> list[Fraction] | None:
    """Reference for linalg.RowSolver: x with x @ G == v by Fraction
    elimination, or None when v is outside the row span."""
    k, ncols = len(gmat), len(gmat[0])
    eye = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    rref, pivots = frac_rref([list(row) + e for row, e in zip(gmat, eye)])
    inv = [row[ncols:] for row in rref]
    vj = [v[c] for c in pivots]
    x = [sum(vj[a] * inv[a][b] for a in range(k)) for b in range(k)]
    for col in range(ncols):
        if sum(x[b] * gmat[b][col] for b in range(k)) != v[col]:
            return None
    return x


def fraction_line_intersection(lattice, w: Vector) -> list[Scalar]:
    """Reference generators of {t : t*w in lattice}: the right kernel and the
    solves in Fractions, the left kernel of the globally scaled Z K."""
    ring = lattice.ring
    basis = ring.basis_scalars()
    fmat = [flat(w.scale(b)) for b in basis]
    zmat = [flat(b) for b in lattice.zbasis]
    akern = frac_right_kernel(fmat)
    if akern:
        bmat = [[sum(zrow[j] * avec[j] for j in range(len(avec)))
                 for avec in akern] for zrow in zmat]
        ys = int_left_kernel(int_matrix_and_den(bmat)[0])
    else:
        ys = [[int(i == j) for j in range(len(zmat))] for i in range(len(zmat))]
    gens = []
    for y in ys:
        v = [sum(Fraction(y[i]) * zmat[i][j] for i in range(len(zmat)))
             for j in range(len(zmat[0]))]
        c = fraction_solve(fmat, v)
        assert c is not None
        t = ring.zero()
        for cs, b in zip(c, basis):
            t = t + b * cs
        gens.append(t)
    return gens


@pytest.fixture
def rng():
    return random.Random(20240229)
