"""Exact linear algebra on integer matrices: one fraction-free Gauss-Jordan
routine over Q (int_rref, and RowSolver's repeated solves built on it, which
use precomputed integer matrices only) and one Bezout row echelon over Z
(the Hermite normal form and saturated left kernels).  Rational matrices
enter as integer numerators over one denominator.

Everything here is dense and desk-scale (dimensions at most ~20); clarity and
exactness over asymptotics.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence


def over_one_denominator(
        parts: Iterable[tuple[Sequence[int], int]]) -> tuple[list[list[int]], int]:
    """(rows, den): rows given as (numerators, denominator) pairs, rescaled
    to integers over the lcm of their denominators."""
    parts = list(parts)
    den = lcm(1, *(d for _, d in parts))
    return [[x * (den // d) for x in nums] for nums, d in parts], den


def int_rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination: (rows, pivot columns) of the
    reduced row echelon form, each nonzero row returned as the RREF row times
    its positive pivot, in lowest terms (E. H. Bareiss, Math. Comp. 22,
    1968, with the row content divided out instead of the previous pivot)."""
    mat = [list(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        prow = next((i for i in range(r, nrows) if mat[i][col]), None)
        if prow is None:
            continue
        mat[r], mat[prow] = mat[prow], mat[r]
        # the pivot row, primitive with a positive pivot
        g = gcd(*mat[r]) if mat[r][col] > 0 else -gcd(*mat[r])
        prow = mat[r] = [x // g for x in mat[r]]
        p = prow[col]
        for i in range(nrows):
            f = mat[i][col]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(mat[i], prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        r += 1
    return mat[:r], pivots


class RowSolver:
    """Solves x @ G = v repeatedly for a fixed G with independent rows.

    The constructor reduces [G | I] once and keeps integer data only: L / dL,
    the inverse of G on its pivot columns placed on those rows (so v @ L / dL
    is the only candidate x), and C, the integer row-span condition: v lies
    in the row span of G iff v @ C == 0 (C is L G - I scaled to integers,
    keeping only the columns off the pivots, since the others vanish).  The
    columns of -C are the right kernel basis of G that its RREF gives, scaled
    to integers.  G and the solves' v come as integer numerators over one
    denominator (Scalar.int_coordinates, Vector.int_flat, Lattice.int_basis),
    and the solves need no rational arithmetic (H. Cohen, A Course in
    Computational Algebraic Number Theory, GTM 138, section 2.4).  L, dL and
    C are in lowest terms, so they do not depend on how G was scaled.
    """

    __slots__ = ("lmat", "dl", "cmat", "_lcols", "_ccols")

    def __init__(self, gmat: Sequence[Sequence[int]], den: int):
        k = len(gmat)
        ncols = len(gmat[0]) if k else 0
        # one reduction of [G | I] gives p R with R = G_P^-1 G on the left and
        # G_P^-1 / den on the right; a pivot on the right means dependent rows
        rref, pivots = int_rref([list(row) + [int(i == j) for j in range(k)]
                                 for i, row in enumerate(gmat)])
        if any(c >= ncols for c in pivots):
            raise ValueError("rows are not independent")
        free = [c for c in range(ncols) if c not in pivots]
        piv = [row[c] for row, c in zip(rref, pivots)]
        lnums = [[den * x for x in row[ncols:]] for row in rref]
        cnums = [[row[j] for j in free] for row in rref]
        # the least common denominators of the entries row / p over all rows
        self.dl = lcm(1, *(p // gcd(p, *row) for p, row in zip(piv, lnums)))
        dc = lcm(1, *(p // gcd(p, *row) for p, row in zip(piv, cnums)))
        self.lmat = [[0] * k for _ in range(ncols)]
        # C = L G - I on the free columns: the rows of R at the pivots, -I off
        self.cmat = [[-dc * int(i == j) for j in free] for i in range(ncols)]
        for c, p, lrow, crow in zip(pivots, piv, lnums, cnums):
            self.lmat[c] = [x * self.dl // p for x in lrow]
            self.cmat[c] = [x * dc // p for x in crow]
        self._lcols = [tuple(col) for col in zip(*self.lmat)]
        self._ccols = [tuple(col) for col in zip(*self.cmat)]

    def solve_rational(self, nums: Sequence[int],
                       den: int) -> Optional[tuple[list[int], int]]:
        """The x with x @ G == nums / den as (numerators, denominator) =
        (v @ L, den * dL), or None when v is outside the row span."""
        for col in self._ccols:
            if sum(map(mul, nums, col)):
                return None
        return [sum(map(mul, nums, col)) for col in self._lcols], den * self.dl

    def solve_integral(self, nums: Sequence[int],
                       den: int) -> Optional[list[int]]:
        """The x with x @ G == nums / den when it exists and is integral,
        else None."""
        solved = self.solve_rational(nums, den)
        if solved is None:
            return None
        xs, scale = solved
        out = []
        for x in xs:
            q, rem = divmod(x, scale)
            if rem:
                return None
            out.append(q)
        return out


# -- integer matrices ------------------------------------------------------

def _echelon(mat: list[list[int]], ncols: int) -> int:
    """Row echelon form of the first ncols columns of mat, in place, by
    unimodular 2 x 2 Bezout row operations; returns the number r of pivot
    rows, which come first (the rows below them are zero on those columns)."""
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            a, b = mat[r][col], mat[i][col]
            if b == 0:
                continue
            g = gcd(a, b)
            x0, y0 = _xgcd(a, b)
            ag, bg = a // g, b // g
            mat[r], mat[i] = ([x0 * u + y0 * v for u, v in zip(mat[r], mat[i])],
                              [-bg * u + ag * v for u, v in zip(mat[r], mat[i])])
        r += 1
    return r


def int_hnf(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form of the integer row span: its nonzero
    rows, each pivot positive and every entry above a pivot in [0, pivot)."""
    mat = [list(map(int, row)) for row in rows]
    mat = mat[:_echelon(mat, len(mat[0]) if mat else 0)]
    # reduce from the top row down: row i is zero left of its pivot, so
    # subtracting it leaves the pivot columns that earlier steps reduced alone
    for i, row in enumerate(mat):
        c = next(j for j, x in enumerate(row) if x)
        if row[c] < 0:
            row = mat[i] = [-x for x in row]
        for k in range(i):
            q = mat[k][c] // row[c]
            if q:
                mat[k] = [x - q * y for x, y in zip(mat[k], row)]
    return mat


def int_left_kernel(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Saturated Z-basis of {y in Z^m : y @ mat == 0}: the echelon of
    [mat | I] puts the kernel in the right half of its zero rows."""
    m = len(mat)
    ncols = len(mat[0]) if m else 0
    rows = [list(map(int, mat[i])) + [int(i == j) for j in range(m)]
            for i in range(m)]
    return [row[ncols:] for row in rows[_echelon(rows, ncols):]]


def _xgcd(a: int, b: int) -> tuple[int, int]:
    """Bezout coefficients (x, y) with x*a + y*b == gcd(a, b)."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y = -x, -y
    return x, y
