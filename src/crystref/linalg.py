"""Exact linear algebra helpers: rational row reduction, integer Hermite-style
row reduction with unimodular tracking, and a repeated-solve helper whose
solves use precomputed integer matrices only.

Everything here is dense and desk-scale (dimensions at most ~20); clarity and
exactness over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

FracRow = list[Fraction]


# -- rational matrices ----------------------------------------------------

def frac_rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[FracRow], list[int]]:
    """Reduced row echelon form; returns (new rows, pivot column indices)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
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


def frac_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(frac_rref(rows)[1])


def frac_right_kernel(rows: Sequence[Sequence[Fraction]]) -> list[FracRow]:
    """Basis of {x : A x = 0}, one vector per free column, deterministic."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = frac_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rref[i][fc]
        basis.append(vec)
    return basis


def frac_invert(rows: Sequence[Sequence[Fraction]]) -> list[FracRow]:
    """Inverse of a square rational matrix (raises on singular input)."""
    n = len(rows)
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    rref, pivots = frac_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in rref[:n]]


class RowSolver:
    """Solves x @ G = v repeatedly for a fixed G with independent rows.

    The constructor reduces [G | I] once and keeps integer data only: L / dL,
    the inverse of G on its pivot columns placed on those rows (so v @ L / dL
    is the only candidate x), and C, the integer row-span condition: v lies
    in the row span of G iff v @ C == 0 (C is L G - I scaled to integers,
    keeping only the columns off the pivots, since the others vanish).
    Solves take v as integer numerators over one denominator
    (Scalar.int_coordinates, Vector.int_flat) and need no rational
    arithmetic (H. Cohen, A Course in Computational Algebraic Number Theory,
    GTM 138, section 2.4).
    """

    __slots__ = ("lmat", "dl", "cmat", "_lcols", "_ccols")

    def __init__(self, gmat: Sequence[Sequence[Fraction]]):
        gmat = [[Fraction(x) for x in row] for row in gmat]
        k = len(gmat)
        ncols = len(gmat[0]) if k else 0
        # one reduction of [G | I] gives R = G_P^-1 G on the left and G_P^-1
        # on the right; a pivot on the right means dependent rows
        eye = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        rref, pivots = frac_rref([row + e for row, e in zip(gmat, eye)])
        if any(c >= ncols for c in pivots):
            raise ValueError("rows are not independent")
        free = [c for c in range(ncols) if c not in pivots]
        lrows = [[Fraction(0)] * k for _ in range(ncols)]
        # C = L G - I on the free columns: the rows of R at the pivots, -I off
        crows = [[Fraction(-int(i == j)) for j in free] for i in range(ncols)]
        for a, c in enumerate(pivots):
            lrows[c] = rref[a][ncols:]
            crows[c] = [rref[a][j] for j in free]
        self.lmat, self.dl = int_matrix_and_den(lrows)
        self.cmat = int_matrix_and_den(crows)[0]
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

def int_matrix_and_den(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """(numerator matrix, denominator) with rows = num / den exactly; den is
    the lcm of the entries' denominators."""
    den = lcm(1, *(x.denominator for row in rows for x in row))
    out = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    return out, den


def int_row_echelon(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Echelon Z-basis of the integer row span (unimodular row operations)."""
    mat = [list(map(int, row)) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, nrows):
            while mat[i][col] != 0:
                a, b = mat[r][col], mat[i][col]
                if abs(a) > abs(b):
                    mat[r], mat[i] = mat[i], mat[r]
                    continue
                q = mat[i][col] // mat[r][col]
                mat[i] = [mat[i][j] - q * mat[r][j] for j in range(ncols)]
        if mat[r][col] < 0:
            mat[r] = [-x for x in mat[r]]
        r += 1
    return [row for row in mat[:r]]


def int_hnf(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form (positive pivots, reduced above)."""
    mat = int_row_echelon(rows)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    for row in mat:
        pivots.append(next(c for c in range(ncols) if row[c] != 0))
    for i in range(len(mat) - 1, -1, -1):
        c = pivots[i]
        p = mat[i][c]
        for k in range(i):
            q = mat[k][c] // p
            if q:
                mat[k] = [mat[k][j] - q * mat[i][j] for j in range(ncols)]
    return mat


def int_left_kernel(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Saturated Z-basis of {y in Z^m : y @ mat == 0}."""
    m = len(mat)
    ncols = len(mat[0]) if m else 0
    rows = [list(map(int, mat[i])) + [int(i == j) for j in range(m)]
            for i in range(m)]
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            a, b = rows[r][col], rows[i][col]
            if b == 0:
                continue
            g = gcd(a, b)
            x0, y0 = _xgcd(a, b)
            ag, bg = a // g, b // g
            new_r = [x0 * rows[r][j] + y0 * rows[i][j] for j in range(ncols + m)]
            new_i = [-bg * rows[r][j] + ag * rows[i][j] for j in range(ncols + m)]
            rows[r], rows[i] = new_r, new_i
        r += 1
    return [row[ncols:] for row in rows[r:]]


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


def frac_row_basis_hnf(rows: Sequence[Sequence[Fraction]]) -> tuple[list[FracRow], int]:
    """Z-basis (canonical, HNF-derived) of the Z-row-span of rational rows.

    Returns (basis rows as Fractions, rank).
    """
    if not rows:
        return [], 0
    scaled, den = int_matrix_and_den(rows)
    hnf = int_hnf(scaled)
    basis = [[Fraction(x, den) for x in row] for row in hnf]
    return basis, len(hnf)
