"""The verification engine: orbit calculus on the complex line, lemma-based
witness constructions, counterexample certification, and exhaustive sweeps
reproducing the pass/fail columns of the classification tables.

The complete oracle for a single element is hyperplane-family membership of
its fixed space (see hyperplanes.py); the lemma constructions are redundant
cross-checks.  One walk, _box, enumerates the translation box (all of it, or
a seeded sample past the budget) for the sweep, element_stream and the exact
sweep_exact.

The sweep decides every element through its class.  Conjugation by a
translation s, (sigma, t) -> (sigma, t + (1 - sigma) s), and by tau in G,
(sigma, t) -> (tau sigma tau^-1, tau t), preserves the arrangement, so the
outcome is a property of the class, and each class the box meets is decided
once by the exact oracle.  On integer lattice coefficients, the linear part
gives way to the first element sigma0 of its conjugacy class and the
translation to its class under the Hermite form of 1 - sigma0 (H. Cohen,
GTM 138, section 2.4; G. I. Lehrer and D. E. Taylor, Unitary Reflection
Groups, ch. 2).  Flagged violations are re-verified element by element,
and an int64 step whose entries could reach 2**62 raises CrystrefError.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .affine import (AffineMap, Monomial, Vector, fixed_space,
                     has_finite_order, is_central_reflection)
from .catalog import GroupId, GroupSpec, build_group, catalog_ids
from .errors import ExpectedPositiveGroup, NotAMember, CrystrefError
from .hyperplanes import (Witness, family_index, off_arrangement_point,
                          point_on_arrangement, subspace_mirror,
                          subspace_on_arrangement, witness_reflection)
from .lattices import ScalarModule
from .scalars import Ring, Scalar

NO_FIXED_POINT = "no_fixed_point"
REFLECTION_POWER = "reflection_power"
ON_HYPERPLANE = "on_hyperplane"
VIOLATION = "violation"


@dataclass
class ElementVerdict:
    element: AffineMap
    outcome: str
    witness: Optional[Witness] = None
    fixed_point: Optional[Vector] = None

    def to_dict(self) -> dict:
        out = {"element": self.element.text(), "outcome": self.outcome}
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        if self.fixed_point is not None:
            out["fixed_point"] = [x.text() for x in self.fixed_point.coords]
        return out


# -- orbits of rank-1 groups on the complex line -----------------------------

def orbit_equiv(ring: Ring, module: ScalarModule, z: Scalar,
                w: Scalar) -> Optional[int]:
    """Least m in [0, r) with z - xi^m w in the module, or None.

    This is orbit equivalence under the rank-1 group <xi> x| module acting on
    the scalar line (when the module is xi-stable)."""
    for m in range(ring.r):
        if module.contains(z - ring.root(m) * w):
            return m
    return None


def orbit_classes(ring: Ring, module: ScalarModule,
                  points: Sequence[Scalar]) -> list[list[Scalar]]:
    """Partition of the points under the orbit relation, transitively closed
    within the set; classes keep first-seen order."""
    points = list(points)
    parent = list(range(len(points)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if find(i) == find(j):
                continue
            if orbit_equiv(ring, module, points[i], points[j]) is not None:
                parent[find(j)] = find(i)
    classes: dict[int, list[Scalar]] = {}
    for i, pt in enumerate(points):
        classes.setdefault(find(i), []).append(pt)
    return [classes[k] for k in sorted(classes, key=lambda k: k)]


# -- lemma-based witness constructions ---------------------------------------

def _difference_witness(spec: GroupSpec, j0: int, k0: int, m: int,
                        constant: Scalar) -> Optional[Witness]:
    """Witness for the hyperplane x_{j0} - xi^m x_{k0} = constant (1-indexed,
    any order of j0, k0); returns None when the constant is not admissible."""
    ring = spec.ring
    if j0 > k0:
        # x_j - xi^m x_k = c  <=>  x_k - xi^-m x_j = -xi^-m c
        j0, k0 = k0, j0
        constant = -ring.root(-m) * constant
        m = (-m) % ring.r
    fam = family_index(spec).get(("d", j0, k0, m))
    if fam is None:
        return None
    branch = fam.admits(constant)
    if branch is None:
        return None
    refl = witness_reflection(spec, fam, branch, constant)
    return Witness(refl, fam, branch, constant)


def witness_from_cycle(spec: GroupSpec, g: AffineMap) -> Optional[Witness]:
    """Witness construction for elements whose linear part carries a cycle of
    weight product one (the symmetric-group case): a fixed vector satisfies
    x_b - xi^e x_a = t_b along any cycle edge, and the corresponding weighted
    transposition lies in W whenever the lattice admits its translation."""
    if not has_finite_order(g):
        return None
    for nodes, exps in g.lin.cycles():
        if len(nodes) < 2 or sum(exps) % spec.ring.r != 0:
            continue
        for i, a in enumerate(nodes):
            b = nodes[(i + 1) % len(nodes)]
            wit = _difference_witness(spec, b + 1, a + 1, exps[i],
                                      g.tran[b])
            if wit is not None:
                return wit
    return None


def witness_from_conditions(spec: GroupSpec, g: AffineMap) -> Optional[Witness]:
    """Witnesses for diagonal elements g = diag(lam_j) + t, read from the
    fixed point x of g (x_j = t_j / (1 - lam_j) where lam_j != 1), trying
    the three lattice conditions in order.  As g^p(v) = lam^p (v - x) + x,
    Tran(g^p) = (1 - lam^p) x, and:
    (1) when g^p != 1, some (1 - lam_j^p) x_j e_1 lies in the lattice and
        x_j is a constant of the coordinate mirror x_j of eigenvalue lam_j^p;
    (2) when g^p = 1 (every lam_j^p = 1, p != r), some x_j e_1 lies in the
        lattice and x_j is a constant of the mirror x_j of eigenvalue xi^p;
    (3) two coordinates x_j, x_l are orbit-equivalent under the rank-1 group
        on the line (requires invariance under the full G(r,1,n))."""
    if not g.lin.is_diagonal():
        return None
    ring = spec.ring
    r, p = spec.id.r, spec.id.p
    exps = g.lin.exps
    if not any(e % r for e in exps):
        return None
    space = fixed_space(g)
    if space.is_empty:
        return None
    x = {j: space.base[j - 1] for j in range(1, spec.n + 1)
         if exps[j - 1] % r}
    fams = family_index(spec)
    one = ring.one()

    def coordinate_witness(j: int, eigen_exp: int) -> Optional[Witness]:
        fam = fams.get(("c", j))
        if fam is None:
            return None
        lam = ring.root(eigen_exp)
        for branch in fam.branches:
            if branch.eigenvalue == lam and branch.constants.contains(x[j]):
                refl = witness_reflection(spec, fam, branch, x[j])
                return Witness(refl, fam, branch, x[j])
        return None

    e1 = Vector.basis(ring, spec.n, 1)
    if p != r:
        if any(p * e % r for e in exps):
            # condition (1)
            for j in x:
                pe = p * exps[j - 1]
                if pe % r == 0:
                    continue
                beta = (one - ring.root(pe)) * x[j]
                if spec.lattice.contains(e1.scale(beta)):
                    wit = coordinate_witness(j, pe)
                    if wit is not None:
                        return wit
        else:
            # condition (2)
            for j in x:
                if spec.lattice.contains(e1.scale(x[j])):
                    # the translation (1 - xi^p) x_j e_j stays in the lattice
                    tr = Vector.basis(ring, spec.n, j).scale(
                        (one - ring.root(p)) * x[j])
                    if not spec.lattice.contains(tr):
                        raise CrystrefError(
                            "condition (2) translation escaped the lattice")
                    wit = coordinate_witness(j, p)
                    if wit is not None:
                        return wit
    # condition (3)
    if spec.n >= 2 and spec.invariant_under_full_group():
        mod = spec.orbit_module()
        for j, l in combinations(x, 2):
            m = orbit_equiv(ring, mod, x[j], x[l])
            if m is None:
                continue
            delta = x[j] - ring.root(m) * x[l]
            wit = _difference_witness(spec, j, l, m, delta)
            if wit is not None:
                return wit
    return None


# -- the per-element oracle ---------------------------------------------------

def _is_reflection_power(sigma: Monomial) -> bool:
    """True iff some power g^k (1 <= k <= order of sigma) of an element g
    with linear part sigma is a reflection.  Precondition: g has a fixed
    point (verify_element asks only then).  That point is fixed by every
    g^k, so g^k is a reflection iff sigma^k is a central reflection."""
    step = Monomial.identity(sigma.ring, sigma.n)
    for _ in range(sigma.order()):
        step = step * sigma
        if is_central_reflection(step):
            return True
    return False


def verify_element(spec: GroupSpec, g: AffineMap,
                   classify_reflection_power: bool = True) -> ElementVerdict:
    """Complete verdict for one group element (not the identity)."""
    if g.is_identity():
        raise NotAMember("the identity is excluded from verification")
    if not spec.is_member(g):
        raise NotAMember(f"element is not in {spec.name}")
    space = fixed_space(g)
    if space.is_empty:
        return ElementVerdict(g, NO_FIXED_POINT)
    wit = subspace_on_arrangement(spec, space)
    if wit is not None:
        outcome = ON_HYPERPLANE
        if classify_reflection_power and _is_reflection_power(g.lin):
            outcome = REFLECTION_POWER
        return ElementVerdict(g, outcome, witness=wit, fixed_point=space.base)
    # a lone fixed point on no mirror is already off the arrangement
    point = space.base if space.dim == 0 else off_arrangement_point(spec, space)
    return ElementVerdict(g, VIOLATION, fixed_point=point)


# -- the sweep: one exact verdict per translation class ------------------------

_INT64_LIMIT = 2 ** 62


def _colmax(mat: np.ndarray) -> int:
    """Largest column abs-sum, exactly (per matrix for a stack)."""
    return int(np.abs(mat.astype(object)).sum(axis=-2).max(initial=0))


def _guard(bound: int, *mats: np.ndarray) -> None:
    """Refuse the int64 products x @ mat for x with entries in [-bound, bound]
    unless bound * (largest column abs-sum of mat) < 2**62, so that no entry
    of a product can overflow."""
    if bound * max([1] + [_colmax(mat) for mat in mats]) >= _INT64_LIMIT:
        raise CrystrefError(f"sweep products would overflow int64 at bound {bound}")


def _integer_basis(spec: GroupSpec, bound: int) -> tuple[np.ndarray, int]:
    """The lattice's integer Z-basis B over D (Lattice.int_basis) as an int64
    matrix, guarded for coefficient rows with entries in [-bound, bound]."""
    rows, den = spec.lattice.int_basis
    basis = np.array(rows, dtype=object)
    _guard(bound, basis)
    return basis.astype(np.int64), den


def _decode(spec: GroupSpec, basis: np.ndarray, den: int,
            coeffs: np.ndarray) -> list[Vector]:
    """The translations sum_i c_i b_i for the coefficient rows c, exactly: one
    integer product with the basis numerators, each entry over D."""
    return [Vector.from_int_flat(spec.ring, row, den)
            for row in (coeffs @ basis).tolist()]


class _Classes:
    """Translation classes of a linear part sigma0 with coefficient matrix A,
    and their verdicts.  (sigma0, c) has a fixed point iff c @ N == 0, N
    spanning the right kernel of M = I - A; its class is c modulo the rows of
    M: c reduced by the Hermite form H of M, each pivot entry then in
    [0, H_pp), read as one mixed-radix int64.  For entries of c up to reach,
    the kernel product, the reduction and the radix are guarded."""

    def __init__(self, a: list[list[int]], reach: int):
        m = len(a)
        mmat = [[int(i == j) - a[i][j] for j in range(m)] for i in range(m)]
        kernel = np.array(linalg.int_left_kernel(list(zip(*mmat))),
                          dtype=object).reshape(-1, m).T
        _guard(reach, kernel)
        self.kernel = kernel.astype(np.int64)
        hnf = linalg.int_hnf(mmat)
        pivots = [next(j for j, x in enumerate(row) if x) for row in hnf]
        # rows after the last pivot above 1 change no digit, and a digit
        # reads only the pivot columns of the rows above it
        last = max([i + 1 for i, (row, p) in enumerate(zip(hnf, pivots))
                    if row[p] > 1], default=0)
        self.pivots = pivots[:last]
        self.hnf = [[row[p] for p in self.pivots] for row in hnf[:last]]
        self.radix = [1]
        for i, row in enumerate(self.hnf):
            reach += (reach // row[i] + 1) * max(map(abs, row))
            self.radix.append(self.radix[-1] * row[i])
            if max(reach, self.radix[-1]) >= _INT64_LIMIT:
                raise CrystrefError("class reduction would overflow int64")
        self.verdicts: dict[int, bool] = {}

    def keys(self, coeffs: np.ndarray) -> np.ndarray:
        x = [coeffs[:, p] for p in self.pivots]
        key = np.zeros(len(coeffs), dtype=np.int64)
        for i, (row, radix) in enumerate(zip(self.hnf, self.radix)):
            quotient, digit = np.divmod(x[i], row[i])
            key += digit * radix
            for j in range(i + 1, len(x)):
                if row[j]:
                    x[j] = x[j] - quotient * row[j]
        return key


def _coefficient_matrix(spec: GroupSpec, h: Monomial) -> list[list[int]]:
    """A_h, the matrix of h on lattice coefficients: h t has coefficients
    c @ A_h, one lattice solve per basis vector."""
    lat = spec.lattice
    return [lat.coefficients(h.apply(b)) for b in lat.zbasis]


class _ClassLookup:
    """One walk over conjugation by the generators: conjugate[sigma] is
    (sigma0, tau^-1, A_{tau^-1}), sigma0 the first element of the G-class of
    sigma and sigma = tau sigma0 tau^-1.  A step y = g x g^-1 carries
    A_{tau^-1 g^-1} = A_{g^-1} @ A_{tau^-1}, exact in int64 while the largest
    A_{tau^-1} entry times a generator's largest row abs-sum stays below
    2**62; A_sigma0 comes from lattice solves, for class representatives
    only."""

    def __init__(self, spec: GroupSpec, bound: int):
        gens = [(g, g.inverse(), np.array(_coefficient_matrix(
                    spec, g.inverse()), dtype=np.int64))
                for g in spec.linear_generators]
        ident = Monomial.identity(spec.ring, spec.n)
        eye = np.eye(spec.lattice.rank, dtype=np.int64)
        self.spec = spec
        self.conjugate: dict[Monomial, tuple] = {}
        for sigma0 in spec.elements_of_linear_part():
            if sigma0 in self.conjugate:
                continue
            self.conjugate[sigma0] = (sigma0, ident, eye)
            queue = [sigma0]
            for x in queue:
                _, tau_inv, a = self.conjugate[x]
                for g, g_inv, a_g_inv in gens:
                    if (y := g * x * g_inv) not in self.conjugate:
                        self.conjugate[y] = (sigma0, tau_inv * g_inv,
                                             a_g_inv @ a)
                        queue.append(y)
        stack = np.stack([a for *_, a in self.conjugate.values()])
        _guard(int(np.abs(stack).max()), *(a.T for *_, a in gens))
        _guard(bound, stack)
        self.reach = bound * _colmax(stack)
        self.classes: dict[Monomial, _Classes] = {}

    def __call__(self, sigma: Monomial) -> tuple[_Classes, np.ndarray]:
        """(classes of sigma0, A_{tau^-1}): (sigma, c) is looked up as
        (sigma0, c @ A_{tau^-1})."""
        sigma0, _, a = self.conjugate[sigma]
        if sigma0 not in self.classes:
            self.classes[sigma0] = _Classes(
                _coefficient_matrix(self.spec, sigma0), self.reach)
        return self.classes[sigma0], a


@dataclass
class SweepReport:
    group: str
    bound: int
    budget: Optional[int]
    grid_total: int
    examined: int
    with_fixed_point: int
    exhaustive: bool
    violations: list[ElementVerdict] = field(default_factory=list)
    violation_count: int = 0
    confirmed_exactly: int = 0
    elapsed_seconds: float = 0.0

    def to_dict(self, max_violations: Optional[int] = None) -> dict:
        shown = self.violations if max_violations is None \
            else self.violations[:max_violations]
        return {
            "group": self.group,
            "bound": self.bound,
            "budget": self.budget,
            "grid_total": self.grid_total,
            "examined": self.examined,
            "with_fixed_point": self.with_fixed_point,
            "exhaustive": self.exhaustive,
            "violation_count": self.violation_count,
            "violations_shown": len(shown),
            "confirmed_exactly": self.confirmed_exactly,
            "violations": [v.to_dict() for v in shown],
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


# rows of the coefficient grid one block of a full sweep holds at most
_CHUNK = 1 << 16
# the seed of the deterministic sample of a grid past the budget
_SEED = 12345
# flagged violations a sweep re-verifies with the exact oracle
_CONFIRM_CAP = 200


def _coefficient_grid(m: int, bound: int, idx) -> np.ndarray:
    """The coefficient rows of the [-bound, bound]^m box at the flat indices
    idx."""
    side = 2 * bound + 1
    idx = np.asarray(idx)
    cols = [(idx // (side ** i)) % side - bound for i in range(m)]
    return np.stack(cols, axis=1).astype(np.int64)


def _sample(total: int, k: int) -> np.ndarray:
    """sorted(random.Random(_SEED).sample(range(total), k)) as int64, for
    0 < k < total <= sys.maxsize.  Past 21 + 4**ceil(log(3k, 4)) cells (the
    power only for k > 5) sample draws getrandbits(total.bit_length()) until
    it has seen k distinct values below total.  numpy's MT19937 replays the
    same Mersenne Twister words from the seeded state: a draw of up to 32
    bits is one word shifted right, one of up to 63 bits two words, the low
    one first and the high one shifted.  Smaller totals keep CPython's pool
    draw."""
    rng = random.Random(_SEED)
    if total <= 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0):
        return np.sort(np.array(rng.sample(range(total), k), dtype=np.int64))
    *key, pos = rng.getstate()[1]
    gen = np.random.MT19937()
    gen.state = {"bit_generator": "MT19937",
                 "state": {"key": np.array(key, dtype=np.uint32), "pos": pos}}
    bits = total.bit_length()
    words = 1 if bits <= 32 else 2
    # the draws k distinct values below total take on average, with margin
    mean = 2 ** bits * -math.log1p(-k / total)
    draws = int(mean + 4 * math.sqrt(mean)) + 64
    values = np.empty(0, dtype=np.uint64)
    while True:
        raw = gen.random_raw(draws * words)
        if words == 1:
            drawn = raw >> (32 - bits)
        else:
            drawn = raw[0::2] | (raw[1::2] >> (64 - bits)) << 32
        values = np.concatenate([values, drawn[drawn < total]])
        distinct, first = np.unique(values, return_index=True)
        if len(distinct) >= k:
            last = np.partition(first, k - 1)[k - 1]
            return distinct[first <= last].astype(np.int64)
        # a draw adds a new value with chance above (total - k) / 2**bits
        draws = 2 * (k - len(distinct)) * 2 ** bits // (total - k) + 64


def _box(spec: GroupSpec, bound: int, budget: Optional[int]):
    """The one walk over the (sigma, t) grid, t in the [-bound, bound]
    coefficient box of the lattice basis: (grid_total, exhaustive, walk),
    where walk yields (sigma, blocks of coefficient rows) in flat-index
    order.  Past the budget it walks a deterministic uniform sample of
    exactly `budget` cells, each linear part's block built when the walk
    reaches it; otherwise blocks of at most _CHUNK rows, or one block built
    once when a linear part's grid fits in one.  Grids past sys.maxsize
    elements are refused: the sample is drawn in int64."""
    if bound < 0:
        raise CrystrefError(f"the bound must be at least 0, not {bound}")
    if budget is not None and budget < 1:
        raise CrystrefError(f"the budget must be at least 1, not {budget}")
    sigmas = spec.elements_of_linear_part()
    m = spec.lattice.rank
    per_sigma = (2 * bound + 1) ** m
    grid_total = per_sigma * len(sigmas)
    if grid_total > sys.maxsize:
        raise CrystrefError(f"the grid of {grid_total} elements is too large "
                            "to sweep or sample")
    if budget is not None and grid_total > budget:
        flat = _sample(grid_total, budget)
        # the sorted sample, cut wherever the linear part changes
        part, cell = np.divmod(flat, per_sigma)
        cuts = np.flatnonzero(np.diff(part)) + 1
        return grid_total, False, (
            (sigmas[si[0]], [_coefficient_grid(m, bound, idx)])
            for si, idx in zip(np.split(part, cuts), np.split(cell, cuts)))

    def chunks():
        for lo in range(0, per_sigma, _CHUNK):
            yield _coefficient_grid(m, bound, np.arange(
                lo, min(lo + _CHUNK, per_sigma)))

    single = list(chunks()) if per_sigma <= _CHUNK else None
    return grid_total, True, ((sigma, single or chunks()) for sigma in sigmas)


def sweep(spec: GroupSpec, bound: int = 1,
          budget: Optional[int] = None) -> SweepReport:
    """Iterate over the (sigma, t) box that _box walks; record every
    violation of the Steinberg property.  An element (sigma, c) is looked up
    as (sigma0, c @ A_{tau^-1}) among the translation classes of its
    conjugacy class representative sigma0, and each class's verdict is
    decided once, by fixed_space and subspace_mirror on its first box
    element.  The first _CONFIRM_CAP flagged violations are re-verified with
    the exact oracle."""
    start = time.perf_counter()
    grid_total, exhaustive, walk = _box(spec, bound, budget)
    basis, den = _integer_basis(spec, bound)
    lookup = _ClassLookup(spec, bound)
    examined = with_fp = confirmed = 0
    violations: list[ElementVerdict] = []
    for sigma, blocks in walk:
        cls, a = lookup(sigma)
        for grid in blocks:
            examined += len(grid)
            coeffs = grid @ a
            fixed = (coeffs @ cls.kernel == 0).all(axis=1)
            if sigma.is_identity():
                fixed &= grid.any(axis=1)
            rows = np.flatnonzero(fixed)
            with_fp += len(rows)
            if not len(rows):
                continue
            keys, first, where = np.unique(cls.keys(coeffs[rows]),
                                           return_index=True,
                                           return_inverse=True)
            keys = keys.tolist()
            new = [i for i, key in enumerate(keys) if key not in cls.verdicts]
            for i, t in zip(new, _decode(spec, basis, den,
                                         grid[rows[first[new]]])):
                space = fixed_space(AffineMap(sigma, t))
                cls.verdicts[keys[i]] = subspace_mirror(spec, space) is None
            bad = rows[np.array([cls.verdicts[key] for key in keys])[where]]
            for t in _decode(spec, basis, den, grid[bad]):
                g = AffineMap(sigma, t)
                if confirmed < _CONFIRM_CAP:
                    verdict = verify_element(spec, g,
                                             classify_reflection_power=False)
                    if verdict.outcome != VIOLATION:
                        raise CrystrefError("class verdict disagreed with the "
                                            f"exact oracle on {g.text()}")
                    confirmed += 1
                    violations.append(verdict)
                else:
                    violations.append(ElementVerdict(g, VIOLATION))
    return SweepReport(
        group=spec.name, bound=bound, budget=budget, grid_total=grid_total,
        examined=examined, with_fixed_point=with_fp,
        exhaustive=exhaustive, violations=violations,
        violation_count=len(violations), confirmed_exactly=confirmed,
        elapsed_seconds=time.perf_counter() - start)


def element_stream(spec: GroupSpec, bound: int = 1,
                   budget: Optional[int] = None, lin_filter=None):
    """Yield the exact (sigma, t) elements a sweep with the same parameters
    examines, in the same deterministic order (identity excluded).  A
    lin_filter predicate skips whole linear parts without decoding their
    translations."""
    _, _, walk = _box(spec, bound, budget)
    basis, den = _integer_basis(spec, bound)
    last = translations = None
    for sigma, blocks in walk:
        if lin_filter is not None and not lin_filter(sigma):
            continue
        for grid in blocks:
            if grid is not last:     # a block shared by every sigma decodes once
                last, translations = grid, _decode(spec, basis, den, grid)
            for t in translations:
                g = AffineMap(sigma, t)
                if not g.is_identity():
                    yield g


def sweep_exact(spec: GroupSpec, bound: int = 1) -> SweepReport:
    """Reference sweep: the exact per-element oracle over the full box,
    counted as sweep counts it.  Slow; used by tests to pin the fast path."""
    start = time.perf_counter()
    grid_total = _box(spec, bound, None)[0]
    with_fp = 0
    violations = []
    for g in element_stream(spec, bound):
        verdict = verify_element(spec, g, classify_reflection_power=False)
        with_fp += verdict.outcome != NO_FIXED_POINT
        if verdict.outcome == VIOLATION:
            violations.append(verdict)
    return SweepReport(
        group=spec.name, bound=bound, budget=None, grid_total=grid_total,
        examined=grid_total, with_fixed_point=with_fp, exhaustive=True,
        violations=violations, violation_count=len(violations),
        confirmed_exactly=len(violations),
        elapsed_seconds=time.perf_counter() - start)


# -- counterexample certification ---------------------------------------------

def check_counterexample(spec) -> dict:
    """Exact certification that the tabulated element of a failing group fixes
    a point off the arrangement: verify_element must find it a violation, and
    its off-arrangement point is checked once more.  Raises CrystrefError
    naming the group when either fails."""
    if isinstance(spec, (str, GroupId)):
        spec = build_group(spec)
    if spec.expected_steinberg:
        raise ExpectedPositiveGroup(f"{spec.name} is expected to satisfy the "
                                    "fixed point property")
    g = spec.counterexample
    if g is None:
        raise CrystrefError(f"{spec.name} has no tabulated counterexample")
    verdict = verify_element(spec, g)
    if verdict.outcome != VIOLATION:
        raise CrystrefError(f"{spec.name}: counterexample is not a violation "
                            f"({verdict.outcome})")
    pt = verdict.fixed_point
    if point_on_arrangement(spec, pt) is not None:
        raise CrystrefError(f"{spec.name}: witness point lies on the arrangement")
    report = {
        "group": spec.name,
        "element": g.text(),
        "member": True,
        "fixed_space_dimension": fixed_space(g).dim,
        "fixed_point": [x.text() for x in pt.coords],
        "off_arrangement": True,
        "passed": True,
    }
    if (not spec.id.uses_alpha) and spec.id.p == spec.id.r and spec.n == 3:
        # the r = p rows: the three fixed-point coordinates lie in pairwise
        # distinct orbits of the rank-1 group <xi> x| Z[xi] on the line
        ring = spec.ring
        zxi = ScalarModule(ring, [ring.one(), ring.xi()])
        coords = list(pt.coords)
        pairs = []
        for a in range(3):
            for b in range(a + 1, 3):
                mres = orbit_equiv(ring, zxi, coords[a], coords[b])
                if mres is not None:
                    raise CrystrefError(
                        f"{spec.name}: coordinates {a + 1}, {b + 1} are orbit-"
                        f"equivalent (m = {mres})")
                pairs.append([a + 1, b + 1])
        report["orbit_inequivalent_pairs"] = pairs
    return report


# -- the full verdict table ----------------------------------------------------

def full_table_report(bound: int = 1,
                      budget: Optional[int] = 200_000) -> dict:
    """Recompute the pass/fail column for every catalog row at its smallest
    tabulated dimension: failing rows are certified exactly through their
    counterexamples, passing rows through violation-free sweeps, and every row
    is swept for evidence."""
    start = time.perf_counter()

    def run_row(gid: GroupId) -> dict:
        spec = build_group(gid)
        rep = sweep(spec, bound=bound, budget=budget)
        row = {
            "group": spec.name,
            "n": spec.n,
            "expected": spec.expected_steinberg,
            "sweep": rep.to_dict(max_violations=3),
        }
        if spec.expected_steinberg:
            row["computed"] = rep.violation_count == 0
            row["method"] = "sweep"
        else:
            try:
                cc = check_counterexample(spec)
            except CrystrefError as exc:
                cc = {"passed": False, "error": str(exc)}
            row["computed"] = not cc["passed"]
            row["method"] = "counterexample"
            row["counterexample"] = cc
        row["match"] = row["computed"] == row["expected"]
        return row

    rows = [run_row(gid) for gid in catalog_ids()]
    return {
        "bound": bound,
        "budget": budget,
        "rows": rows,
        "all_match": all(r["match"] for r in rows),
        "elapsed_seconds": round(time.perf_counter() - start, 3),
    }
