"""Monomial matrices, affine maps g(v) = Lin(g) v + Tran(g), and their
structural predicates: finite order, reflection tests, exact fixed spaces.

Linear parts are always monomial (permutation + root-of-unity weights stored
as exponents), so (1 - Lin) v = t splits into independent cycles: fixed spaces
and the reflection test are solved cycle by cycle, with no elimination.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, EmptySubspace, RingMismatch
from .scalars import Ring, Scalar


class Vector:
    """Point/translation in C^n with exact scalar coordinates."""

    __slots__ = ("ring", "coords", "_hash")

    def __init__(self, ring: Ring, coords: Iterable[Scalar]):
        coords = tuple(coords)
        for x in coords:
            if x.ring is not ring:
                raise RingMismatch("vector coordinates from a different ring")
        self.ring = ring
        self.coords = coords
        self._hash = None

    @classmethod
    def zero(cls, ring: Ring, n: int) -> "Vector":
        return cls(ring, [ring.zero()] * n)

    @classmethod
    def basis(cls, ring: Ring, n: int, j: int) -> "Vector":
        """Standard basis vector e_j (1-indexed)."""
        coords = [ring.zero()] * n
        coords[j - 1] = ring.one()
        return cls(ring, coords)

    @property
    def n(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Scalar:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.ring, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.ring, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Vector":
        return Vector(self.ring, [-a for a in self.coords])

    def scale(self, s: Scalar) -> "Vector":
        return Vector(self.ring, [s * a for a in self.coords])

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.coords)

    def int_flat(self) -> tuple[tuple[int, ...], int]:
        """(numerators, den): the rational coordinates of every entry,
        coordinate-major (n * flat_width of them), as integers over the lcm
        of the entries' denominators."""
        parts = [x.int_coordinates() for x in self.coords]
        den = lcm(1, *(e for _, e in parts))
        return tuple(v * (den // e) for nums, e in parts for v in nums), den

    @classmethod
    def from_int_flat(cls, ring: Ring, nums: Sequence[int], den: int) -> "Vector":
        """Inverse of int_flat: entries from numerators over den."""
        w = ring.flat_width
        pad = [0] * (4 - w)
        return cls(ring, [Scalar._raw(ring, *nums[i:i + w], *pad, den)
                          for i in range(0, len(nums), w)])

    def _check(self, other: "Vector") -> None:
        if not isinstance(other, Vector):
            raise TypeError("expected a Vector")
        if other.ring is not self.ring:
            raise RingMismatch("vectors from different rings")
        if other.n != self.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return (self.ring is other.ring and self.coords == other.coords)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring.r, self.ring.alpha, self.coords))
        return self._hash

    def text(self) -> str:
        return "(" + ", ".join(x.text() for x in self.coords) + ")"

    __str__ = text

    def __repr__(self) -> str:
        return f"Vector{self.text()}"


class Monomial:
    """Monomial matrix: e_j maps to xi^exps[j] * e_perm[j] (0-indexed storage).

    Weights are r-th roots of unity stored as exponents, so products and
    inverses never leave the group and orders read off the cycle structure.
    """

    __slots__ = ("ring", "perm", "exps", "_hash", "_cycles")

    def __init__(self, ring: Ring, perm: Sequence[int], exps: Sequence[int]):
        perm = tuple(perm)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
        if len(exps) != n:
            raise DimensionMismatch("one weight exponent per column required")
        self.ring = ring
        self.perm = perm
        self.exps = tuple(e % ring.r for e in exps)
        self._hash = None
        self._cycles = None

    @classmethod
    def _raw(cls, ring: Ring, perm: tuple, exps: tuple) -> "Monomial":
        """Fast path for products: a permutation tuple, exps reduced mod r."""
        m = object.__new__(cls)
        m.ring, m.perm, m.exps, m._hash, m._cycles = ring, perm, exps, None, None
        return m

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Monomial":
        return cls(ring, range(n), [0] * n)

    @classmethod
    def diagonal(cls, ring: Ring, exps: Sequence[int]) -> "Monomial":
        return cls(ring, range(len(exps)), exps)

    @classmethod
    def from_cycles(cls, ring: Ring, n: int, cycles: Sequence[Sequence[int]],
                    exps: Optional[Sequence[int]] = None) -> "Monomial":
        """Permutation from 1-indexed cycles, with optional diagonal exponents."""
        perm = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                perm[a - 1] = b - 1
        return cls(ring, perm, exps if exps is not None else [0] * n)

    @property
    def n(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.n)) and not any(self.exps)

    def is_diagonal(self) -> bool:
        return self.perm == tuple(range(self.n))

    def weight(self, j: int) -> Scalar:
        """The scalar weight on column j (0-indexed)."""
        return self.ring.root(self.exps[j])

    def __mul__(self, other: "Monomial") -> "Monomial":
        """Matrix product self @ other."""
        if not isinstance(other, Monomial):
            return NotImplemented
        if other.ring is not self.ring:
            raise RingMismatch("monomials from different rings")
        if len(other.perm) != len(self.perm):
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        perm, exps, r = self.perm, self.exps, self.ring.r
        return Monomial._raw(self.ring, tuple([perm[k] for k in other.perm]),
                             tuple([(e + exps[k]) % r
                                    for e, k in zip(other.exps, other.perm)]))

    def inverse(self) -> "Monomial":
        n = self.n
        perm = [0] * n
        exps = [0] * n
        for j in range(n):
            perm[self.perm[j]] = j
            exps[self.perm[j]] = -self.exps[j]
        return Monomial(self.ring, perm, exps)

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            return self.inverse() ** (-k)
        out = Monomial.identity(self.ring, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def apply(self, v: Vector) -> Vector:
        if v.n != self.n:
            raise DimensionMismatch(f"{self.n} vs {v.n}")
        coords = [self.ring.zero()] * self.n
        for j in range(self.n):
            coords[self.perm[j]] = self.ring.root(self.exps[j]) * v[j]
        return Vector(self.ring, coords)

    def cycles(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Cycle decomposition: (nodes, edge exponents); nodes 0-indexed, the
        exponent at position i weights the edge nodes[i] -> nodes[i+1].
        Computed once; tuples, so no caller can change the cached value."""
        if self._cycles is None:
            seen = [False] * self.n
            out = []
            for start in range(self.n):
                if seen[start]:
                    continue
                nodes = []
                cur = start
                while not seen[cur]:
                    seen[cur] = True
                    nodes.append(cur)
                    cur = self.perm[cur]
                out.append((tuple(nodes), tuple(self.exps[v] for v in nodes)))
            self._cycles = tuple(out)
        return self._cycles

    def weight_exponent_sum(self) -> int:
        return sum(self.exps) % self.ring.r

    def order(self) -> int:
        r = self.ring.r
        order = 1
        for nodes, exps in self.cycles():
            length = len(nodes)
            prod = sum(exps) % r
            # cycle^length is scalar xi^prod on the block
            scalar_order = r // gcd(r, prod) if prod else 1
            order = lcm(order, length * scalar_order)
        return order

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return (self.ring is other.ring and self.perm == other.perm
                and self.exps == other.exps)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring.r, self.perm, self.exps))
        return self._hash

    def cycle_text(self) -> str:
        parts = []
        for nodes, _ in self.cycles():
            if len(nodes) > 1:
                parts.append("(" + " ".join(str(v + 1) for v in nodes) + ")")
        return "".join(parts) if parts else "()"

    def text(self) -> str:
        weights = ", ".join(self.ring.root(e).text() for e in self.exps)
        return f"perm={self.cycle_text()} weights=[{weights}]"

    def __repr__(self) -> str:
        return f"Monomial({self.text()})"


class AffineMap:
    """g(v) = lin(v) + tran."""

    __slots__ = ("lin", "tran", "_hash")

    def __init__(self, lin: Monomial, tran: Vector):
        if tran.ring is not lin.ring:
            raise RingMismatch("linear and translation parts from different rings")
        if tran.n != lin.n:
            raise DimensionMismatch("linear and translation dimensions differ")
        self.lin = lin
        self.tran = tran
        self._hash = None

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "AffineMap":
        return cls(Monomial.identity(ring, n), Vector.zero(ring, n))

    @classmethod
    def translation(cls, tran: Vector) -> "AffineMap":
        return cls(Monomial.identity(tran.ring, tran.n), tran)

    @classmethod
    def linear(cls, lin: Monomial) -> "AffineMap":
        return cls(lin, Vector.zero(lin.ring, lin.n))

    @property
    def ring(self) -> Ring:
        return self.lin.ring

    @property
    def n(self) -> int:
        return self.lin.n

    def apply(self, v: Vector) -> Vector:
        return self.lin.apply(v) + self.tran

    def __call__(self, v: Vector) -> Vector:
        return self.apply(v)

    def is_identity(self) -> bool:
        return self.lin.is_identity() and self.tran.is_zero()

    def inverse(self) -> "AffineMap":
        inv = self.lin.inverse()
        return AffineMap(inv, -inv.apply(self.tran))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineMap):
            return NotImplemented
        return self.lin == other.lin and self.tran == other.tran

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.lin, self.tran))
        return self._hash

    def text(self) -> str:
        return f"{self.lin.text()} tran={self.tran.text()}"

    def __repr__(self) -> str:
        return f"AffineMap({self.text()})"


def compose(g: AffineMap, h: AffineMap) -> AffineMap:
    """The map v -> g(h(v)); Lin = Lin(g)Lin(h), Tran = Lin(g)Tran(h) + Tran(g)."""
    if g.n != h.n:
        raise DimensionMismatch(f"{g.n} vs {h.n}")
    return AffineMap(g.lin * h.lin, g.lin.apply(h.tran) + g.tran)


def power(g: AffineMap, k: int) -> AffineMap:
    """k-fold composition (negative k through the inverse)."""
    if k < 0:
        return power(g.inverse(), -k)
    out = AffineMap.identity(g.ring, g.n)
    base = g
    while k:
        if k & 1:
            out = compose(out, base)
        base = compose(base, base)
        k >>= 1
    return out


class AffineSubspace:
    """Affine subspace: base point plus independent directions, or EMPTY."""

    __slots__ = ("base", "directions")

    def __init__(self, base: Optional[Vector], directions: Sequence[Vector] = ()):
        self.base = base
        self.directions = tuple(directions)

    @property
    def is_empty(self) -> bool:
        return self.base is None

    @property
    def dim(self) -> int:
        if self.is_empty:
            raise EmptySubspace("empty subspace has no dimension")
        return len(self.directions)

    def point(self) -> Vector:
        if self.is_empty:
            raise EmptySubspace("empty subspace has no points")
        return self.base

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineSubspace):
            return NotImplemented
        return self.base == other.base and self.directions == other.directions

    def __repr__(self) -> str:
        if self.is_empty:
            return "AffineSubspace(EMPTY)"
        dirs = ", ".join(d.text() for d in self.directions)
        return f"AffineSubspace(base={self.base.text()}, directions=[{dirs}])"


EMPTY = AffineSubspace(None)


def _turn(ring: Ring, e: int, x: Scalar) -> Scalar:
    """xi^e * x, without the product when it is trivial."""
    return x if e % ring.r == 0 or x.is_zero() else ring.root(e) * x


def fixed_space(g: AffineMap) -> AffineSubspace:
    """Solutions of (1 - Lin(g)) v = Tran(g), exactly, cycle by cycle.

    Along a cycle n_0 -> n_1 -> ... of Lin(g) a fixed point satisfies
    v[n_{i+1}] = xi^e_i v[n_i] + t[n_{i+1}], so v[n_i] = xi^acc_i v[n_0] + s_i
    with s_0 = 0.  Going round once gives (1 - xi^S) v[n_0] = wrap.  When the
    weight product xi^S is not 1 this fixes v[n_0]; otherwise wrap must vanish
    and the cycle contributes one direction.  The result is the one the
    reduced row echelon form of the dense system gives: on each free cycle
    the largest node is 0 in the base point, each direction is 1 at its
    cycle's smallest node, and directions follow their largest nodes.
    """
    ring = g.ring
    r = ring.r
    zero = ring.zero()
    tran = g.tran.coords

    base = [zero] * g.n
    free = []
    for nodes, exps in g.lin.cycles():
        svals = [zero]
        accs = [0]
        for e, node in zip(exps, nodes[1:]):
            svals.append(_turn(ring, e, svals[-1]) + tran[node])
            accs.append(accs[-1] + e)
        wrap = _turn(ring, exps[-1], svals[-1]) + tran[nodes[0]]
        total = (accs[-1] + exps[-1]) % r
        if total:
            start = wrap * (ring.one() - ring.root(total)).inverse()
            for node, a, sv in zip(nodes, accs, svals):
                base[node] = _turn(ring, a, start) + sv
            continue
        if not wrap.is_zero():
            return EMPTY
        last, first = nodes.index(max(nodes)), nodes.index(min(nodes))
        direction = [zero] * g.n
        for node, a, sv in zip(nodes, accs, svals):
            base[node] = sv - _turn(ring, a - accs[last], svals[last])
            direction[node] = ring.root(a - accs[first])
        free.append((nodes[last], Vector(ring, direction)))
    free.sort(key=lambda item: item[0])
    return AffineSubspace(Vector(ring, base), [d for _, d in free])


def is_central_reflection(m: Monomial) -> bool:
    """True iff rank(1 - m) == 1: each cycle of weight product 1 adds one
    dimension to the fixed space of m, and every other cycle none."""
    r = m.ring.r
    ones = sum(1 for _, exps in m.cycles() if sum(exps) % r == 0)
    return m.n - ones == 1


def has_finite_order(g: AffineMap) -> bool:
    """Finite order iff the fixed space is nonempty (the linear part has
    finite order automatically), decided cycle by cycle without building it:
    (1 - Lin(g)) v = Tran(g) always solves on a cycle of nontrivial weight
    product, and on one of weight product one iff its translation, carried
    once around the cycle from its first node, sums to zero."""
    ring = g.ring
    for nodes, exps in g.lin.cycles():
        if sum(exps) % ring.r:
            continue
        s = g.tran[nodes[0]]
        for e, node in zip(exps, nodes[1:]):
            s = _turn(ring, e, s) + g.tran[node]
        if not s.is_zero():
            return False
    return True


def is_reflection(g: AffineMap) -> bool:
    """Affine reflection test: a fixed point exists and the linear part is a
    central reflection."""
    return is_central_reflection(g.lin) and has_finite_order(g)


def subspace_satisfies_form(space: AffineSubspace, form, constant: Scalar) -> bool:
    """True iff the form is identically `constant` on the subspace: it takes
    the value at the base point and vanishes on every direction."""
    if space.is_empty:
        raise EmptySubspace("cannot evaluate a form on the empty subspace")
    if form.evaluate(space.base) != constant:
        return False
    return all(form.evaluate(d).is_zero() for d in space.directions)
