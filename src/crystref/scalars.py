"""Exact scalar arithmetic in Q(xi_r), optionally extended by a formal parameter.

xi_r is a primitive r-th root of unity for r in {1, 2, 3, 4, 6}; the quadratic
cases reduce xi^2 through the minimal relation of the ring, and r = 1, 2 fold
xi into the rational part.  The formal parameter ``al`` (rendered ``al`` in
text form) is transcendental: values are degree <= 1 polynomials in it, and no
operation in the library ever multiplies two scalars that both carry a formal
part.

A scalar is stored as integer numerators over one positive denominator, in
lowest terms, so equality is a comparison of fields and every operation is
integer arithmetic with one gcd per result (H. Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, section 2.4).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

from .errors import AlphaNotInvertible, AlphaSquared, DivisionByZero, RingMismatch

RationalLike = Union[int, Fraction]

# minimal relation xi^2 = u*xi + v for the genuinely quadratic rings
_REDUCTION = {3: (-1, -1), 4: (0, -1), 6: (1, -1)}
# for r = 1, 2 the root of unity is rational and is folded away
_FOLDED = {1: 1, 2: -1}

_RING_CACHE: dict[tuple[int, bool], "Ring"] = {}


class Ring:
    """Ring tag: the order r of the root of unity and whether the formal
    parameter is in play.  Instances are interned, one per (r, alpha)."""

    __slots__ = ("r", "alpha", "_roots")

    def __new__(cls, r: int, alpha: bool = False) -> "Ring":
        key = (r, bool(alpha))
        ring = _RING_CACHE.get(key)
        if ring is None:
            if r not in (1, 2, 3, 4, 6):
                raise ValueError(f"unsupported root-of-unity order r={r}")
            ring = object.__new__(cls)
            ring.r = r
            ring.alpha = bool(alpha)
            ring._roots = None
            _RING_CACHE[key] = ring
        return ring

    def __repr__(self) -> str:
        return f"Ring(r={self.r}, alpha={self.alpha})"

    def __reduce__(self):
        return (Ring, (self.r, self.alpha))

    @property
    def is_quadratic(self) -> bool:
        return self.r in _REDUCTION

    @property
    def flat_width(self) -> int:
        """Length of coordinate vectors (uniform 2 without, 4 with parameter)."""
        return 4 if self.alpha else 2

    def scalar(self, a: RationalLike = 0, b: RationalLike = 0,
               c: RationalLike = 0, d: RationalLike = 0) -> "Scalar":
        return Scalar(self, a, b, c, d)

    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def rational(self, q: RationalLike) -> "Scalar":
        return Scalar(self, q)

    def xi(self) -> "Scalar":
        return Scalar(self, 0, 1)

    def formal(self) -> "Scalar":
        """The formal parameter as a scalar (requires an alpha ring)."""
        if not self.alpha:
            raise RingMismatch("ring carries no formal parameter")
        return Scalar(self, 0, 0, 1)

    def root(self, m: int) -> "Scalar":
        """xi^m reduced to a + b*xi form; m is taken mod r."""
        if self._roots is None:
            roots = [Scalar(self, 1)]
            xi = self.xi()
            for _ in range(self.r - 1):
                roots.append(roots[-1] * xi)
            self._roots = tuple(roots)
        return self._roots[m % self.r]

    def basis_scalars(self) -> tuple["Scalar", ...]:
        """A Q-basis of the scalar space: 1 and xi when the ring is
        quadratic, each also times the formal parameter when it is in play."""
        basis = [self.one()]
        if self.is_quadratic:
            basis.append(self.xi())
        if self.alpha:
            basis.extend(s * self.formal() for s in list(basis))
        return tuple(basis)

    def from_coordinates(self, coords: Sequence[RationalLike]) -> "Scalar":
        """Inverse of Scalar.coordinates()."""
        if len(coords) != self.flat_width:
            raise RingMismatch(
                f"expected {self.flat_width} coordinates, got {len(coords)}")
        if self.alpha:
            return Scalar(self, coords[0], coords[1], coords[2], coords[3])
        return Scalar(self, coords[0], coords[1])


class Scalar:
    """Value (na + nb*xi + nc*al + nd*xi*al) / den: integer numerators over
    one positive denominator.

    Immutable; all arithmetic returns new instances.  Every scalar is kept in
    lowest terms, gcd(na, nb, nc, nd, den) == 1, so equal values have equal
    fields.  For r in {1, 2} the xi coefficients are folded into the rational
    part at construction, and rings without the formal parameter force
    nc = nd = 0.  The rational coefficients a, b, c, d are read-only
    Fraction views.
    """

    __slots__ = ("ring", "na", "nb", "nc", "nd", "den", "_hash")

    def __init__(self, ring: Ring, a: RationalLike = 0, b: RationalLike = 0,
                 c: RationalLike = 0, d: RationalLike = 0) -> None:
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            den = 1
        else:
            fa, fb, fc, fd = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
            den = lcm(fa.denominator, fb.denominator, fc.denominator,
                      fd.denominator)
            a, b, c, d = (x.numerator * (den // x.denominator)
                          for x in (fa, fb, fc, fd))
        if not ring.is_quadratic:
            fold = _FOLDED[ring.r]
            a, b, c, d = a + fold * b, 0, c + fold * d, 0
        if not ring.alpha and (c or d):
            raise RingMismatch("formal part in a ring without the parameter")
        g = gcd(a, b, c, d, den)
        self.ring = ring
        self.na = a // g
        self.nb = b // g
        self.nc = c // g
        self.nd = d // g
        self.den = den // g
        self._hash = None

    @classmethod
    def _raw(cls, ring: Ring, na: int, nb: int, nc: int, nd: int,
             den: int) -> "Scalar":
        """Construction fast path: integer numerators over a nonzero den,
        reduced to lowest terms with one gcd.  The numerators must already
        respect the ring's folding/parameter constraints."""
        g = gcd(na, nb, nc, nd, den)
        if den < 0:
            g = -g
        s = object.__new__(cls)
        s.ring = ring
        s.na = na // g
        s.nb = nb // g
        s.nc = nc // g
        s.nd = nd // g
        s.den = den // g
        s._hash = None
        return s

    # -- rational views --------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self.na, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nb, self.den)

    @property
    def c(self) -> Fraction:
        return Fraction(self.nc, self.den)

    @property
    def d(self) -> Fraction:
        return Fraction(self.nd, self.den)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.na or self.nb or self.nc or self.nd)

    def is_one(self) -> bool:
        return (self.na == 1 and self.den == 1
                and not (self.nb or self.nc or self.nd))

    def is_cyclo(self) -> bool:
        """True when the formal part vanishes."""
        return not (self.nc or self.nd)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ring is not self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(self.ring, other)
        return NotImplemented

    def __add__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e1, e2 = self.den, other.den
        if e1 == e2:
            return Scalar._raw(self.ring, self.na + other.na, self.nb + other.nb,
                               self.nc + other.nc, self.nd + other.nd, e1)
        return Scalar._raw(self.ring, self.na * e2 + other.na * e1,
                           self.nb * e2 + other.nb * e1,
                           self.nc * e2 + other.nc * e1,
                           self.nd * e2 + other.nd * e1, e1 * e2)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar._raw(self.ring, -self.na, -self.nb, -self.nc, -self.nd,
                           self.den)

    def __sub__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e1, e2 = self.den, other.den
        if e1 == e2:
            return Scalar._raw(self.ring, self.na - other.na, self.nb - other.nb,
                               self.nc - other.nc, self.nd - other.nd, e1)
        return Scalar._raw(self.ring, self.na * e2 - other.na * e1,
                           self.nb * e2 - other.nb * e1,
                           self.nc * e2 - other.nc * e1,
                           self.nd * e2 - other.nd * e1, e1 * e2)

    def __rsub__(self, other) -> "Scalar":
        return -self + other

    def __mul__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, c1, d1 = self.na, self.nb, self.nc, self.nd
        a2, b2, c2, d2 = other.na, other.nb, other.nc, other.nd
        if (c1 or d1) and (c2 or d2):
            raise AlphaSquared(f"({self}) * ({other}) would carry al^2")
        ring = self.ring
        den = self.den * other.den
        rel = _REDUCTION.get(ring.r)
        if rel is None:
            # r in {1, 2}: everything rational in xi, only a and c survive
            return Scalar._raw(ring, a1 * a2, 0, a1 * c2 + c1 * a2, 0, den)
        u, v = rel
        # cyclotomic part times cyclotomic part
        aa = a1 * a2 + v * b1 * b2
        bb = a1 * b2 + b1 * a2 + u * b1 * b2
        # at most one operand carries a formal part: it times the other's
        # cyclotomic part
        if c2 or d2:
            c1, d1 = c2, d2
        else:
            a1, b1 = a2, b2
        cc = c1 * a1 + v * d1 * b1
        dd = c1 * b1 + d1 * a1 + u * d1 * b1
        return Scalar._raw(ring, aa, bb, cc, dd, den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Field inverse; defined for nonzero scalars without formal part."""
        if self.nc or self.nd:
            raise AlphaNotInvertible(f"cannot invert {self}")
        a, b, e = self.na, self.nb, self.den
        if not (a or b):
            raise DivisionByZero("inverse of zero")
        ring = self.ring
        rel = _REDUCTION.get(ring.r)
        if rel is None:
            return Scalar._raw(ring, e, 0, 0, 0, a)
        u, v = rel
        # conjugate root xi' satisfies xi + xi' = u, xi * xi' = -v, so
        # 1 / ((a + b xi) / e) = e ((a + b u) - b xi) / (a^2 + a b u - b^2 v)
        norm = a * a + a * b * u - b * b * v
        if norm == 0:
            raise DivisionByZero("inverse of zero")
        return Scalar._raw(ring, (a + b * u) * e, -b * e, 0, 0, norm)

    def __truediv__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return self.inverse() * other

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure -------------------------------------------------------

    def coordinates(self) -> tuple[Fraction, ...]:
        """Rational coordinates in the basis (1, xi) or (1, xi, al, xi*al)."""
        if self.ring.alpha:
            return (self.a, self.b, self.c, self.d)
        return (self.a, self.b)

    def int_coordinates(self) -> tuple[tuple[int, ...], int]:
        """(numerators, den): coordinates() as integers over one denominator."""
        if self.ring.alpha:
            return (self.na, self.nb, self.nc, self.nd), self.den
        return (self.na, self.nb), self.den

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(self.ring, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.ring is other.ring and self.na == other.na
                and self.nb == other.nb and self.nc == other.nc
                and self.nd == other.nd and self.den == other.den)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring.r, self.ring.alpha, self.na, self.nb,
                               self.nc, self.nd, self.den))
        return self._hash

    # -- text form -------------------------------------------------------

    def text(self) -> str:
        """Canonical report form "a + b*x + c*al + d*x*al" (zero terms omitted)."""
        terms = []
        for num, symbol in ((self.na, ""), (self.nb, "x"),
                            (self.nc, "al"), (self.nd, "x*al")):
            if num == 0:
                continue
            mag = abs(Fraction(num, self.den))
            if symbol and mag == 1:
                body = symbol
            elif symbol:
                body = f"{mag}*{symbol}"
            else:
                body = f"{mag}"
            terms.append(("-" if num < 0 else "+", body))
        if not terms:
            return "0"
        sign, body = terms[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    __str__ = text

    def __repr__(self) -> str:
        return f"Scalar[r={self.ring.r}]({self.text()})"


def parse_scalar(ring: Ring, text: str) -> Scalar:
    """Parse the canonical text form back into a scalar."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar text")
    # split into signed terms
    terms: list[str] = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-/*":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    coeffs = {(False, False): Fraction(0), (True, False): Fraction(0),
              (False, True): Fraction(0), (True, True): Fraction(0)}
    for term in terms:
        sign = Fraction(1)
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        has_x = False
        has_al = False
        mag = Fraction(1)
        for factor in term.split("*"):
            if factor == "x":
                has_x = True
            elif factor == "al":
                has_al = True
            elif factor:
                mag *= Fraction(factor)
        coeffs[(has_x, has_al)] += sign * mag
    return Scalar(ring, coeffs[(False, False)], coeffs[(True, False)],
                  coeffs[(False, True)], coeffs[(True, True)])
