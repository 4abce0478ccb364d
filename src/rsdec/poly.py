"""Univariate polynomials over a prime field.

Coefficients are stored ascending in degree and normalized so that the
highest-index entry is nonzero. The zero polynomial stores nothing and
has degree NEG_INF, a sentinel that compares below every integer, so
degree-bound checks need no special cases.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import Field, FieldElement, binom_mod

NEG_INF = float("-inf")


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[FieldElement] = ()):
        cs = list(coeffs)
        for c in cs:
            if c.field != field:
                raise ValueError("coefficient from a different field")
        while cs and cs[-1].value == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field: Field, ints: Iterable[int]) -> "UniPoly":
        return cls(field, [field(v) for v in ints])

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls(field, (field.one,))

    @classmethod
    def constant(cls, c: FieldElement) -> "UniPoly":
        return cls(c.field, (c,))

    @classmethod
    def x(cls, field: Field) -> "UniPoly":
        return cls(field, (field.zero, field.one))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> FieldElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    @property
    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check_same_field(self, other: "UniPoly"):
        if self.field != other.field:
            raise ValueError("mixed fields")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check_same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._check_same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return UniPoly(self.field, [c * other for c in self.coeffs])
        if isinstance(other, int):
            return UniPoly(self.field, [c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check_same_field(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.field)
        q = self.field.q
        a = [c.value for c in self.coeffs]
        b = [c.value for c in other.coeffs]
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % q
        return UniPoly.from_ints(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UniPoly":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = UniPoly.one(self.field)
        for _ in range(exponent):
            out = out * self
        return out

    def evaluate(self, x: FieldElement) -> FieldElement:
        acc = 0
        q = self.field.q
        xv = x.value
        for c in reversed(self.coeffs):
            acc = (acc * xv + c.value) % q
        return self.field(acc)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        return self * self.leading.inverse()

    def hasse(self, a: int) -> "UniPoly":
        """a-th Hasse derivative: coefficient i-a becomes C(i,a) * c_i."""
        if a < 0:
            raise ValueError("derivative order must be nonnegative")
        q = self.field.q
        out = [
            self.field(binom_mod(i, a, q) * c.value)
            for i, c in enumerate(self.coeffs)
            if i >= a
        ]
        return UniPoly(self.field, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"UniPoly({[c.value for c in self.coeffs]} over {self.field})"


def split_blocks(field: Field, vec: Sequence[int], widths: Sequence[int]) -> tuple[UniPoly, ...]:
    """Cut a flat coefficient vector into one polynomial per block, each
    block holding `width` coefficients in ascending degree."""
    if len(vec) != sum(widths):
        raise ValueError("vector length does not match block widths")
    blocks = []
    at = 0
    for width in widths:
        blocks.append(UniPoly.from_ints(field, vec[at : at + width]))
        at += width
    return tuple(blocks)


def poly_divrem(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder with a = q*b + r and deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    a._check_same_field(b)
    field = a.field
    q = field.q
    bv = [c.value for c in b.coeffs]
    inv_lead = pow(bv[-1], q - 2, q)
    rem = [c.value for c in a.coeffs]
    if len(rem) < len(bv):
        return UniPoly.zero(field), a
    quot = [0] * (len(rem) - len(bv) + 1)
    for top in range(len(rem) - 1, len(bv) - 2, -1):
        c = rem[top]
        if c == 0:
            continue
        d = top - (len(bv) - 1)
        fac = (c * inv_lead) % q
        quot[d] = fac
        for i in range(len(bv)):
            rem[d + i] = (rem[d + i] - fac * bv[i]) % q
    return UniPoly.from_ints(field, quot), UniPoly.from_ints(field, rem)


def lagrange_interpolate(points: Sequence[tuple[FieldElement, FieldElement]]) -> UniPoly:
    """The unique polynomial of degree < len(points) through the points."""
    if not points:
        raise ValueError("need at least one point")
    field = points[0][0].field
    xs = [p[0] for p in points]
    if len({x.value for x in xs}) != len(xs):
        raise ValueError("duplicate x-coordinate")
    total = UniPoly.zero(field)
    for i, (xi, yi) in enumerate(points):
        if yi.value == 0:
            continue
        basis = UniPoly.constant(yi)
        denom = field.one
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = basis * UniPoly(field, (-xj, field.one))
            denom = denom * (xi - xj)
        total = total + basis * denom.inverse()
    return total


def locator_poly(field: Field, roots: Iterable[FieldElement]) -> UniPoly:
    """Monic product of (x - root); the empty product is 1."""
    out = UniPoly.one(field)
    for r in roots:
        out = out * UniPoly(field, (-r, field.one))
    return out
