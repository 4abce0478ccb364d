"""Univariate polynomials over a prime field.

Coefficients are plain int residues in [0, q), stored ascending in
degree: the constructor reduces every int mod q and strips trailing
zeros, so the highest-index entry is nonzero. The zero polynomial
stores nothing and has degree NEG_INF, a sentinel that compares below
every integer, so degree-bound checks need no special cases.
"""

from __future__ import annotations

from itertools import zip_longest
from operator import mul
from typing import Iterable, Sequence

from .field import Field, binom_mod

NEG_INF = float("-inf")


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        q = field.q
        cs = [c % q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field: Field, ints: Iterable[int]) -> "UniPoly":
        return cls(field, ints)

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls(field, (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check_same_field(self, other: "UniPoly"):
        if self.field != other.field:
            raise ValueError("mixed fields")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check_same_field(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return UniPoly(self.field, [a + b for a, b in pairs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._check_same_field(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return UniPoly(self.field, [a - b for a, b in pairs])

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly(self.field, [c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check_same_field(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.field)
        b = other.coeffs
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return UniPoly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UniPoly":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = UniPoly.one(self.field)
        for _ in range(exponent):
            out = out * self
        return out

    def evaluate(self, x: int) -> int:
        acc = 0
        q = self.field.q
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % q
        return acc

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        return self * self.field.inv(self.leading)

    def hasse(self, a: int) -> "UniPoly":
        """a-th Hasse derivative: coefficient i-a becomes C(i,a) * c_i."""
        if a < 0:
            raise ValueError("derivative order must be nonnegative")
        q = self.field.q
        out = [binom_mod(i, a, q) * c for i, c in enumerate(self.coeffs) if i >= a]
        return UniPoly(self.field, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)} over {self.field})"


def split_blocks(field: Field, vec: Sequence[int], widths: Sequence[int]) -> tuple[UniPoly, ...]:
    """Cut a flat coefficient vector into one polynomial per block, each
    block holding `width` coefficients in ascending degree."""
    if len(vec) != sum(widths):
        raise ValueError("vector length does not match block widths")
    blocks = []
    at = 0
    for width in widths:
        blocks.append(UniPoly(field, vec[at : at + width]))
        at += width
    return tuple(blocks)


def poly_divrem(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder with a = q*b + r and deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    a._check_same_field(b)
    field = a.field
    q = field.q
    bv = b.coeffs
    inv_lead = field.inv(bv[-1])
    rem = list(a.coeffs)
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
    return UniPoly(field, quot), UniPoly(field, rem)


class Interpolator:
    """Interpolation on fixed distinct points x_j, G = prod (x - x_j).

    The polynomial of degree < n through the (x_j, v_j) is
    sum_j u_j v_j G / (x - x_j) with u_j = 1 / G'(x_j), so coefficient m
    is sum_(l>m) G[l] P[l-m-1] in P[e] = sum_j u_j x_j^e v_j. The tails
    of G and the table u_j x_j^e depend on the points only: they are
    built once, here, and every call costs two matrix-vector products.
    """

    __slots__ = ("q", "weighted", "tails")

    def __init__(self, G: UniPoly, xs: Sequence[int]):
        q = G.field.q
        n = len(xs)
        powers = [[1] * n]  # powers[e][j] = x_j^e
        for _ in range(n - 1):
            powers.append([p * x % q for p, x in zip(powers[-1], xs)])
        dG = [m * c for m, c in enumerate(G.coeffs)][1:]
        u = [G.field.inv(sum(map(mul, dG, col))) for col in zip(*powers)]
        self.q = q
        self.weighted = [[a * b % q for a, b in zip(u, row)] for row in powers]
        self.tails = [G.coeffs[m + 1 :] for m in range(n)]

    def __call__(self, value_lists) -> list[list[int]]:
        """Coefficients, ascending and stripped, of the interpolant of each
        list of values v_j in `value_lists`."""
        q = self.q
        out = []
        for values in value_lists:
            P = [sum(map(mul, values, row)) % q for row in self.weighted]
            coeffs = [sum(map(mul, tail, P)) % q for tail in self.tails]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            out.append(coeffs)
        return out


def locator_poly(field: Field, roots: Iterable[int]) -> UniPoly:
    """Monic product of (x - root); the empty product is 1."""
    q = field.q
    out = [1]
    for r in roots:
        out = [(a - r * b) % q for a, b in zip([0] + out, out + [0])]
    return UniPoly(field, out)
