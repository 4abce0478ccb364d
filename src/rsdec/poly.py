"""Univariate polynomials over a prime field.

Coefficients are plain int residues in [0, q), stored ascending in
degree: the constructor reduces every int mod q and strips trailing
zeros, so the highest-index entry is nonzero. The zero polynomial
stores nothing and has degree NEG_INF, a sentinel that compares below
every integer, so degree-bound checks need no special cases. The decode
kernel computes on `pack`ed ints, with a slot per coefficient, and this
module owns that format: `pack`, `unpack`, `slot_reduction`, which takes
every slot mod q at once (the dense elimination packs its own byte-aligned
rows and reduces them exactly, in `linalg`), and the
two per-code tables on the code locators: `Interpolator`, n columns, and
`Evaluator`, k columns, the one evaluation of a message (`code.encode`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat, zip_longest
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


def pack(coeffs: Sequence[int], width: int) -> int:
    """One int with coeffs[i] in bits [i width, (i + 1) width); by halves, in near-linear time."""
    if len(coeffs) > 64:
        half = len(coeffs) // 2
        return pack(coeffs[:half], width) | pack(coeffs[half:], width) << half * width
    packed = 0
    for c in reversed(coeffs):
        packed = packed << width | c
    return packed


def unpack(packed: int, width: int, count: int | None = None) -> list[int]:
    """The first `count` slots of `packed`, lowest first, or all up to its
    top nonzero one; by halves, like `pack`."""
    if count is None:
        count = -(-packed.bit_length() // width)
    if count > 32:
        half = count // 2
        low = unpack(packed & (1 << half * width) - 1, width, half)
        return low + unpack(packed >> half * width, width, count - half)
    mask, slots = (1 << width) - 1, []
    for _ in range(count):
        slots.append(packed & mask)
        packed >>= width
    return slots


@lru_cache(maxsize=128)
def slot_reduction(q: int, largest_slot_value: int):
    """(W, kappa, reduce) for slots that never exceed `largest_slot_value`:
    reduce(v, high) takes every W-bit slot of v mod q, `high` selecting
    bits kappa..W-1 of each. A slot v < 2^N, N = bitlen(largest_slot_value),
    has v // q = (v m) >> kappa, m = ceil(2^kappa / q) (Granlund and
    Montgomery), and v m < 2^W spills into no other slot. The caller,
    `mgs.weak_popov`, states its bound."""
    top = largest_slot_value.bit_length()
    kappa = top + (q - 1).bit_length()
    m = -(-(1 << kappa) // q)
    return (((1 << top) - 1) * m).bit_length(), kappa, lambda v, high: v - q * ((v * m & high) >> kappa)


class Interpolator:
    """Interpolation on fixed distinct points x_j, G = prod (x - x_j).

    The polynomial of degree < n through the (x_j, v_j) is
    sum_j u_j v_j G / (x - x_j) with u_j = 1 / G'(x_j), so coefficient m
    is sum_(l>m) G[l] P[l-m-1] in P[e] = sum_j u_j x_j^e v_j: coefficient
    m + n of G rev(P). The table u_j x_j^e depends on the points only: built
    once, here, and `pack`ed by columns C_j, rev(P) = sum_j v_j C_j, in slots
    of bitlen(n (q-1)^2) bits, which fit G rev(P mod q) too (Kronecker).
    """

    __slots__ = ("q", "width", "columns", "G")

    def __init__(self, G: UniPoly, xs: Sequence[int]):
        q, n = G.field.q, len(xs)
        dG = UniPoly(G.field, [m * c for m, c in enumerate(G.coeffs)][1:])
        self.q, self.width, self.columns = q, (n * (q - 1) ** 2).bit_length(), []
        for x in xs:  # C_j holds u_j x_j^e in slot n - 1 - e
            column = accumulate(repeat(x, n - 1), lambda p, a: p * a % q, initial=G.field.inv(dG.evaluate(x)))
            self.columns.append(pack(list(column)[::-1], self.width))
        self.G = pack(G.coeffs, self.width)

    def __call__(self, value_lists) -> list[list[int]]:
        """Coefficients, ascending and stripped, of the interpolant of each
        list of values v_j in `value_lists`."""
        q, width, out = self.q, self.width, []
        for values in value_lists:
            rev_P = pack([v % q for v in unpack(sum(map(mul, values, self.columns)), width)], width)
            coeffs = [c % q for c in unpack(self.G * rev_P >> len(self.columns) * width, width)]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            out.append(coeffs)
        return out


class Evaluator:
    """Evaluation at fixed points x_j, all of them at once, of polynomials
    of degree below `count`.

    Column C_e packs x_j^e in slot j, e < count, in slots of
    bitlen(count (q-1)^2) bits, so sum_e p_e C_e holds p(x_j), unreduced,
    in slot j: one big-int sum and one `unpack`. The table is count n
    slots; the code's is k n (`CodeSpec.evaluator`), about 3 KB at
    RS(128, 8) over GF(257).
    """

    __slots__ = ("q", "width", "columns", "n")

    def __init__(self, field: Field, xs: Sequence[int], count: int):
        q = field.q
        self.q, self.n, self.width, self.columns = q, len(xs), (count * (q - 1) ** 2).bit_length(), []
        powers = [1] * self.n
        for _ in range(count):
            self.columns.append(pack(powers, self.width))
            powers = [p * x % q for p, x in zip(powers, xs)]

    def __call__(self, coeffs: Sequence[int]) -> list[int]:
        """p(x_j) for every j, p given by at most `count` coefficients, a
        precondition the caller checks (`code.encode`: deg f < k); a
        longer list is cut short."""
        q = self.q
        return [v % q for v in unpack(sum(map(mul, coeffs, self.columns)), self.width, self.n)]


def locator_poly(field: Field, roots: Iterable[int]) -> UniPoly:
    """Monic product of (x - root); the empty product is 1."""
    q = field.q
    out = [1]
    for r in roots:
        out = [(a - r * b) % q for a, b in zip([0] + out, out + [0])]
    return UniPoly(field, out)
