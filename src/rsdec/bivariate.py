"""Bivariate polynomials Q(x, y) over a prime field, and the decoders' split.

A BiPoly is stored as a list of univariate components indexed by
y-degree: Q(x, y) = sum_t Q_t(x) * y^t. Every formula this package
needs (Hasse derivatives, substitution, power-factor extraction) is
organized around those components, so no flat coefficient grid is kept.
The decoders split a stack of components, not a BiPoly:
`extract_power_factor` reads Lambda and f off the top two components
Lambda and c_(s-1) Lambda f, c being the decoder's block scalars
(`scaling_map` for mgs and wb). On a solution-module element the lower
components then are c_t Lambda f^(s-t) mod G already (see `mgs`).
"""

from __future__ import annotations

from typing import Iterable

from .field import Field, binom_mod
from .poly import NEG_INF, UniPoly, poly_divrem


class FactorError(Exception):
    """Power-factor extraction failed; `reason` says which check broke.

    reasons: "shape" (no kernel vector with a nonzero top block to build
    Q from), "division" (candidate quotient not exact), "degree"
    (extracted f too large).
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class BiPoly:
    __slots__ = ("field", "components")

    def __init__(self, field: Field, components: Iterable[UniPoly] = ()):
        comps = list(components)
        for p in comps:
            if p.field != field:
                raise ValueError("component from a different field")
        while comps and comps[-1].is_zero():
            comps.pop()
        self.field = field
        self.components = tuple(comps)

    @classmethod
    def zero(cls, field: Field) -> "BiPoly":
        return cls(field, ())

    @classmethod
    def from_uni(cls, p: UniPoly) -> "BiPoly":
        return cls(p.field, (p,))

    @property
    def ydeg(self):
        return len(self.components) - 1 if self.components else NEG_INF

    def is_zero(self) -> bool:
        return not self.components

    def component(self, t: int) -> UniPoly:
        if 0 <= t < len(self.components):
            return self.components[t]
        return UniPoly.zero(self.field)

    def _check_same_field(self, other: "BiPoly"):
        if self.field != other.field:
            raise ValueError("mixed fields")

    def __add__(self, other: "BiPoly") -> "BiPoly":
        self._check_same_field(other)
        n = max(len(self.components), len(other.components))
        return BiPoly(self.field, [self.component(t) + other.component(t) for t in range(n)])

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        self._check_same_field(other)
        n = max(len(self.components), len(other.components))
        return BiPoly(self.field, [self.component(t) - other.component(t) for t in range(n)])

    def __neg__(self) -> "BiPoly":
        return BiPoly(self.field, [-p for p in self.components])

    def __mul__(self, other):
        if isinstance(other, (int, UniPoly)):
            return BiPoly(self.field, [p * other for p in self.components])
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check_same_field(other)
        if self.is_zero() or other.is_zero():
            return BiPoly.zero(self.field)
        out = [UniPoly.zero(self.field)] * (len(self.components) + len(other.components) - 1)
        for i, p in enumerate(self.components):
            if p.is_zero():
                continue
            for j, r in enumerate(other.components):
                if r.is_zero():
                    continue
                out[i + j] = out[i + j] + p * r
        return BiPoly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = BiPoly.from_uni(UniPoly.one(self.field))
        for _ in range(exponent):
            out = out * self
        return out

    def evaluate(self, x0: int, y0: int) -> int:
        acc = 0
        q = self.field.q
        for p in reversed(self.components):
            acc = (acc * y0 + p.evaluate(x0)) % q
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.field == other.field and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.field, self.components))

    def __repr__(self) -> str:
        rows = [list(p.coeffs) for p in self.components]
        return f"BiPoly({rows} over {self.field})"


def hasse_y(Q: BiPoly, b: int) -> BiPoly:
    """b-th Hasse derivative in y: sum_{t>=b} C(t,b) Q_t(x) y^(t-b)."""
    if b < 0:
        raise ValueError("derivative order must be nonnegative")
    q = Q.field.q
    comps = [
        Q.components[t] * binom_mod(t, b, q)
        for t in range(b, len(Q.components))
    ]
    return BiPoly(Q.field, comps)


def _shift_uni(p: UniPoly, x0: int) -> UniPoly:
    """p(x + x0), via the Hasse-Taylor expansion around x0."""
    if p.is_zero():
        return p
    coeffs = [p.hasse(a).evaluate(x0) for a in range(len(p.coeffs))]
    return UniPoly(p.field, coeffs)


def shift(Q: BiPoly, x0: int, y0: int) -> BiPoly:
    """Q(x + x0, y + y0); its (a,b) coefficient is the mixed Hasse derivative."""
    q = Q.field.q
    out = []
    for b in range(len(Q.components)):
        acc = UniPoly.zero(Q.field)
        for t in range(b, len(Q.components)):
            c = binom_mod(t, b, q)
            if c == 0:
                continue
            acc = acc + _shift_uni(Q.components[t], x0) * (c * pow(y0, t - b, q))
        out.append(acc)
    return BiPoly(Q.field, out)


def hasse_mixed(Q: BiPoly, a: int, b: int, x0: int, y0: int) -> int:
    """Coefficient of u^a v^b in Q(x0 + u, y0 + v), read off `shift`."""
    if a < 0 or b < 0:
        raise ValueError("derivative orders must be nonnegative")
    return shift(Q, x0, y0).component(b).coeff(a)


def substitute_y(Q: BiPoly, g: UniPoly) -> UniPoly:
    """Q(x, g(x)), by Horner in the y-components."""
    if Q.field != g.field:
        raise ValueError("mixed fields")
    acc = UniPoly.zero(Q.field)
    for p in reversed(Q.components):
        acc = acc * g + p
    return acc


def scaling_map(s: int, field: Field) -> tuple[int, ...]:
    """Block-t scalar (-1)^(s-t) C(s, t) mod q of the map D(s), t = 0..s:
    the y^t coefficient of Lambda (y - f)^s is D_t Lambda f^(s-t)."""
    if s < 1:
        raise ValueError("order must be positive")
    q = field.q
    return tuple((-1) ** (s - t) * binom_mod(s, t, q) % q for t in range(s + 1))


def extract_power_factor(stack, scalars, k: int) -> tuple[UniPoly, UniPoly]:
    """(Lambda, f) with stack[-2] = scalars[-2] Lambda f and deg f < k,
    Lambda being the top block stack[-1]; or raise FactorError.

    Only the top two blocks are read. On an element of the solution
    module the lower blocks need no check: Q^(t) = c_t R_t Lambda mod G
    there, and once the division is exact (c_(s-1) != 0)
    Lambda(alpha_j)(f(alpha_j) - r_j) = 0 at every point, so Q^(t) =
    c_t Lambda f^(s-t) mod G.
    """
    locator = stack[-1]
    f, rem = poly_divrem(stack[-2], locator * scalars[-2])
    if not rem.is_zero():
        raise FactorError("division", "locator does not divide the message component")
    if f.degree >= k:
        raise FactorError("degree", f"message degree {f.degree} >= dimension {k}")
    return locator, f
