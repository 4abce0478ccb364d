"""Bivariate polynomials Q(x, y) over a prime field.

A BiPoly is stored as a list of univariate components indexed by
y-degree: Q(x, y) = sum_t Q_t(x) * y^t. Every formula this package
needs (Hasse derivatives, substitution, power-factor extraction) is
organized around those components, so no flat coefficient grid is kept.
"""

from __future__ import annotations

from typing import Iterable

from .field import Field, binom_mod
from .poly import NEG_INF, UniPoly, poly_divrem


class FactorError(Exception):
    """Power-factor extraction failed; `reason` says which check broke.

    reasons: "shape" (y-degree below the requested power, or no kernel
    vector with a nonzero top block to build Q from), "division"
    (candidate quotient not exact), "degree" (extracted f too large),
    "expansion" (product does not reproduce the input).
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


def split_progression(stack, scalars, k: int, modulus=None) -> tuple[UniPoly, UniPoly]:
    """(Lambda, f) with stack[t] = scalars[t] Lambda f^(s-t) for every t
    and deg f < k, Lambda being the top block; or raise FactorError.

    f = stack[s-1] / (scalars[s-1] Lambda) must divide exactly, and every
    lower block is then checked against the progression: a stack passing
    the division by luck but breaking this shape is a spurious solution.
    A term of degree >= n is compared mod `modulus` G = prod (x - alpha_j),
    as the canonical kernel vector holds such a block reduced mod G.
    """
    locator = stack[-1]
    f, rem = poly_divrem(stack[-2], locator * scalars[-2])
    if not rem.is_zero():
        raise FactorError("division", "locator does not divide the message component")
    if f.degree >= k:
        raise FactorError("degree", f"message degree {f.degree} >= dimension {k}")
    term = locator * f
    for t in range(len(stack) - 3, -1, -1):
        term = term * f
        expect = term * scalars[t]
        if modulus is not None and expect.degree >= modulus.degree:
            expect = poly_divrem(expect, modulus)[1]
        if stack[t] != expect:
            raise FactorError("expansion", "solution stack is not a power progression")
    return locator, f


def extract_power_factor(Q: BiPoly, s: int, k: int, modulus=None) -> tuple[UniPoly, UniPoly]:
    """Split Q as W(x) * (y - f(x))^s with deg f < k, or raise FactorError.

    The y-components of W (y - f)^s are D_t W f^(s-t) with D = D(s), so
    the factorization is checked component by component, without
    expanding the product; `modulus` as in `split_progression`.
    """
    if s < 1:
        raise ValueError("power must be positive")
    if k < 1:
        raise ValueError("degree bound must be positive")
    if s % Q.field.q == 0:
        raise ValueError("field characteristic divides the power")
    if Q.ydeg != s:
        raise FactorError("shape", f"y-degree {Q.ydeg} does not match power {s}")
    return split_progression(Q.components, scaling_map(s, Q.field), k, modulus)
