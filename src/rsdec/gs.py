"""Guruswami-Sudan interpolation by dense linear algebra.

The interpolation polynomial Q(x, y) must have y-degree at most ell,
(1, k-1)-weighted degree below s(n - tau), and a zero of multiplicity
s at every point (locator_i, r_i). Those constraints are linear in the
coefficients (`hasse_rows`, every order a + b < s; B-bar and wb keep
only a = 0), so one nullspace computation produces Q. The point of
this module is verifiability, not speed; no fast interpolation is
attempted. It also hosts the univariate key-equation view: Q passes
the interpolation constraints exactly when each Hasse y-derivative
composed with the full-word interpolation polynomial is divisible by
the locator product G(x) to the complementary power.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivariate import BiPoly, hasse_y, shift, substitute_y
from .code import CodeSpec, Word, interpolate_word
from .field import binom_mod
from .linalg import Mat, nullspace
from .poly import poly_divrem, split_blocks


@dataclass(frozen=True)
class GsParams:
    n: int
    k: int
    ell: int
    s: int
    tau: int

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ValueError("need 1 <= k <= n")
        if self.ell < 1 or self.s < 1 or self.tau < 0:
            raise ValueError("need ell >= 1, s >= 1, tau >= 0")

    def column_widths(self) -> tuple[int, ...]:
        bound = self.s * (self.n - self.tau)
        return tuple(max(0, bound - t * (self.k - 1)) for t in range(self.ell + 1))


def gs_params_valid(p: GsParams) -> tuple[bool, int, int]:
    """(valid, unknowns, constraints); valid iff unknowns > constraints."""
    unknowns = sum(p.column_widths())
    constraints = p.n * (p.s * (p.s + 1) // 2)
    return unknowns > constraints, unknowns, constraints


def hasse_rows(spec: CodeSpec, r: Word, widths, orders) -> Mat:
    """Hasse conditions on Q, one row per order (a, b) in `orders` (outer)
    and point (alpha_j, r_j) (inner): the coefficient of u^a v^b in
    Q(alpha_j + u, r_j + v), that is the sum over t >= b and i >= a of
    C(t, b) r_j^(t-b) C(i, a) alpha_j^(i-a) times coefficient i of Q^(t).
    Column block t holds the widths[t] coefficients of Q^(t), ascending.
    GS asks for every a + b < s; B-bar keeps the orders (0, b), b < s."""
    q = spec.field.q
    top = max(widths)
    xpows = [[1] * top for _ in spec.locators]
    for xpow, v in zip(xpows, spec.locators):
        for i in range(1, top):
            xpow[i] = xpow[i - 1] * v % q
    rows = []
    for a, b in orders:
        cx = [binom_mod(i, a, q) for i in range(a, top)]
        cy = [binom_mod(t, b, q) for t in range(b, len(widths))]
        for xpow, yv in zip(xpows, r.symbols):
            # C(i, 0) = 1, so order a = 0 reads the Vandermonde row as it is
            dx = xpow if a == 0 else [0] * a + [c * v % q for c, v in zip(cx, xpow)]
            row = [0] * sum(widths[:b])
            for t in range(b, len(widths)):
                c = cy[t - b] * pow(yv, t - b, q) % q
                row.extend([c * v % q for v in dx[: widths[t]]])
            rows.append(row)
    return Mat(spec.field, rows)


def _constraint_matrix(spec: CodeSpec, r: Word, p: GsParams) -> Mat:
    """Every order a + b < s; columns ordered by y-degree then x-degree,
    so nullspace bases are stable across runs."""
    orders = [(total - b, b) for total in range(p.s) for b in range(total + 1)]
    return hasse_rows(spec, r, p.column_widths(), orders)


def gs_interpolate(spec: CodeSpec, r: Word, p: GsParams) -> BiPoly:
    if spec.n != p.n or spec.k != p.k:
        raise ValueError("parameter set does not match the code")
    spec.check_word(r)
    valid, unknowns, constraints = gs_params_valid(p)
    if not valid:
        raise ValueError(
            f"parameters admit {unknowns} unknowns for {constraints} constraints"
        )
    matrix = _constraint_matrix(spec, r, p)
    basis = nullspace(matrix)
    if not basis:
        raise ValueError("constraint matrix has full column rank")
    return BiPoly(spec.field, split_blocks(spec.field, basis[0], p.column_widths()))


def multiplicity_at(Q: BiPoly, x0, y0) -> int:
    """Vanishing order of Q at (x0, y0): least total degree after shifting."""
    if Q.is_zero():
        raise ValueError("zero polynomial has no multiplicity")
    shifted = shift(Q, x0, y0)
    best = None
    for t, p in enumerate(shifted.components):
        for i, c in enumerate(p.coeffs):
            if c != 0 and (best is None or i + t < best):
                best = i + t
    return best


def key_equation_check(Q: BiPoly, spec: CodeSpec, r: Word, p: GsParams) -> bool:
    """True iff G(x)^(s-b) exactly divides Q^[b](x, R(x)) for each b < s
    and each quotient's degree stays below ell(n-k) - s*tau + b."""
    R = interpolate_word(spec, r)
    G = spec.vanishing
    for b in range(p.s):
        composed = substitute_y(hasse_y(Q, b), R)
        quotient, rem = poly_divrem(composed, G ** (p.s - b))
        if not rem.is_zero():
            return False
        if quotient.degree >= p.ell * (p.n - p.k) - p.s * p.tau + b:
            return False
    return True
