"""Interpolation decoding with one y-root of multiplicity s.

A single received word is interpolated by a bivariate Q(x, y) of
y-degree s whose Hasse y-derivatives of orders 0..s-1 all vanish at
every point (locator_i, r_i), with component degree caps

    deg Q^(t) <= tau + (s - t)(k - 1).

Whenever at most tau errors occurred and a nonzero solution exists, Q
factors as Q^(s)(x) (y - f(x))^s: the error locator times an s-fold
root at the message polynomial. Decoding is therefore interpolation
followed by power-factor extraction, no root finding over y needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivariate import BiPoly, FactorError, extract_power_factor, hasse_y, substitute_y
from .code import CodeSpec, Word, interpolate_word
from .field import binom_mod
from .linalg import Mat, nullspace
from .outcome import DecodeOutcome, conclude, select_stack
from .poly import locator_poly, poly_divrem
from .virs import block_widths, feasible, virs_radius


@dataclass(frozen=True)
class MgsSystem:
    """Constraint matrix for the stacked coefficients (Q^(0), ..., Q^(s)).

    Row band b' = 0..s-1 holds the derivative order b = s-1-b', one row
    per point; within band b, the column block for component t >= b is
    C(t, b) diag(r)^(t-b) M_(s-t), zero for t < b. Columns run block
    t = 0 through t = s, degrees ascending inside each block.
    """

    matrix: Mat
    s: int
    tau: int
    widths: tuple[int, ...]


def build_Bbar(spec: CodeSpec, r: Word, s: int, tau: int) -> MgsSystem:
    if not feasible(spec.n, spec.k, s):
        raise ValueError(f"order {s} infeasible for (n, k) = ({spec.n}, {spec.k})")
    if len(r) != spec.n:
        raise ValueError("word length must equal n")
    q = spec.field.q
    widths = block_widths(spec.k, s, tau)
    max_width = widths[0]
    rows = []
    for b in range(s - 1, -1, -1):
        for a, ri in zip(spec.locators, r.symbols):
            xpow = [1] * max_width
            for j in range(1, max_width):
                xpow[j] = (xpow[j - 1] * a) % q
            row = []
            for t, width in enumerate(widths):
                if t < b:
                    row.extend([0] * width)
                    continue
                c = (binom_mod(t, b, q) * pow(ri, t - b, q)) % q
                row.extend((c * xpow[j]) % q for j in range(width))
            rows.append(row)
    return MgsSystem(Mat(spec.field, rows), s, tau, widths)


def mgs_interpolate(spec: CodeSpec, r: Word, s: int) -> BiPoly:
    system = build_Bbar(spec, r, s, virs_radius(spec.n, spec.k, s))
    return BiPoly(spec.field, select_stack(spec.field, nullspace(system.matrix), system.widths))


def mgs_decode(spec: CodeSpec, r: Word, s: int) -> DecodeOutcome:
    if s % spec.field.q == 0:
        raise ValueError("field characteristic divides the interpolation order")
    system = build_Bbar(spec, r, s, virs_radius(spec.n, spec.k, s))
    kernel = nullspace(system.matrix)
    try:
        stack = select_stack(spec.field, kernel, system.widths)
        locator, f = extract_power_factor(BiPoly(spec.field, stack), s, spec.k)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel))
    return conclude(spec, r, system.tau, locator, f, len(kernel))


def errorfree_divisibility_check(
    Qbar: BiPoly, spec: CodeSpec, r: Word, error_positions, s: int
) -> bool:
    """True iff for each b < s the product of (x - locator_i) over the
    error-free positions i, raised to the (s-b)-th power, divides
    Q^[b](x, R(x)) exactly; R interpolates the received word."""
    bad = set(error_positions)
    clean = [a for i, a in enumerate(spec.locators) if i not in bad]
    Gbar = locator_poly(spec.field, clean)
    R = interpolate_word(spec, r)
    for b in range(s):
        composed = substitute_y(hasse_y(Qbar, b), R)
        _, rem = poly_divrem(composed, Gbar ** (s - b))
        if not rem.is_zero():
            return False
    return True
