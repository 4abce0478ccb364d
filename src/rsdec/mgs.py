"""Interpolation decoding with one y-root of multiplicity s.

A single received word is interpolated by a bivariate Q(x, y) of
y-degree s whose Hasse y-derivatives of orders 0..s-1 all vanish at
every point (locator_i, r_i), with component degree caps

    deg Q^(t) <= tau + (s - t)(k - 1).

Whenever at most tau errors occurred and a nonzero solution exists, Q
factors as Q^(s)(x) (y - f(x))^s: the error locator times an s-fold
root at the message polynomial. Decoding is therefore interpolation
followed by power-factor extraction, no root finding over y needed.

The decoder never eliminates the constraint matrix B-bar. Q meets its
conditions at (alpha_j, r_j) exactly when (y - r_j)^s divides
Q(alpha_j, y), so the solutions form the F[x]-module spanned by the
G y^t (t < s) and (y - R)^s, with R interpolating r and
G = prod (x - alpha_j). Reduced mod G the last generator is
y^s + sum_t D_t R_t y^t, virs's last generator scaled by D(s):
`interpolation_decode` runs `virs.module_kernel` with the scalars D(s),
and `outcome.canonical_stack` picks the canonical kernel vector from the
span, so every outcome and reason is the dense pipeline's. wb is this
route at s = 1 on its own caps, and its system `wb.wb_build` is
`build_Bbar` at s = 1. The dense B-bar serves `rsdec equiv`,
`rsdec dump` and `mc`, and is the oracle the tests hold the span to.

The module holds in every characteristic. Where D(s) is singular mod q
(some C(s, t) = 0, possible once s >= q), the conditions on B-bar drop
the blocks with D_t = 0 from the last generator, so B-bar's space is not
A's scaled by D: mgs then keeps to B-bar and virs to A, and the two can
fail for different reasons, as on RS(4,1) over GF(5) with s = 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivariate import BiPoly, FactorError, extract_power_factor, scaling_map
from .code import CodeSpec, Word
from .field import binom_mod
from .linalg import Mat
from .outcome import DecodeOutcome, canonical_stack, conclude
from .virs import block_widths, feasible, module_kernel, virs_radius


@dataclass(frozen=True)
class MgsSystem:
    """Constraint matrix for the stacked coefficients (Q^(0), ..., Q^(s)).

    Row band b' = 0..s-1 holds the derivative order b = s-1-b', one row
    per point; within band b, the column block for component t >= b is
    C(t, b) diag(r)^(t-b) M_(s-t), zero for t < b. Columns run block
    t = 0 through t = s, degrees ascending inside each block.
    """

    matrix: Mat
    widths: tuple[int, ...]


def build_Bbar(spec: CodeSpec, r: Word, s: int, tau: int) -> MgsSystem:
    if not feasible(spec.n, spec.k, s):
        raise ValueError(f"order {s} infeasible for (n, k) = ({spec.n}, {spec.k})")
    spec.check_word(r)
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
    return MgsSystem(Mat(spec.field, rows), widths)


def interpolation_decode(spec: CodeSpec, r: Word, tau: int, widths) -> DecodeOutcome:
    """Decode on the interpolation side: the span of the system with
    `widths`, `canonical_stack`, then the split Q = Lambda (y - f)^s with
    s = len(widths) - 1, accepted within radius tau."""
    s = len(widths) - 1
    kernel = module_kernel(spec, r, scaling_map(s, spec.field), widths)
    try:
        Q = BiPoly(spec.field, canonical_stack(spec, kernel, widths))
        locator, f = extract_power_factor(Q, s, spec.k, spec.vanishing)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel))
    return conclude(spec, r, tau, locator, f, len(kernel))


def mgs_decode(spec: CodeSpec, r: Word, s: int) -> DecodeOutcome:
    tau = virs_radius(spec.n, spec.k, s)
    if s % spec.field.q == 0:
        raise ValueError("field characteristic divides the interpolation order")
    return interpolation_decode(spec, r, tau, block_widths(spec.k, s, tau))
