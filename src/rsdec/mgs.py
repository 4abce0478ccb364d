"""Interpolation decoding with one y-root of multiplicity s.

A single received word is interpolated by a bivariate Q(x, y) of
y-degree s whose Hasse y-derivatives of orders 0..s-1 all vanish at
every point (locator_i, r_i), with component degree caps

    deg Q^(t) <= tau + (s - t)(k - 1).

Whenever at most tau errors occurred and a nonzero solution exists, Q
factors as Q^(s)(x) (y - f(x))^s: the error locator times an s-fold
root at the message polynomial. Decoding is therefore interpolation
followed by power-factor extraction, no root finding over y needed.

The decoder never eliminates the constraint matrix B-bar. Its rows are
functionals that commute with multiplication by x up to the point's
locator, so Koetter's iterative interpolation (`interpolation_kernel`)
gives the whole solution space from s + 1 polynomials updated point by
point; `outcome.canonical_stack` picks the locator from that span and
reduces the lower blocks mod prod (x - alpha_j) to the canonical kernel
vector, so every outcome and reason is the dense pipeline's. virs
reaches the same module by row reduction in A's coordinates. wb runs
this route (`interpolation_decode`) too, at s = 1 on its own caps: the
wb system is B-bar's rows at s = 1. `build_Bbar` stays as the tested
oracle of `rsdec equiv`, `rsdec dump` and `mc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import mul

from .bivariate import BiPoly, FactorError, extract_power_factor, hasse_y, substitute_y
from .code import CodeSpec, Word, interpolate_word
from .field import binom_mod
from .linalg import Mat
from .outcome import DecodeOutcome, canonical_stack, capped_span, conclude
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
    return MgsSystem(Mat(spec.field, rows), s, tau, widths)


def interpolation_kernel(spec: CodeSpec, r: Word, widths) -> list[list[int]]:
    """A basis of ker B-bar by Koetter's iterative interpolation; B-bar
    itself is never built.

    Each row of B-bar is a functional L(Q) = sum_(t>=b) C(t, b) r_j^(t-b)
    Q^(t)(alpha_j) with L(x Q) = alpha_j L(Q), so the solutions of any
    set of rows form an F[x]-module. Starting from g_t = y^t, each row
    picks, among the g_i it does not annihilate, the g* of smallest
    leading term under the (1, k-1)-weighted degree (ties by y-degree),
    clears the others against it and multiplies it by x - alpha_j. The
    final g_0..g_s are a Groebner basis with one leading term per
    y-degree, which `capped_span` spans within the caps of `widths`.
    """
    spec.check_word(r)
    q = spec.field.q
    s = len(widths) - 1
    w = spec.k - 1
    coef = [[binom_mod(t, b, q) for t in range(s + 1)] for b in range(s)]
    basis = [[[1] if t == i else [] for t in range(s + 1)] for i in range(s + 1)]
    wdeg = [i * w for i in range(s + 1)]
    for a, rj in zip(spec.locators, r.symbols):
        rpow = [pow(rj, e, q) for e in range(s + 1)]
        apow = [pow(a, e, q) for e in range(max(wdeg) + 1)]
        # g_i^(t)(alpha_j), kept current through the updates of this point
        values = [[sum(map(mul, comp, apow)) % q for comp in g] for g in basis]
        for b in range(s):
            row = [coef[b][t] * rpow[t - b] % q for t in range(b, s + 1)]
            delta = [sum(c * v for c, v in zip(row, vals[b:])) % q for vals in values]
            live = [i for i in range(s + 1) if delta[i]]
            if not live:
                continue
            star = min(live, key=lambda i: (wdeg[i], i))
            inv = spec.field.inv(delta[star])
            for i in live:
                if i != star:
                    c = delta[i] * inv % q
                    basis[i] = [
                        [(u - c * v) % q for u, v in zip_longest(p, g, fillvalue=0)]
                        for p, g in zip(basis[i], basis[star])
                    ]
                    values[i] = [(v - c * u) % q for v, u in zip(values[i], values[star])]
            # g* <- (x - alpha_j) g*, which every row of this point annihilates
            basis[star] = [[(p - a * c) % q for p, c in zip([0] + g, g + [0])] if g else g
                           for g in basis[star]]
            values[star] = [0] * (s + 1)
            wdeg[star] += 1
    return capped_span(basis, wdeg, widths)


def mgs_interpolate(spec: CodeSpec, r: Word, s: int) -> BiPoly:
    widths = block_widths(spec.k, s, virs_radius(spec.n, spec.k, s))
    return BiPoly(spec.field, canonical_stack(spec, interpolation_kernel(spec, r, widths), widths))


def interpolation_decode(spec: CodeSpec, r: Word, tau: int, widths) -> DecodeOutcome:
    """Decode on the interpolation side: Koetter's span of the system with
    `widths`, `canonical_stack`, then the split Q = Lambda (y - f)^s with
    s = len(widths) - 1, accepted within radius tau."""
    kernel = interpolation_kernel(spec, r, widths)
    try:
        Q = BiPoly(spec.field, canonical_stack(spec, kernel, widths))
        locator, f = extract_power_factor(Q, len(widths) - 1, spec.k, spec.vanishing)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel))
    return conclude(spec, r, tau, locator, f, len(kernel))


def mgs_decode(spec: CodeSpec, r: Word, s: int) -> DecodeOutcome:
    tau = virs_radius(spec.n, spec.k, s)
    if s % spec.field.q == 0:
        raise ValueError("field characteristic divides the interpolation order")
    return interpolation_decode(spec, r, tau, block_widths(spec.k, s, tau))


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
