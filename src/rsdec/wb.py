"""Welch-Berlekamp decoding up to half the minimum distance.

The decoder looks for Q(x, y) = Q0(x) + Q1(x) y vanishing at every
point (locator_i, r_i), with deg Q0 < n - tau0 and deg Q1 < n - tau0
- k + 1 where tau0 = floor((n - k) / 2). Any nonzero solution factors
as Q1 * (y - f) when at most tau0 errors occurred, so f falls out of
one exact polynomial division and Q1 is the error locator.

The decoder solves the s = 1 case of `virs.build_key_equation`, the
classical key equation: n - width0 syndrome rows over Q1 alone, then
Q0 = -r Q1 by interpolation. `wb_build` stays as the tested oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivariate import BiPoly, FactorError, extract_power_factor, scaling_scalars
from .code import CodeSpec, Word
from .linalg import Mat, nullspace
from .outcome import DecodeOutcome, conclude, select_stack
from .virs import build_key_equation, lift_locator


def wb_radius(n: int, k: int) -> int:
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    return (n - k) // 2


@dataclass(frozen=True)
class WbSystem:
    """Homogeneous system for (Q0, Q1), coefficients ascending per block."""

    matrix: Mat
    tau0: int
    width0: int
    width1: int


def wb_build(spec: CodeSpec, r: Word) -> WbSystem:
    if len(r) != spec.n:
        raise ValueError("word length must equal n")
    tau0 = wb_radius(spec.n, spec.k)
    width0 = spec.n - tau0
    width1 = spec.n - tau0 - spec.k + 1
    q = spec.field.q
    rows = []
    for av, rv in zip(spec.locators, r.symbols):
        powers = [1] * max(width0, width1)
        for j in range(1, len(powers)):
            powers[j] = (powers[j - 1] * av) % q
        rows.append(powers[:width0] + [(rv * p) % q for p in powers[:width1]])
    return WbSystem(Mat(spec.field, rows), tau0, width0, width1)


def wb_decode(spec: CodeSpec, r: Word) -> DecodeOutcome:
    tau0 = wb_radius(spec.n, spec.k)
    widths = (spec.n - tau0, spec.n - tau0 - spec.k + 1)
    system = build_key_equation(spec, r, widths)
    kernel = nullspace(system)
    try:
        locator = select_stack(spec.field, kernel, (system.ncols - widths[1], widths[1]))[-1]
        stack = lift_locator(spec, r, locator, scaling_scalars(1, spec.field.q))
        locator, f = extract_power_factor(BiPoly(spec.field, stack), 1, spec.k)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel))
    return conclude(spec, r, tau0, locator, f, len(kernel))
