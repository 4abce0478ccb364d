"""Welch-Berlekamp decoding up to half the minimum distance.

The decoder looks for Q(x, y) = Q0(x) + Q1(x) y vanishing at every
point (locator_i, r_i), with deg Q0 < n - tau0 and deg Q1 < n - tau0
- k + 1 where tau0 = floor((n - k) / 2). Any nonzero solution factors
as Q1 * (y - f) when at most tau0 errors occurred, so f falls out of
one exact polynomial division and Q1 is the error locator.

Those caps are B-bar's at s = 1 and radius n - k - tau0, so wb is the
list-size-1 case of the interpolation decoder, literally: `wb_build` is
`build_Bbar` at s = 1, and `wb_decode` is `mgs.interpolation_decode`
with the scalars D(1) = (-1, 1) on the same caps, accepting within
tau0. That row-reduces the module of (G, 0) and (-R, 1), R
interpolating r.
"""

from __future__ import annotations

from .bivariate import scaling_map
from .code import CodeSpec, Word
from .linalg import Mat
from .mgs import block_widths, build_Bbar, interpolation_decode
from .outcome import DecodeOutcome


def wb_radius(n: int, k: int) -> int:
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    return (n - k) // 2


def wb_build(spec: CodeSpec, r: Word) -> Mat:
    """Homogeneous system for (Q0, Q1), coefficients ascending per block."""
    return build_Bbar(spec, r, 1, spec.n - spec.k - wb_radius(spec.n, spec.k)).matrix


def wb_decode(spec: CodeSpec, r: Word) -> DecodeOutcome:
    tau0 = wb_radius(spec.n, spec.k)
    widths = block_widths(spec.k, 1, spec.n - spec.k - tau0)
    return interpolation_decode(spec, r, tau0, widths, scaling_map(1, spec.field))
