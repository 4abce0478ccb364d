"""Welch-Berlekamp decoding up to half the minimum distance.

The decoder looks for Q(x, y) = Q0(x) + Q1(x) y vanishing at every
point (locator_i, r_i), with deg Q0 < n - tau0 and deg Q1 < n - tau0
- k + 1 where tau0 = floor((n - k) / 2). Any nonzero solution factors
as Q1 * (y - f) when at most tau0 errors occurred, so f falls out of
one exact polynomial division and Q1 is the error locator.

These are the rows of B-bar at s = 1 on wb's caps, so wb is the
list-size-1 case of the interpolation decoder: it runs
`mgs.interpolation_decode` with s = 1 and radius tau0, which row-reduces
the module of (G, 0) and (-R, 1), R interpolating r: virs's module
scaled by D(1) = (-1, 1). `wb_build` stays as the tested dense oracle.
"""

from __future__ import annotations

from .code import CodeSpec, Word
from .linalg import Mat
from .mgs import interpolation_decode
from .outcome import DecodeOutcome


def wb_radius(n: int, k: int) -> int:
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    return (n - k) // 2


def _widths(n: int, k: int) -> tuple[int, int]:
    """Widths of the blocks of Q0 and Q1."""
    tau0 = wb_radius(n, k)
    return n - tau0, n - tau0 - k + 1


def wb_build(spec: CodeSpec, r: Word) -> Mat:
    """Homogeneous system for (Q0, Q1), coefficients ascending per block."""
    spec.check_word(r)
    width0, width1 = _widths(spec.n, spec.k)
    q = spec.field.q
    rows = []
    for av, rv in zip(spec.locators, r.symbols):
        powers = [1] * width0
        for j in range(1, width0):
            powers[j] = (powers[j - 1] * av) % q
        rows.append(powers + [(rv * p) % q for p in powers[:width1]])
    return Mat(spec.field, rows)


def wb_decode(spec: CodeSpec, r: Word) -> DecodeOutcome:
    return interpolation_decode(spec, r, wb_radius(spec.n, spec.k), _widths(spec.n, spec.k))
