"""Decoding by virtual interleaving.

Raising the received word symbolwise to the powers 1..s produces s
words, the i-th lying within the original error support of a code of
dimension i(k-1) + 1 on the same locators. All s words share one error
locator, so a single homogeneous system A Q = 0 searches for the stack
Q = (Q^(0), ..., Q^(s)) with Q^(s) = Lambda and Q^(t) = Lambda f^(s-t).
The shared locator is what pushes the radius beyond half the minimum
distance:

    tau = floor((s n - C(s+1, 2)(k - 1) - s) / (s + 1)).

These are the interpolation decoder's stacks with unit block scalars in
place of D(s), so `virs_decode` is `mgs.interpolation_decode` with
scalars all 1, on the same module kernel, split and acceptance gate.
`build_A` stays as the tested oracle of `rsdec equiv` and `rsdec dump`.
"""

from __future__ import annotations

from .code import CodeSpec, Word
from .linalg import Mat
from .mgs import block_widths, feasible, interpolation_decode, virs_radius
from .outcome import DecodeOutcome


def build_A(spec: CodeSpec, r: Word, s: int, tau: int) -> Mat:
    """The sn x N system. Band i = 1..s (rows (i-1)n..in-1) encodes

        r_j^i Lambda(alpha_j) - (Lambda f^i)(alpha_j) = 0,

    i.e. -M_i in the block of Q^(s-i) and diag(r)^i M_0 in the block of
    Q^(s). Column blocks run Q^(0) leftmost through Q^(s) rightmost,
    degrees ascending inside each block.
    """
    if not feasible(spec.n, spec.k, s):
        raise ValueError(f"order {s} infeasible for (n, k) = ({spec.n}, {spec.k})")
    spec.check_word(r)
    q = spec.field.q
    widths = block_widths(spec.k, s, tau)
    starts = [sum(widths[:t]) for t in range(s + 1)]
    total = sum(widths)
    rows = []
    for i in range(1, s + 1):
        at = starts[s - i]
        for a, rj in zip(spec.locators, r.symbols):
            # row j of the Vandermonde block M_i, whose width is widths[s - i]
            xpow = [1] * widths[s - i]
            for j in range(1, len(xpow)):
                xpow[j] = (xpow[j - 1] * a) % q
            row = [0] * total
            row[at : at + len(xpow)] = [-v % q for v in xpow]
            ri = pow(rj, i, q)
            row[starts[s] :] = [ri * v % q for v in xpow[: widths[s]]]
            rows.append(row)
    return Mat(spec.field, rows)


def virs_decode(spec: CodeSpec, r: Word, s: int) -> DecodeOutcome:
    tau = virs_radius(spec.n, spec.k, s)
    return interpolation_decode(spec, r, tau, block_widths(spec.k, s, tau), (1,) * (s + 1))
