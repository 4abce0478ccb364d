"""Decoding by virtual interleaving.

Raising the received word symbolwise to the powers 1..s produces s
words, the i-th lying within the original error support of a code of
dimension i(k-1) + 1 on the same locators. All s words share one error
locator, so a single homogeneous system A Q = 0 searches for the stack
Q = (Q^(0), ..., Q^(s)) with Q^(s) = Lambda and Q^(t) = Lambda f^(s-t).
The shared locator is what pushes the radius beyond half the minimum
distance:

    tau = floor((s n - C(s+1, 2)(k - 1) - s) / (s + 1)).

The decoder never eliminates A. Band i of A says r_j^i Lambda(alpha_j)
is a codeword of GRS(n, w), w the width of Q^(s-i); its parity checks
leave the multi-sequence key equation, a block-Hankel system in the
syndromes over Lambda alone (`build_key_equation`). Its kernel is the
Lambda part of A's, vector for vector, and `lift_locator` rebuilds the
lower blocks by interpolation. `build_A` stays as the tested oracle of
`rsdec equiv` and `rsdec dump`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivariate import FactorError, split_progression
from .code import CodeSpec, Word
from .field import Field
from .linalg import Mat, nullspace
from .outcome import DecodeOutcome, conclude, select_stack
from .poly import UniPoly, lagrange_interpolate, locator_poly, split_blocks


def feasible(n: int, k: int, s: int) -> bool:
    """The s-th power word must still sit in a code shorter than n."""
    return s >= 1 and s * (k - 1) + 1 <= n


def virs_radius(n: int, k: int, s: int) -> int:
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    if not feasible(n, k, s):
        raise ValueError(f"order {s} infeasible for (n, k) = ({n}, {k})")
    return (s * n - (s * (s + 1) // 2) * (k - 1) - s) // (s + 1)


def block_widths(k: int, s: int, tau: int) -> tuple[int, ...]:
    """Width of column block t = 0..s: component t holds Lambda f^(s-t),
    so its degree cap is tau + (s-t)(k-1)."""
    if tau < 0:
        raise ValueError(f"radius must be nonnegative, got {tau}")
    return tuple(tau + (s - t) * (k - 1) + 1 for t in range(s + 1))


@dataclass(frozen=True)
class StackedSolution:
    """Coefficient stack (Q^(0), ..., Q^(s)); component t caps at
    degree tau + (s-t)(k-1)."""

    components: tuple[UniPoly, ...]

    @property
    def s(self) -> int:
        return len(self.components) - 1

    @classmethod
    def from_pair(cls, locator: UniPoly, f: UniPoly, s: int) -> "StackedSolution":
        return cls(tuple(locator * f ** (s - t) for t in range(s + 1)))

    @classmethod
    def from_vector(cls, field: Field, vec, widths) -> "StackedSolution":
        return cls(split_blocks(field, vec, widths))

    def to_vector(self, widths) -> list[int]:
        if len(widths) != len(self.components):
            raise ValueError("block count mismatch")
        out = []
        for p, width in zip(self.components, widths):
            if p.degree >= width:
                raise ValueError("component degree exceeds its block width")
            out.extend(p.coeff(j) for j in range(width))
        return out


def build_Mi(spec: CodeSpec, tau: int, i: int) -> Mat:
    """n x (tau + i(k-1) + 1) Vandermonde block on the locators."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    width = tau + i * (spec.k - 1) + 1
    q = spec.field.q
    rows = []
    for a in spec.locators:
        row = [1] * width
        for j in range(1, width):
            row[j] = (row[j - 1] * a) % q
        rows.append(row)
    return Mat(spec.field, rows)


def build_A(spec: CodeSpec, r: Word, s: int, tau: int) -> Mat:
    """The sn x N system. Band i = 1..s (rows (i-1)n..in-1) encodes

        r_j^i Lambda(alpha_j) - (Lambda f^i)(alpha_j) = 0,

    i.e. -M_i in the block of Q^(s-i) and diag(r)^i M_0 in the block of
    Q^(s). Column blocks run Q^(0) leftmost through Q^(s) rightmost,
    degrees ascending inside each block.
    """
    if not feasible(spec.n, spec.k, s):
        raise ValueError(f"order {s} infeasible for (n, k) = ({spec.n}, {spec.k})")
    if len(r) != spec.n:
        raise ValueError("word length must equal n")
    q = spec.field.q
    widths = block_widths(spec.k, s, tau)
    starts = [sum(widths[:t]) for t in range(s + 1)]
    total = sum(widths)
    m0 = build_Mi(spec, tau, 0)
    rows = []
    for i in range(1, s + 1):
        mi = build_Mi(spec, tau, i)
        for j in range(spec.n):
            row = [0] * total
            at = starts[s - i]
            for v in mi.rows[j]:
                row[at] = -v % q
                at += 1
            ri = pow(r.symbols[j], i, q)
            at = starts[s]
            for v in m0.rows[j]:
                row[at] = (ri * v) % q
                at += 1
            rows.append(row)
    return Mat(spec.field, rows)


def build_key_equation(spec: CodeSpec, r: Word, widths) -> Mat:
    """What is left of A (or of the wb system) over the locator block
    alone once the blocks t < s of `widths` are eliminated.

    Block t interpolates c_t r_j^(s-t) Lambda(alpha_j), which has degree
    below widths[t] iff the values v_j pass the parity checks
    sum_j u_j v_j alpha_j^m = 0, m < n - widths[t], where u_j is
    1 / prod_(m != j) (alpha_j - alpha_m), that is 1 / G'(alpha_j) for
    G = prod_j (x - alpha_j). Over Lambda these are Hankel rows in the
    syndromes S[m] = sum_j u_j r_j^(s-t) alpha_j^m. A block wider than n
    gives no rows but widths[t] - n free columns of the full system; as
    many zero columns come first, so the kernel basis matches the full
    system's, vector for vector, in length and in the locator block.
    """
    if len(r) != spec.n:
        raise ValueError("word length must equal n")
    q = spec.field.q
    s = len(widths) - 1
    top = widths[-1]
    pad = sum(max(0, width - spec.n) for width in widths[:-1])
    dG = locator_poly(spec.field, spec.locators).hasse(1)
    u = [spec.field.inv(dG.evaluate(a)) for a in spec.locators]
    rows = []
    for t, width in enumerate(widths[:-1]):
        checks = spec.n - width
        if checks <= 0:
            continue
        v = [uj * pow(rj, s - t, q) % q for uj, rj in zip(u, r.symbols)]
        syndromes = []
        for _ in range(checks + top - 1):
            syndromes.append(sum(v) % q)
            v = [x * a % q for x, a in zip(v, spec.locators)]
        rows.extend([0] * pad + syndromes[m : m + top] for m in range(checks))
    # a zero row keeps the width of a system without parity checks
    return Mat(spec.field, rows or [[0] * (pad + top)])


def lift_locator(spec: CodeSpec, r: Word, locator: UniPoly, scalars) -> tuple[UniPoly, ...]:
    """The blocks of the full system's kernel vector whose locator block is
    `locator`: Q^(t) interpolates scalars[t] r_j^(s-t) Lambda(alpha_j)
    (the canonical basis leaves its coefficients of degree >= n zero)."""
    q = spec.field.q
    s = len(scalars) - 1
    values = [locator.evaluate(a) for a in spec.locators]
    return tuple(
        lagrange_interpolate(
            spec.field, [(a, c * pow(v, s - t, q) * lam) for a, v, lam in zip(spec.locators, r, values)]
        )
        for t, c in enumerate(scalars[:-1])
    ) + (locator,)


def virs_decode(spec: CodeSpec, r: Word, s: int) -> DecodeOutcome:
    tau = virs_radius(spec.n, spec.k, s)
    widths = block_widths(spec.k, s, tau)
    system = build_key_equation(spec, r, widths)
    kernel = nullspace(system)
    scalars = (1,) * (s + 1)
    try:
        locator = select_stack(spec.field, kernel, (system.ncols - widths[-1], widths[-1]))[-1]
        locator, f = split_progression(lift_locator(spec, r, locator, scalars), scalars, spec.k)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel))
    return conclude(spec, r, tau, locator, f, len(kernel))
