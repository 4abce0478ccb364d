"""Decoding by virtual interleaving.

Raising the received word symbolwise to the powers 1..s produces s
words, the i-th lying within the original error support of a code of
dimension i(k-1) + 1 on the same locators. All s words share one error
locator, so a single homogeneous system A Q = 0 searches for the stack
Q = (Q^(0), ..., Q^(s)) with Q^(s) = Lambda and Q^(t) = Lambda f^(s-t).
The shared locator is what pushes the radius beyond half the minimum
distance:

    tau = floor((s n - C(s+1, 2)(k - 1) - s) / (s + 1)).

The decoder never eliminates A. Its kernel is the part within the caps
of an F[x]-module, the stacks with Q^(t) = R_t Lambda mod G, where R_t
interpolates r^(s-t) and G = prod (x - alpha_j). `solution_module`
gives s + 1 generators, `weak_popov` row-reduces them (Mulders and
Storjohann) under the shifts t(k-1) that turn the caps into one degree
bound, and `capped_span` reads the kernel off the reduced rows. That is
`module_kernel`, the one kernel of every decoder: virs calls it with
all-ones scalars in A's coordinates, mgs with D(s) in B-bar's
(`mgs.interpolation_decode`), and wb with D(1) on its own caps.
`build_A` stays as the tested oracle of `rsdec equiv` and `rsdec dump`.
"""

from __future__ import annotations

from .bivariate import FactorError, split_progression
from .code import CodeSpec, Word
from .linalg import Mat
from .outcome import DecodeOutcome, canonical_stack, capped_span, conclude


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


def solution_module(spec: CodeSpec, r: Word, scalars) -> list[list[list[int]]]:
    """Generators of the module of stacks Q with Q^(t) = c_t R_t Q^(s)
    mod G, c = `scalars` (s + 1 of them, c_s = 1): the rows G e_t (t < s)
    and (c_0 R_0, ..., c_(s-1) R_(s-1), c_s), each s + 1 int coefficient
    lists, ascending; R_t interpolates r^(s-t), all s on the code's
    `interpolator`."""
    spec.check_word(r)
    q = spec.field.q
    s = len(scalars) - 1
    rpow = [list(r.symbols)]  # rpow[i] = r^(i+1)
    for _ in range(s - 1):
        rpow.append([v * x % q for v, x in zip(rpow[-1], r.symbols)])
    polys = spec.interpolator(rpow[::-1]) + [[1]]
    last = [[c * v % q for v in p] if c else [] for c, p in zip(scalars, polys)]
    G = spec.vanishing.coeffs
    return [[list(G) if t == i else [] for t in range(s + 1)] for i in range(s)] + [last]


def weak_popov(rows, shifts, field) -> list[int]:
    """Mulders-Storjohann, in place, column t shifted by shifts[t]: while
    two rows share a leading position (rightmost column of top shifted
    degree), the higher loses its leading term to c x^d times the other.
    Returns the shifted degrees of the rows, now in weak Popov form."""
    q = field.q

    def lead(row):
        return max((len(p) - 1 + sh, t) for t, (p, sh) in enumerate(zip(row, shifts)) if p)

    leads = [lead(row) for row in rows]
    owner = {}
    todo = list(range(len(rows)))
    while todo:
        i = todo.pop()
        pos = leads[i][1]
        j = owner.setdefault(pos, i)
        if j == i:
            continue
        if leads[j][0] > leads[i][0]:
            owner[pos] = i
            i, j = j, i
        d = leads[i][0] - leads[j][0]
        c = rows[i][pos][-1] * field.inv(rows[j][pos][-1]) % q
        for a, b in zip(rows[i], rows[j]):
            a.extend([0] * (d + len(b) - len(a)))
            a[d : d + len(b)] = [(x - c * y) % q for x, y in zip(a[d:], b)]
            while a and not a[-1]:
                a.pop()
        leads[i] = lead(rows[i])
        todo.append(i)
    return [deg for deg, _ in leads]


def module_kernel(spec: CodeSpec, r: Word, scalars, widths) -> list[list[int]]:
    """The kernel every decoder reads: the elements within the caps
    `widths` of the module `solution_module(spec, r, scalars)` generates,
    as flat vectors. `weak_popov` reduces the generators under the shifts
    t(k-1) that turn the caps into one degree bound, and `capped_span`
    spans the reduced rows within it."""
    rows = solution_module(spec, r, scalars)
    degrees = weak_popov(rows, [t * (spec.k - 1) for t in range(len(rows))], spec.field)
    return capped_span(rows, degrees, widths)


def virs_decode(spec: CodeSpec, r: Word, s: int) -> DecodeOutcome:
    tau = virs_radius(spec.n, spec.k, s)
    widths = block_widths(spec.k, s, tau)
    ones = (1,) * (s + 1)
    kernel = module_kernel(spec, r, ones, widths)
    try:
        stack = canonical_stack(spec, kernel, widths)
        locator, f = split_progression(stack, ones, spec.k, spec.vanishing)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel))
    return conclude(spec, r, tau, locator, f, len(kernel))
