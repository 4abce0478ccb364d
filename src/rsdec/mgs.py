"""The one decoder: interpolation with one y-root of multiplicity s.

A received word is interpolated by a bivariate Q(x, y) of y-degree s
whose Hasse y-derivatives of orders 0..s-1 all vanish at every point
(locator_i, r_i), with component degree caps

    deg Q^(t) <= tau + (s - t)(k - 1).

Whenever at most tau errors occurred and a nonzero solution exists, Q
factors as Lambda(x) (y - f(x))^s: the error locator times an s-fold
root at the message. Its y^t coefficient is D_t Lambda f^(s-t), with
D = D(s) (`bivariate.scaling_map`), so no root finding over y is needed.

No matrix is eliminated. Q meets its conditions at (alpha_j, r_j)
exactly when (y - r_j)^s divides Q(alpha_j, y), so the solutions form
the F[x]-module spanned by the G y^t (t < s) and (y - R)^s, with R
interpolating r and G = prod (x - alpha_j); reduced mod G the last
generator is y^s + sum_t D_t R_t y^t. `solution_module` builds these
rows for any block scalars c in place of D, `weak_popov` reduces them
(Mulders and Storjohann, on packed ints) under the shifts t(k-1) that
turn the caps into one degree bound, and `capped_span` reads the kernel
off the reduced rows: `module_kernel`. `interpolation_decode` then takes
`outcome.canonical_stack`, splits Q^(t) = c_t Lambda f^(s-t) with
`bivariate.extract_power_factor` and accepts through `outcome.conclude`.
It is the package's only decode: mgs passes c = D(s), virs all ones
(A's stacks) and wb D(1) on its own caps. The dense B-bar serves
`rsdec equiv`, `rsdec dump` and `mc`, and is the tests' oracle.

The module holds in every characteristic. Where D(s) is singular mod q
(some C(s, t) = 0, possible once s >= q), the conditions on B-bar drop
the blocks with D_t = 0 from the last generator, so B-bar's space is not
A's scaled by D: mgs then keeps to B-bar and virs to A, and the two can
fail for different reasons, as on RS(4,1) over GF(5) with s = 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bivariate import FactorError, extract_power_factor, scaling_map
from .code import CodeSpec, Word
from .field import binom_mod
from .linalg import Mat
from .outcome import DecodeOutcome, canonical_stack, capped_span, conclude
from .poly import pack, unpack


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

@lru_cache(maxsize=None)
def slot_reduction(q: int):
    """(W, kappa, reduce): reduce(v, high) takes every W-bit slot of v mod q,
    `high` selecting bits kappa..W-1 of each. A slot v < 2^N, N =
    bitlen((q-1)^2 + q), has v // q = (v m) >> kappa, m = ceil(2^kappa / q)
    (Granlund and Montgomery), and v m < 2^W spills into no other slot."""
    top = ((q - 1) ** 2 + q).bit_length()
    kappa = top + (q - 1).bit_length()
    m = -(-(1 << kappa) // q)
    return (((1 << top) - 1) * m).bit_length(), kappa, lambda v, high: v - q * ((v * m & high) >> kappa)


def weak_popov(rows, shifts, field) -> list[int]:
    """Mulders-Storjohann, in place, column t shifted by shifts[t]: while
    two rows share a leading position (rightmost column of top shifted
    degree), the higher loses its leading term to c x^d times the other.
    Returns the shifted degrees of the rows, now in weak Popov form. A
    step is a + (q - c) x^d b on `pack`ed components, then `slot_reduction`."""
    width, kappa, reduce = slot_reduction(field.q)
    packed = [[pack(p, width) for p in row] for row in rows]

    def lead(row):
        return max(((v.bit_length() - 1) // width + sh, t) for t, (v, sh) in enumerate(zip(row, shifts)) if v)

    leads = [lead(row) for row in packed]
    # no component outgrows the top shifted degree its row starts with
    high = pack([(1 << width) - (1 << kappa)] * (max(leads)[0] - min(shifts) + 1), width)
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
        d, top = (leads[i][0] - leads[j][0]) * width, (leads[j][0] - shifts[pos]) * width
        c = -(packed[i][pos] >> d + top) * field.inv(packed[j][pos] >> top) % field.q
        packed[i] = [reduce(a + c * (b << d), high) if b else a for a, b in zip(packed[i], packed[j])]
        leads[i] = lead(packed[i])
        todo.append(i)
    for row, prow in zip(rows, packed):
        row[:] = [unpack(v, width) for v in prow]
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


def interpolation_decode(spec: CodeSpec, r: Word, tau: int, widths, scalars) -> DecodeOutcome:
    """Decode on the module with block scalars `scalars`: its span within
    `widths`, `canonical_stack`, then the split Q^(t) = scalars[t] Lambda
    f^(s-t), accepted within radius tau."""
    kernel = module_kernel(spec, r, scalars, widths)
    try:
        stack = canonical_stack(spec, kernel, widths)
        locator, f = extract_power_factor(stack, scalars, spec.k, spec.vanishing)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), len(kernel))
    return conclude(spec, r, tau, locator, f, len(kernel))


def mgs_decode(spec: CodeSpec, r: Word, s: int) -> DecodeOutcome:
    tau = virs_radius(spec.n, spec.k, s)
    if s % spec.field.q == 0:
        raise ValueError("field characteristic divides the interpolation order")
    return interpolation_decode(spec, r, tau, block_widths(spec.k, s, tau), scaling_map(s, spec.field))
