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
rows for any block scalars c in place of D, and `weak_popov` reduces them
(Mulders and Storjohann, each row one packed int whose top slot is its
leading position, slots kept below (q-1)^2 + q) under the shifts t(k-1)
that turn the caps into one degree bound: `reduced_module`. The rows stay
packed (`PackedModule`). The short rows, of shifted degree below the
width w_0 of block 0, span the solutions within the caps, so their
degrees give the kernel dimension, sum (w_0 - d_b), and
`interpolation_decode` unpacks only their top two columns, both at most n
wide. It picks the lowest-degree locator in their span
(`outcome.select_stack`), splits Q^(s-1) = c_(s-1) Lambda f with
`bivariate.extract_power_factor`, which says why the lower blocks need no
check, and accepts through `outcome.conclude`, which re-encodes f
(`code.encode`) and reads the error positions off the symbols where the
codeword differs from r.
It is the package's only decode: mgs passes c = D(s), virs all ones
(A's stacks) and wb D(1) on its own caps. The dense B-bar, GS's Hasse
rows of orders (0, b) (`gs.hasse_rows`), serves `rsdec equiv`,
`rsdec dump` and `mc`, and is the tests' oracle.

The module holds in every characteristic. Where D(s) is singular mod q
(some C(s, t) = 0, possible once s >= q), the conditions on B-bar drop
the blocks with D_t = 0 from the last generator, so B-bar's space is not
A's scaled by D: mgs then keeps to B-bar and virs to A, and the two can
fail for different reasons, as on RS(4,1) over GF(5) with s = 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivariate import FactorError, extract_power_factor, scaling_map
from .code import CodeSpec, Word
from .gs import hasse_rows
from .linalg import Mat
from .outcome import DecodeOutcome, conclude, select_stack
from .poly import pack, slot_reduction, unpack


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
    """B-bar on the stacked coefficients (Q^(0), ..., Q^(s)), and its widths."""

    matrix: Mat
    widths: tuple[int, ...]


def build_Bbar(spec: CodeSpec, r: Word, s: int, tau: int) -> MgsSystem:
    """GS's Hasse rows (`gs.hasse_rows`) of orders (0, b) only, b = s-1
    down to 0, on the caps `block_widths`."""
    if not feasible(spec.n, spec.k, s):
        raise ValueError(f"order {s} infeasible for (n, k) = ({spec.n}, {spec.k})")
    spec.check_word(r)
    widths = block_widths(spec.k, s, tau)
    return MgsSystem(hasse_rows(spec, r, widths, [(0, b) for b in range(s - 1, -1, -1)]), widths)


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


@dataclass(frozen=True)
class PackedModule:
    """Rows as `weak_popov` leaves them: coefficient i of column t of row b
    in slot i m + offsets[t] of rows[b], `width` bits a slot, m columns;
    degrees[b] is the row's shifted degree."""

    rows: list[int]
    degrees: list[int]
    width: int
    offsets: tuple[int, ...]

    def columns(self, b: int, ts) -> list[list[int]]:
        """Columns ts of row b, each a coefficient list, ascending and stripped."""
        m, width = len(self.offsets), self.width
        mask, out = (1 << width) - 1, []
        for t in ts:
            p = [c & mask for c in unpack(self.rows[b] >> self.offsets[t] * width, m * width)]
            while p and not p[-1]:
                p.pop()
            out.append(p)
        return out


def weak_popov(rows, shifts, field) -> PackedModule:
    """Mulders-Storjohann, column t shifted by shifts[t]: while two rows
    share a leading position (rightmost column of top shifted degree), the
    higher loses its leading term to c x^d times the other. Returns the
    rows, now in weak Popov form, still packed, and their shifted degrees.

    A row is one int: coefficient i of column t sits in slot
    (i + shifts[t] - min(shifts)) (s + 1) + t of W bits, s + 1 columns.
    Slots then rise with the shifted degree, ties broken by the column, so
    the top nonzero slot is the leading position, read by one
    `bit_length`. A step is a + (q - c) (b << d (s + 1) W), then one
    `poly.slot_reduction`: a slot starts below q and the step adds at most
    (q - 1)^2 to it, so it stays below (q - 1)^2 + q."""
    q, m, low = field.q, len(shifts), min(shifts)
    width, kappa, reduce = slot_reduction(q, (q - 1) ** 2 + q)
    offsets = tuple((sh - low) * m + t for t, sh in enumerate(shifts))
    packed = [sum(pack(p, m * width) << at * width for p, at in zip(row, offsets)) for row in rows]
    tops = [(v.bit_length() - 1) // width for v in packed]
    # no row outgrows the top slot it starts with
    high = pack([(1 << width) - (1 << kappa)] * (max(tops) + 1), width)
    owner = {}
    todo = list(range(len(rows)))
    while todo:
        i = todo.pop()
        j = owner.setdefault(tops[i] % m, i)
        if j == i:
            continue
        if tops[j] > tops[i]:
            owner[tops[i] % m] = i
            i, j = j, i
        c = -(packed[i] >> tops[i] * width) * field.inv(packed[j] >> tops[j] * width) % q
        packed[i] = reduce(packed[i] + c * (packed[j] << (tops[i] - tops[j]) * width), high)
        tops[i] = (packed[i].bit_length() - 1) // width
        todo.append(i)
    return PackedModule(packed, [top // m + low for top in tops], width, offsets)


def reduced_module(spec: CodeSpec, r: Word, scalars) -> PackedModule:
    """`solution_module`'s rows in weak Popov form under the shifts t(k-1)
    that turn the caps into one degree bound."""
    rows = solution_module(spec, r, scalars)
    return weak_popov(rows, [t * (spec.k - 1) for t in range(len(rows))], spec.field)


def interpolation_decode(spec: CodeSpec, r: Word, tau: int, widths, scalars) -> DecodeOutcome:
    """Decode on the module with block scalars `scalars`: its rows of
    shifted degree below w_0 = widths[0], the short rows, span the
    solutions within `widths`, kernel_dim = sum (w_0 - d_b) of them;
    `select_stack` on their top two columns, then the split
    Q^(s-1) = scalars[s-1] Lambda f, accepted within radius tau."""
    module = reduced_module(spec, r, scalars)
    bound, s = widths[0], len(widths) - 1
    short = [b for b, d in enumerate(module.degrees) if d < bound]
    degrees = [module.degrees[b] for b in short]
    kernel_dim = sum(bound - d for d in degrees)
    try:
        stack = select_stack(spec.field, [module.columns(b, (s - 1, s)) for b in short], degrees, bound, widths[-2:])
        locator, f = extract_power_factor(stack, scalars, spec.k)
    except FactorError as err:
        return DecodeOutcome.failure(str(err), kernel_dim)
    return conclude(spec, r, tau, locator, f, kernel_dim)


def mgs_decode(spec: CodeSpec, r: Word, s: int) -> DecodeOutcome:
    tau = virs_radius(spec.n, spec.k, s)
    if s % spec.field.q == 0:
        raise ValueError("field characteristic divides the interpolation order")
    return interpolation_decode(spec, r, tau, block_widths(spec.k, s, tau), scaling_map(s, spec.field))
