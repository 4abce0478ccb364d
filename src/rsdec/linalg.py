"""Exact dense linear algebra over a prime field.

Matrices are immutable tuples of int residues in [0, q), and every
function here takes and returns plain ints, the package's one scalar
type: vectors, kernel bases and products alike. Elimination runs on
one working copy made by `_eliminate`, which holds each row as one
`poly.pack`ed int, an entry per slot, and updates a row in one big-int
step. The slots are reduced lazily: an update adds at most (q - 1)^2 to
a slot and a row takes at most one update per pivot, so slots sized for
(q - 1) + min(nrows, ncols) (q - 1)^2 never overflow, and only pivot
rows are reduced (`poly.slot_reduction`). `nullspace` reads the few
slots it needs and takes each mod q; nothing else is unpacked.

The nullspace basis is canonical: for each free column j there is one
basis vector with a 1 in position j, zeros in the other free positions,
and the negated reduced-row entries in the pivot positions. Callers rely
on this shape to read structured solutions straight out of the basis.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import Field
from .poly import pack, slot_reduction, unpack


class Mat:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: Iterable[Iterable[int]]):
        q = field.q
        # list comprehensions: tuple() over a generator is slower
        normalized = tuple([tuple([v % q for v in row]) for row in rows])
        width = len(normalized[0]) if normalized else 0
        if any(len(row) != width for row in normalized):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = normalized
        self.nrows = len(normalized)
        self.ncols = width

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols} over {self.field})"


def _eliminate(rows: Sequence[Sequence[int]], q: int) -> tuple[list[int], list[int], int]:
    """Row-reduce residues in [0, q) on a copy; returns (packed rows, pivot
    cols, slot width W).

    Pivot selection is leftmost column, first nonzero row, so the rows
    hold the unique reduced row echelon form, each entry in its own W-bit
    slot but not yet reduced mod q. A row update is one big-int step,
    row + (q - fac) prow, with the slots left unreduced: only the new
    pivot row is reduced. A slot starts below q and gains at most
    (q - 1)^2 per update, one update per pivot, so no slot exceeds
    (q - 1) + min(nrows, ncols) (q - 1)^2, the bound `slot_reduction` is
    sized for; a slot read and taken mod q is exact.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    width, kappa, reduce = slot_reduction(q, q - 1 + min(nrows, ncols) * (q - 1) ** 2)
    mask = (1 << width) - 1
    high = pack([(1 << width) - (1 << kappa)] * ncols, width)
    work = [pack(row, width) for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        at = col * width
        # q - entry, so that row + facs[i] prow clears the entry
        facs = [-(row >> at & mask) % q for row in work]
        r = len(pivots)
        sel = next((i for i in range(r, nrows) if facs[i]), None)
        if sel is None:
            continue
        inv = pow(q - facs[sel], q - 2, q)
        work[r], work[sel] = work[sel], work[r]
        facs[sel], facs[r] = facs[r], 0
        prow = reduce(work[r], high)
        work[r] = prow = reduce(prow * inv, high) if inv != 1 else prow
        for i, fac in enumerate(facs):
            if fac:
                work[i] += fac * prow
        pivots.append(col)
        if r + 1 == nrows:
            break
    return work, pivots, width


def _rref_ints(rows: Sequence[Sequence[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """(rref rows, pivot cols): `_eliminate`'s rows unpacked, every entry
    taken mod q. Only the tests read whole reduced rows."""
    ncols = len(rows[0]) if rows else 0
    work, pivots, width = _eliminate(rows, q)
    return [[v % q for v in unpack(row, width, ncols)] for row in work], pivots


def nullspace(mat: Mat) -> list[list[int]]:
    """Canonical basis of the right kernel, one vector per free column,
    read straight off `_eliminate`'s packed rows: only the pivot rows'
    free-column slots, each taken mod q."""
    q = mat.field.q
    work, pivots, width = _eliminate(mat.rows, q)
    mask = (1 << width) - 1
    pivot_set = set(pivots)
    free = [j for j in range(mat.ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [0] * mat.ncols
        v[j] = 1
        at = j * width
        for row, pc in zip(work, pivots):
            v[pc] = -(row >> at & mask) % q
        basis.append(v)
    return basis
