"""Exact dense linear algebra over a prime field.

Matrices are immutable tuples of int residues in [0, q), and every
function here takes and returns plain ints, the package's one scalar
type: vectors, kernel bases and products alike. Elimination runs on
one working copy made by `_eliminate`, which holds each row as one int
of byte-aligned slots, the current column in the top live slot, and
updates a row in one big-int step. The slots are reduced lazily, under a
proven bound that picks their `array` item size; only a new pivot row is
reduced, exactly. A free column's kernel entries are read as it is passed, or
off the last rows if the elimination ends early; nothing else is
unpacked.

The nullspace basis is canonical: for each free column j there is one
basis vector with a 1 in position j, zeros in the other free positions,
and the negated reduced-row entries in the pivot positions. Callers rely
on this shape to read structured solutions straight out of the basis.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Sequence

from .field import Field

# the array item types a slot can take, smallest first ('L' is 4 or 8 bytes)
_SLOT_CODES = sorted("HILQ", key=lambda code: array(code).itemsize)
_BIG_ENDIAN = sys.byteorder == "big"
_CUT = 16  # columns between two cuts of the passed slots


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


def _pack(values: Sequence[int], code: str) -> int:
    """One int holding values[i] in slot i, lowest first, each slot one
    item of array type `code`."""
    slots = array(code, values)
    if _BIG_ENDIAN:
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _slots(row: int, count: int, code: str) -> array:
    """The lowest `count` slots of `row`, as an array of type `code`."""
    slots = array(code)
    size = slots.itemsize * count
    slots.frombytes((row & (1 << 8 * size) - 1).to_bytes(size, "little"))
    if _BIG_ENDIAN:
        slots.byteswap()
    return slots


def _eliminate(rows: Sequence[Sequence[int]], q: int) -> tuple[list[int], list[int], dict[int, list[int]], str]:
    """Row-reduce residues in [0, q) on a copy; returns (packed rows, pivot
    cols, kernel entries of the passed free columns, slot type code).

    Pivot selection is leftmost column, first nonzero row: the pivots of
    the unique reduced row echelon form. Column c sits in slot
    ncols - 1 - c, so the current column is the top live slot. A row
    update is one big-int step, row + (q - fac) prow, with the slots left
    unreduced; only the new pivot row is reduced, exactly: its live slots
    are read out, scaled to a leading 1 and packed again. A slot starts
    below q and gains at most (q - 1)^2 per update, one update per pivot,
    so no slot exceeds (q - 1) + min(nrows, ncols) (q - 1)^2, which picks
    the smallest item that holds it: 16 bits at q = 17 (up to 255
    pivots), 32 at q = 257 (up to 65535) and 64 at q = 65521. A column,
    once passed, is final in the pivot rows, since every later pivot row
    is zero there: a free column's kernel entries, -slot mod q in each
    pivot row so far, are kept then. Every `_CUT` columns the passed
    slots are cut off, so the rows returned hold only the columns after
    the last cut: among them the free columns left by the early exit,
    when every row is a pivot row, which `nullspace` reads.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    largest = q - 1 + min(nrows, ncols) * (q - 1) ** 2
    code = next(c for c in _SLOT_CODES if largest >> 8 * array(c).itemsize == 0)
    width = 8 * array(code).itemsize
    mask = (1 << width) - 1
    work = [_pack(row[::-1], code) for row in rows]
    pivots: list[int] = []
    kernel: dict[int, list[int]] = {}
    for col in range(ncols):
        live = ncols - col
        at = (live - 1) * width
        # q - entry, so that row + facs[i] prow clears the entry
        facs = [-(row >> at & mask) % q for row in work]
        r = len(pivots)
        sel = next((i for i in range(r, nrows) if facs[i]), None)
        if sel is None:
            kernel[col] = facs[:r]
        else:
            inv = pow(q - facs[sel], q - 2, q)
            work[r], work[sel] = work[sel], work[r]
            facs[sel], facs[r] = facs[r], 0
            work[r] = prow = _pack([v * inv % q for v in _slots(work[r], live, code)], code)
            for i, fac in enumerate(facs):
                if fac:
                    work[i] += fac * prow
            pivots.append(col)
            if r + 1 == nrows:
                break
        if col % _CUT == _CUT - 1:
            work = [row & (1 << at) - 1 for row in work]
    return work, pivots, kernel, code


def nullspace(mat: Mat) -> list[list[int]]:
    """Canonical basis of the right kernel, one vector per free column:
    the entries `_eliminate` kept as it passed each free column, and for
    the free columns left by its early exit, their slots in the rows."""
    q, ncols = mat.field.q, mat.ncols
    work, pivots, kernel, code = _eliminate(mat.rows, q)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    if free and free[-1] not in kernel:
        # every row is a pivot row, and the columns after the last pivot,
        # all free, are the lowest slots
        live = ncols - 1 - pivots[-1]
        tails = [_slots(row, live, code) for row in work]
        for j in range(pivots[-1] + 1, ncols):
            kernel[j] = [-tail[ncols - 1 - j] % q for tail in tails]
    basis = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for pc, entry in zip(pivots, kernel[j]):
            v[pc] = entry
        basis.append(v)
    return basis
