"""Exact dense linear algebra over a prime field.

Matrices are immutable tuples of int residues in [0, q), and every
function here takes and returns plain ints, the package's one scalar
type: vectors, kernel bases and products alike. Elimination runs on
one working copy made by `_rref_ints`.

The nullspace basis is canonical: for each free column j there is one
basis vector with a 1 in position j, zeros in the other free positions,
and the negated reduced-row entries in the pivot positions. Callers rely
on this shape to read structured solutions straight out of the basis.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import Field


class Mat:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: Iterable[Iterable[int]]):
        q = field.q
        normalized = tuple(tuple(v % q for v in row) for row in rows)
        if normalized:
            width = len(normalized[0])
            if any(len(row) != width for row in normalized):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.field = field
        self.rows = normalized
        self.nrows = len(normalized)
        self.ncols = width

    def mulvec(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        q = self.field.q
        return [sum(a * b for a, b in zip(row, vec)) % q for row in self.rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols} over {self.field})"


def _rref_ints(rows: Sequence[Sequence[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Row-reduce in place semantics on a copy; returns (rref rows, pivot cols).

    Pivot selection is leftmost column, first nonzero row, so the result
    is the unique reduced row echelon form.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        sel = -1
        for i in range(r, nrows):
            if work[i][col]:
                sel = i
                break
        if sel < 0:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = pow(work[r][col], q - 2, q)
        if inv != 1:
            work[r] = [(v * inv) % q for v in work[r]]
        prow = work[r]
        for i in range(nrows):
            if i == r:
                continue
            fac = work[i][col]
            if fac:
                work[i] = [(a - fac * b) % q for a, b in zip(work[i], prow)]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work, pivots


def nullspace(mat: Mat) -> list[list[int]]:
    """Canonical basis of the right kernel, one vector per free column."""
    q = mat.field.q
    reduced, pivots = _rref_ints(mat.rows, q)
    pivot_set = set(pivots)
    free = [j for j in range(mat.ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [0] * mat.ncols
        v[j] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-reduced[r][j]) % q
        basis.append(v)
    return basis
