"""Mechanical equivalence of the two beyond-half-distance systems.

The virtual-interleaving system A and the multiplicity-interpolation
system Bbar constrain the same object in different coordinates. If the
stack solving A is Q^(t) = Lambda f^(s-t), then expanding

    Lambda (y - f)^s = sum_t (-1)^(s-t) C(s, t) (Lambda f^(s-t)) y^t

shows the interpolation stack is Qbar^(t) = (-1)^(s-t) C(s, t) Q^(t):
a diagonal column scaling D, constant on each block. Hence B = Bbar D
has the same nullspace as A, which this module checks directly by
basis membership in both directions rather than replaying row
operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivariate import scaling_scalars
from .code import CodeSpec, Word
from .field import Field
from .linalg import Mat, nullspace
from .mgs import build_Bbar
from .virs import block_widths


@dataclass(frozen=True)
class ScalingMap:
    """Diagonal map D with block-t scalar (-1)^(s-t) C(s, t) mod q."""

    s: int
    field: Field
    scalars: tuple[int, ...]

    @property
    def invertible(self) -> bool:
        return all(self.scalars)

    def _expand(self, widths) -> list[int]:
        if len(widths) != self.s + 1:
            raise ValueError("widths must cover blocks 0..s")
        out = []
        for c, width in zip(self.scalars, widths):
            out.extend([c] * width)
        return out

    def apply(self, vec, widths) -> list[int]:
        diag = self._expand(widths)
        if len(vec) != len(diag):
            raise ValueError("vector length does not match block widths")
        q = self.field.q
        return [(c * v) % q for c, v in zip(diag, vec)]

    def apply_inverse(self, vec, widths) -> list[int]:
        if not self.invertible:
            raise ValueError("scaling map is singular in this characteristic")
        inverse = tuple(self.field.inv(c) for c in self.scalars)
        return ScalingMap(self.s, self.field, inverse).apply(vec, widths)


def scaling_map(s: int, field: Field) -> ScalingMap:
    return ScalingMap(s, field, scaling_scalars(s, field.q))


def build_B(spec: CodeSpec, r: Word, s: int, tau: int) -> Mat:
    """B = Bbar D, the column-scaled system acting on the A-coordinates."""
    D = scaling_map(s, spec.field)
    if not D.invertible:
        raise ValueError("scaling map is singular in this characteristic")
    system = build_Bbar(spec, r, s, tau)
    diag = D._expand(system.widths)
    q = spec.field.q
    rows = [[(v * d) % q for v, d in zip(row, diag)] for row in system.matrix.rows]
    return Mat(spec.field, rows)


def nullspace_equivalence(A: Mat, Bbar: Mat, D: ScalingMap, widths) -> bool:
    """Do A and Bbar D have identical solution spaces?"""
    return kernels_equivalent(A, Bbar, D, widths, nullspace(A), nullspace(Bbar))


def kernels_equivalent(A: Mat, Bbar: Mat, D: ScalingMap, widths, basis_a, basis_b) -> bool:
    """`nullspace_equivalence` given the kernel bases of A and Bbar.

    Checks dim null(A) = dim null(Bbar), D v in null(Bbar) for every
    basis vector v of null(A), and D^(-1) w in null(A) for every basis
    vector w of null(Bbar).
    """
    if not D.invertible:
        raise ValueError("scaling map is singular in this characteristic")
    if A.nrows != Bbar.nrows or A.ncols != Bbar.ncols:
        raise ValueError("systems have different shapes")
    if A.ncols != sum(widths):
        raise ValueError("widths do not cover the columns")
    if len(basis_a) != len(basis_b):
        return False
    if any(any(Bbar.mulvec(D.apply(v, widths))) for v in basis_a):
        return False
    return not any(any(A.mulvec(D.apply_inverse(w, widths))) for w in basis_b)
