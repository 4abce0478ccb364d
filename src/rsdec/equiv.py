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

from .bivariate import scaling_scalars
from .code import CodeSpec, Word
from .field import Field
from .linalg import Mat, nullspace
from .mgs import build_Bbar


def scaling_map(s: int, field: Field) -> tuple[int, ...]:
    """The block scalars of D: (-1)^(s-t) C(s, t) mod q for t = 0..s."""
    return scaling_scalars(s, field.q)


def _scale(q: int, vec, scalars, widths) -> list[int]:
    """`vec` with block t multiplied by scalars[t]."""
    if len(widths) != len(scalars):
        raise ValueError("widths must cover blocks 0..s")
    diag = [c for c, width in zip(scalars, widths) for _ in range(width)]
    if len(vec) != len(diag):
        raise ValueError("vector length does not match block widths")
    return [c * v % q for c, v in zip(diag, vec)]


def build_B(spec: CodeSpec, r: Word, s: int, tau: int) -> Mat:
    """B = Bbar D, the column-scaled system acting on the A-coordinates."""
    D = scaling_map(s, spec.field)
    if not all(D):
        raise ValueError("scaling map is singular in this characteristic")
    system = build_Bbar(spec, r, s, tau)
    return Mat(spec.field, [_scale(spec.field.q, row, D, system.widths) for row in system.matrix.rows])


def nullspace_equivalence(A: Mat, Bbar: Mat, D: tuple[int, ...], widths) -> bool:
    """Do A and Bbar D have identical solution spaces?"""
    return kernels_equivalent(A, Bbar, D, widths, nullspace(A), nullspace(Bbar))


def kernels_equivalent(A: Mat, Bbar: Mat, D: tuple[int, ...], widths, basis_a, basis_b) -> bool:
    """`nullspace_equivalence` given the kernel bases of A and Bbar.

    Checks dim null(A) = dim null(Bbar), D v in null(Bbar) for every
    basis vector v of null(A), and D^(-1) w in null(A) for every basis
    vector w of null(Bbar). D is the tuple of block scalars.
    """
    if not all(D):
        raise ValueError("scaling map is singular in this characteristic")
    if A.nrows != Bbar.nrows or A.ncols != Bbar.ncols:
        raise ValueError("systems have different shapes")
    if A.ncols != sum(widths):
        raise ValueError("widths do not cover the columns")
    if len(basis_a) != len(basis_b):
        return False
    q = A.field.q
    if any(any(Bbar.mulvec(_scale(q, v, D, widths))) for v in basis_a):
        return False
    inverse = tuple(A.field.inv(c) for c in D)
    return not any(any(A.mulvec(_scale(q, w, inverse, widths))) for w in basis_b)
