"""Mechanical equivalence of the two beyond-half-distance systems.

The virtual-interleaving system A and the multiplicity-interpolation
system Bbar constrain the same object in different coordinates. If the
stack solving A is Q^(t) = Lambda f^(s-t), then expanding

    Lambda (y - f)^s = sum_t (-1)^(s-t) C(s, t) (Lambda f^(s-t)) y^t

shows the interpolation stack is Qbar^(t) = (-1)^(s-t) C(s, t) Q^(t):
a diagonal column scaling D, constant on each block, whose scalars are
`bivariate.scaling_map`, the decoders' own. Hence B = Bbar D
has the same nullspace as A, which this module checks by comparing
canonical bases: `nullspace`'s basis of a kernel is determined by the
kernel alone, and column scaling maps the canonical basis of ker(Bbar)
onto that of ker(Bbar D) up to one scalar per vector, so equal spaces
give equal lists and unequal spaces unequal ones. No matrix-vector
product and no replayed row operation is needed.
"""

from __future__ import annotations

from .bivariate import scaling_map
from .code import CodeSpec, Word
from .linalg import Mat, nullspace
from .mgs import build_Bbar


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
    """`nullspace_equivalence` given `nullspace(A)` and `nullspace(Bbar)`.

    The bases must be `nullspace`'s canonical ones, each vector 1 in its
    free column, its last nonzero entry, and 0 in the other free columns.
    Scaling columns by the nonzero D keeps the pivot and free columns, so
    the canonical basis of ker(Bbar D) = D^(-1) ker(Bbar) is D^(-1) w,
    rescaled to 1 in its last nonzero entry, for each w in basis_b. A
    subspace has exactly one canonical basis, so the two kernels are equal
    exactly when that list equals basis_a. D is the tuple of block scalars.
    """
    if not all(D):
        raise ValueError("scaling map is singular in this characteristic")
    if A.nrows != Bbar.nrows or A.ncols != Bbar.ncols:
        raise ValueError("systems have different shapes")
    if A.ncols != sum(widths):
        raise ValueError("widths do not cover the columns")
    q = A.field.q
    inverse = tuple(A.field.inv(c) for c in D)
    canonical = []
    for w in basis_b:
        v = _scale(q, w, inverse, widths)
        c = A.field.inv(next(x for x in reversed(v) if x))
        canonical.append([x * c % q for x in v])
    return canonical == basis_a
