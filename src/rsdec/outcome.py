"""Decoder result type and the stages shared by every decoder.

Every decoder is `mgs.interpolation_decode`: reduce a basis of its
solution module and span it within the caps (`capped_span`; together
`mgs.module_kernel`), pick the canonical vector (`canonical_stack`),
split it into (Lambda, f) with `bivariate.extract_power_factor`, and
accept through `conclude`. The decoders differ only in their caps and
in the block scalars c of the module's last generator and of a
decodable stack Q^(t) = c_t Lambda f^(s-t): ones for virs, D(s) for mgs
and D(1) for wb. `select_stack` depends on the space only, not on the
basis it is given: the locator is the unique monic top block of lowest
degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivariate import FactorError
from .code import CodeSpec, Word, corrupt, encode, weight
from .field import Field
from .poly import UniPoly, poly_divrem, split_blocks


@dataclass(frozen=True)
class DecodeOutcome:
    success: bool
    f: UniPoly | None = None
    locator: UniPoly | None = None
    corrected: Word | None = None
    error_positions: tuple[int, ...] = ()
    reason: str | None = None
    kernel_dim: int | None = None

    @classmethod
    def failure(cls, reason: str, kernel_dim: int | None = None) -> "DecodeOutcome":
        return cls(success=False, reason=reason, kernel_dim=kernel_dim)

    def __bool__(self) -> bool:
        return self.success


def select_stack(field: Field, kernel, widths) -> tuple[UniPoly, ...]:
    """Blocks of the kernel vector whose top block has the lowest degree,
    scaled to make that block monic; FactorError("shape") when every top
    block is zero.

    The top blocks are first reduced against each other until no two
    share a degree, so the locator does not depend on the basis given.
    On a canonical `nullspace` basis the top degree of each vector is its
    own free column, the degrees are already distinct and the leading
    coefficients already 1, so the vector is returned as given.
    """
    if not kernel:
        raise FactorError("shape", "interpolation system has no nonzero solution")
    q = field.q
    top = sum(widths[:-1])
    by_degree = {}
    for vec in kernel:
        while True:
            deg = next((j for j in range(len(vec) - 1, top - 1, -1) if vec[j]), None)
            if deg not in by_degree:
                break
            c = vec[deg]
            vec = [(u - c * v) % q for u, v in zip(vec, by_degree[deg])]
        if deg is not None:
            if vec[deg] != 1:
                inv = field.inv(vec[deg])
                vec = [u * inv % q for u in vec]
            by_degree[deg] = vec
    if not by_degree:
        raise FactorError("shape", "no solution with nonzero locator component")
    return split_blocks(field, by_degree[min(by_degree)], widths)


def capped_span(basis, degrees, widths) -> list[list[int]]:
    """Flat vectors x^i b for each row b of a reduced module basis and each
    i with degrees[b] + i <= widths[0] - 1: by the predictable-degree
    property, a basis of the module's elements within the caps."""
    return [
        [v for p, width in zip(b, widths) for v in [0] * i + p + [0] * (width - i - len(p))]
        for b, d in zip(basis, degrees)
        for i in range(widths[0] - d)
    ]


def canonical_stack(spec: CodeSpec, kernel, widths) -> tuple[UniPoly, ...]:
    """The canonical kernel vector: `select_stack`'s, with every block
    wider than n reduced mod G = prod (x - alpha_j), since kernel vectors
    with a zero locator are G-multiples block by block."""
    stack = select_stack(spec.field, kernel, widths)
    return tuple(poly_divrem(p, spec.vanishing)[1] if p.degree >= spec.n else p for p in stack)


def conclude(
    spec: CodeSpec, r: Word, tau: int, locator: UniPoly, f: UniPoly, kernel_dim: int | None = None
) -> DecodeOutcome:
    """Final acceptance gate shared by all decoders.

    Given a candidate (locator, message) pair, accept only if the
    message fits the code dimension and the re-encoded codeword lies
    within distance tau of the received word. A decoder never reports
    a codeword farther than its radius. `kernel_dim` is passed through
    to the outcome.
    """
    if f.degree >= spec.k:
        return DecodeOutcome.failure(f"message degree {f.degree} >= dimension {spec.k}", kernel_dim)
    c = encode(spec, f)
    residual = corrupt(r, Word(spec.field, [-v for v in c.symbols]))
    if weight(residual) > tau:
        return DecodeOutcome.failure(
            f"corrected word at distance {weight(residual)} > radius {tau}", kernel_dim
        )
    return DecodeOutcome(
        success=True,
        f=f,
        locator=locator.monic(),
        corrected=c,
        error_positions=spec.positions_of_roots(locator),
        kernel_dim=kernel_dim,
    )
