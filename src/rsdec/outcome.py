"""Decoder result type and the stages shared by every decoder.

Every decoder is `mgs.interpolation_decode`: reduce a basis of its
solution module, keep its short rows (shifted degree below the width of
block 0), which span the solutions within the caps, read their top two
blocks only, pick the stack with the lowest-degree locator
(`select_stack`, laying the span out flat with `capped_span` only when
more than one short row has a nonzero locator), split it into
(Lambda, f) with `bivariate.extract_power_factor`, and accept through
`conclude`, which re-encodes f and reads the error positions off the
symbols where the codeword differs from r. The decoders differ only in
their caps and in the block scalars c of the module's last generator and
of a decodable stack Q^(t) = c_t Lambda f^(s-t): ones for virs, D(s) for
mgs and D(1) for wb. The selected stack depends on the space only, not
on the basis it is given (`lowest_locator`): the locator is the unique
monic top block of lowest degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivariate import FactorError
from .code import CodeSpec, Word, encode
from .field import Field
from .poly import UniPoly, split_blocks


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


def select_stack(field: Field, rows, degrees, bound, widths) -> tuple[UniPoly, ...]:
    """The stack with the lowest-degree locator in the span of the x^i b,
    degrees[b] + i < bound, its blocks scaled to make the locator monic.

    `rows` are the short rows of a reduced module basis (degrees below
    `bound`), each given as the blocks `widths` lays out, the top one
    last. When exactly one has a nonzero top block, every other x^i b has
    a zero locator and the x^i b of that row have locators of degree
    deg + i, so the answer is the row itself. Otherwise the span is
    laid out flat (`capped_span`) and reduced by `lowest_locator`.
    """
    tops = [b for b in rows if b[-1]]
    if len(tops) == 1:
        inv = field.inv(tops[0][-1][-1])
        return tuple(UniPoly(field, [c * inv for c in p]) for p in tops[0])
    return lowest_locator(field, capped_span(rows, degrees, bound, widths), widths)


def lowest_locator(field: Field, kernel, widths) -> tuple[UniPoly, ...]:
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


def capped_span(basis, degrees, bound, widths) -> list[list[int]]:
    """Flat vectors x^i b for each row b of a reduced module basis and each
    i with degrees[b] + i <= bound - 1: by the predictable-degree
    property, with bound = w_0 the width of block 0, a basis of the
    module's elements within the caps. Each row is given as the blocks
    `widths` lays out, stripped coefficient lists."""
    return [
        [v for p, width in zip(b, widths) for v in [0] * i + p + [0] * (width - i - len(p))]
        for b, d in zip(basis, degrees)
        for i in range(bound - d)
    ]


def conclude(
    spec: CodeSpec, r: Word, tau: int, locator: UniPoly, f: UniPoly, kernel_dim: int | None = None
) -> DecodeOutcome:
    """Final acceptance gate shared by all decoders.

    Accept the candidate (locator, message) only if c = `encode(spec, f)`,
    which raises unless deg f < k, lies within distance tau of r: no
    decoder reports a codeword farther than its radius. The positions
    where c differs from r are then exactly the roots of Lambda. Lambda
    vanishes there (`extract_power_factor`), and their locator times the
    stack c_t f^(s-t) lies in the span within the caps, so the
    lowest-degree locator that `select_stack` picks has their count as its
    degree. `kernel_dim` is passed through to the outcome.
    """
    c = encode(spec, f)
    errors = tuple(j for j, (a, b) in enumerate(zip(r.symbols, c.symbols)) if a != b)
    if len(errors) > tau:
        return DecodeOutcome.failure(f"corrected word at distance {len(errors)} > radius {tau}", kernel_dim)
    return DecodeOutcome(
        success=True, f=f, locator=locator.monic(), corrected=c, error_positions=errors, kernel_dim=kernel_dim
    )
