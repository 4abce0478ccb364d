"""Reed-Solomon codes by evaluation, plus channel and symbol-power maps.

RS(n, k) is the set of words obtained by evaluating every polynomial of
degree below k at n fixed distinct nonzero points, the code locators.
The minimum distance is n - k + 1. Raising a received word symbolwise
to the power i lands in the code of dimension i(k-1) + 1 on the same
locators, which is what lets one received word impersonate a stack of
independently encoded rows. Locators and word symbols are plain int
residues in [0, q).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Iterable

from .field import Field
from .poly import Evaluator, Interpolator, UniPoly, locator_poly, poly_divrem
from .rng import Stream


def default_locators(field: Field, n: int) -> tuple[int, ...]:
    """Consecutive powers 1, alpha, alpha^2, ... of the primitive element."""
    return tuple(pow(field.primitive_element, i, field.q) for i in range(n))


@dataclass(frozen=True)
class CodeSpec:
    field: Field
    n: int
    k: int
    locators: tuple[int, ...] = dc_field(default=())

    def __post_init__(self):
        if not (1 <= self.k <= self.n < self.field.q):
            raise ValueError("need 1 <= k <= n < q")
        locs = self.locators or default_locators(self.field, self.n)
        if len(locs) != self.n:
            raise ValueError("locator count must equal n")
        if not all(isinstance(a, int) and 0 < a < self.field.q for a in locs):
            raise ValueError(f"locators must be ints in (0, {self.field.q})")
        if len(set(locs)) != self.n:
            raise ValueError("locators must be distinct")
        object.__setattr__(self, "locators", tuple(locs))

    @property
    def d(self) -> int:
        return self.n - self.k + 1

    @cached_property
    def vanishing(self) -> UniPoly:
        """G = prod (x - locator_i), zero at every code locator."""
        return locator_poly(self.field, self.locators)

    @cached_property
    def interpolator(self) -> Interpolator:
        """Interpolation on the code locators, built on first use."""
        return Interpolator(self.vanishing, self.locators)

    @cached_property
    def evaluator(self) -> Evaluator:
        """Evaluation at the code locators, built on first use."""
        return Evaluator(self.field, self.locators)

    def positions_of_roots(self, p: UniPoly) -> tuple[int, ...]:
        """Indices i with p(locators[i]) = 0, read off one `evaluator`
        lookup; p of degree n or more is first reduced mod G, which
        vanishes on every locator."""
        if p.degree >= self.n:
            p = poly_divrem(p, self.vanishing)[1]
        return tuple(i for i, v in enumerate(self.evaluator(p.coeffs)) if not v)

    def check_word(self, r: "Word") -> None:
        """Reject, at the decoders' edge, a word not of n symbols over this field."""
        if len(r) != self.n:
            raise ValueError("word length must equal n")
        if r.field != self.field:
            raise ValueError(f"word over {r.field}, code over {self.field}")


class Word:
    """A length-n vector of int residues mod q, reduced on construction."""

    __slots__ = ("field", "symbols")

    def __init__(self, field: Field, symbols: Iterable[int]):
        self.field = field
        self.symbols = tuple(v % field.q for v in symbols)

    @classmethod
    def from_ints(cls, field: Field, ints: Iterable[int]) -> "Word":
        return cls(field, ints)

    def to_ints(self) -> list[int]:
        return list(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    def __iter__(self):
        return iter(self.symbols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.field == other.field and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash((self.field, self.symbols))

    def __repr__(self) -> str:
        return f"Word({self.to_ints()})"


def encode(spec: CodeSpec, f: UniPoly) -> Word:
    if f.field != spec.field:
        raise ValueError("mixed fields")
    if f.degree >= spec.k:
        raise ValueError(f"message degree {f.degree} >= dimension {spec.k}")
    return Word(spec.field, [f.evaluate(a) for a in spec.locators])


def power_word(r: Word, i: int) -> Word:
    if i < 1:
        raise ValueError("power must be positive")
    return Word(r.field, [pow(v, i, r.field.q) for v in r.symbols])


def corrupt(c: Word, e: Word) -> Word:
    if len(c) != len(e):
        raise ValueError("length mismatch")
    if c.field != e.field:
        raise ValueError("mixed fields")
    return Word(c.field, [a + b for a, b in zip(c.symbols, e.symbols)])


def random_error(spec: CodeSpec, wt: int, seed: int) -> Word:
    """Exact-weight error word, fully determined by the seed."""
    if not (0 <= wt <= spec.n):
        raise ValueError(f"weight {wt} out of range [0, {spec.n}]")
    stream = Stream(seed)
    # partial Fisher-Yates picks wt distinct positions
    order = list(range(spec.n))
    for i in range(wt):
        j = i + stream.below(spec.n - i)
        order[i], order[j] = order[j], order[i]
    symbols = [0] * spec.n
    for pos in order[:wt]:
        symbols[pos] = 1 + stream.below(spec.field.q - 1)
    return Word(spec.field, symbols)


def interpolate_word(spec: CodeSpec, w: Word) -> UniPoly:
    """Lagrange polynomial through (locator_i, w_i); degree < n."""
    return UniPoly(spec.field, spec.interpolator([w.symbols])[0])
