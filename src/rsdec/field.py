"""Prime field GF(q) arithmetic.

Field elements are plain ints, canonically residues in [0, q); a Field
holds only the modulus, a primitive element (a generator of the
multiplicative group, used elsewhere as the default source of code
locators) and the one modular inverse, `Field.inv`.
"""

from __future__ import annotations

import math


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def binom_mod(n: int, k: int, q: int) -> int:
    """Binomial coefficient C(n, k) reduced mod q, 0 outside 0 <= k <= n.

    Reduced from the exact integer, so characteristic effects (e.g.
    C(2,1) = 0 over GF(2)) come out right.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k) % q


class Field:
    """GF(q) for prime q up to 2**16, with a fixed primitive element."""

    __slots__ = ("q", "primitive_element")

    def __init__(self, q: int, alpha: int | None = None):
        if not isinstance(q, int) or isinstance(q, bool) or not _is_prime(q):
            raise ValueError(f"modulus must be a prime, got {q!r}")
        if q > 1 << 16:
            raise ValueError(f"modulus {q} exceeds 2**16")
        self.q = q
        if alpha is None:
            alpha = self._smallest_primitive()
        else:
            if not 1 < alpha < q:
                raise ValueError(f"primitive element {alpha} out of range for GF({q})")
            if not self._has_full_order(alpha):
                raise ValueError(f"{alpha} is not primitive in GF({q})")
        self.primitive_element = alpha

    def _has_full_order(self, a: int) -> bool:
        # a generates the multiplicative group iff a^((q-1)/p) != 1 for
        # every prime p dividing q-1.
        return all(pow(a, (self.q - 1) // p, self.q) != 1 for p in _prime_factors(self.q - 1))

    def _smallest_primitive(self) -> int:
        for a in range(1, self.q):
            if self._has_full_order(a):
                return a
        raise AssertionError("unreachable: every prime field has a generator")

    def inv(self, a: int) -> int:
        """The inverse of the residue a mod q; 0 has none."""
        a %= self.q
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self}")
        # Fermat: a^(q-2) a = a^(q-1) = 1 for a != 0.
        return pow(a, self.q - 2, self.q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self.q == other.q and self.primitive_element == other.primitive_element

    def __hash__(self) -> int:
        return hash((self.q, self.primitive_element))

    def __repr__(self) -> str:
        return f"GF({self.q})"

