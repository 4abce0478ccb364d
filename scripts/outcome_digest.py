#!/usr/bin/env python3
"""Print one sha256 over the full outcomes of wb, virs and mgs on fixed words.

Each word is a random codeword plus a seeded error of a given weight, on a
fixed list of codes that covers s >= q, wide blocks (s(k-1) + 1 = n), k = n,
RS(64,8) and RS(128,8) over GF(257) and a code over GF(65521), the largest
field, where the packed slots of the decode kernel are widest. For every
word and decoder the tuple
(success, f, locator, corrected, error_positions, reason, kernel_dim) is
hashed, so a refactor that claims to keep behaviour can be checked by
running this before and after it: the digest must not move. Runs in one
to two seconds; uses only the standard library and rsdec.
"""

import hashlib

from rsdec import CodeSpec, Field, UniPoly, corrupt, encode, mgs_decode, virs_decode, wb_decode
from rsdec.code import random_error
from rsdec.rng import Stream, derive_seed

SEED = 20240817

# (q, n, k, s, weights, trials per weight)
CODES = (
    (5, 4, 1, 6, range(5), 8),
    (3, 2, 1, 4, range(3), 6),
    (17, 16, 4, 2, range(11), 12),
    (17, 16, 4, 5, range(9), 10),
    (17, 15, 4, 3, range(9), 8),
    (11, 7, 2, 3, range(6), 15),
    (13, 6, 6, 1, range(3), 8),
    (7, 6, 2, 2, range(5), 8),
    (11, 8, 2, 4, range(6), 10),
    (13, 12, 3, 3, range(8), 6),
    (257, 64, 8, 2, (0, 20, 28, 35, 37), 2),
    (257, 128, 8, 3, (60, 84), 2),
    (65521, 40, 4, 2, (0, 18, 23), 2),
)


def coeffs(p):
    return None if p is None else tuple(p.coeffs)


def outcome_row(o):
    corrected = None if o.corrected is None else o.corrected.symbols
    return (o.success, coeffs(o.f), coeffs(o.locator), corrected, o.error_positions, o.reason, o.kernel_dim)


def main():
    digest = hashlib.sha256()
    words = 0
    for index, (q, n, k, s, weights, trials) in enumerate(CODES):
        field = Field(q)
        spec = CodeSpec(field, n, k)
        for w in weights:
            for t in range(trials):
                stream = Stream(derive_seed(SEED, index, w, t))
                f = UniPoly(field, [stream.below(q) for _ in range(k)])
                r = corrupt(encode(spec, f), random_error(spec, w, stream.next64()))
                rows = (outcome_row(wb_decode(spec, r)),
                        outcome_row(virs_decode(spec, r, s)),
                        outcome_row(mgs_decode(spec, r, s)))
                digest.update(repr(rows).encode())
                words += 1
    print(f"{digest.hexdigest()}  {words} words, {len(CODES)} codes")


if __name__ == "__main__":
    main()
