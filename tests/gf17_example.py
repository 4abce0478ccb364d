"""One fully worked instance shared across the golden tests.

RS(16, 4) over GF(17) with primitive element 3, message polynomial
1 + x + x^2 + x^3, and a weight-7 error hitting positions 0..6. The
frozen vectors below were computed by hand-checked independent scripts
before the package existed; the tests hold the package to them.
"""

import rsdec as R
from rsdec.poly import locator_poly

Q17 = 17
ALPHA = 3
N = 16
K = 4
S = 2
TAU = 7  # beyond-half-distance radius at s = 2; half distance is 6

F_COEFFS = [1, 1, 1, 1]

LOCATORS = [1, 3, 9, 10, 13, 5, 15, 11, 16, 14, 8, 7, 4, 12, 2, 6]

CODEWORD = [4, 6, 4, 6, 0, 3, 12, 2, 0, 14, 7, 9, 0, 15, 15, 4]
ERROR = [1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0]
RECEIVED = [5, 8, 7, 10, 5, 9, 2, 2, 0, 14, 7, 9, 0, 15, 15, 4]
RECEIVED_SQ = [8, 13, 15, 15, 8, 13, 4, 4, 0, 9, 15, 13, 0, 4, 4, 16]

ERROR_POSITIONS = (0, 1, 2, 3, 4, 5, 6)

# block widths of the stacked coefficient vector for components t = 0..2
WIDTHS = (14, 11, 8)

# published solution stack (Lambda f^2, Lambda f, Lambda) scaled by 16,
# concatenated in block order t = 0, 1, 2
SOLUTION_STACK = [
    5, 14, 8, 6, 14, 9, 5, 9, 12, 12, 4, 2, 3, 16,
    5, 9, 11, 15, 13, 4, 7, 2, 16, 4, 16,
    5, 4, 2, 4, 3, 12, 5, 16,
]


def field():
    return R.Field(Q17, ALPHA)


def code():
    return R.CodeSpec(field(), N, K)


def instance():
    """(spec, f, codeword, received) for the worked example."""
    spec = code()
    f = R.UniPoly.from_ints(spec.field, F_COEFFS)
    c = R.encode(spec, f)
    e = R.Word.from_ints(spec.field, ERROR)
    return spec, f, c, R.corrupt(c, e)


def locator():
    """Monic locator over the seven erroneous positions."""
    spec = code()
    return locator_poly(spec.field, [spec.locators[i] for i in ERROR_POSITIONS])
