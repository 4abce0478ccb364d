"""A matrix-vector product over a prime field, for checking solutions.

The package reads its kernels off canonical bases and never multiplies a
`linalg.Mat` by a vector; the tests do, to check that a vector solves a
system.
"""


def mulvec(mat, vec):
    """mat vec, each entry reduced mod q."""
    if len(vec) != mat.ncols:
        raise ValueError("dimension mismatch")
    q = mat.field.q
    return [sum(a * b for a, b in zip(row, vec)) % q for row in mat.rows]
