from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsdec import Field, nullspace
from rsdec.linalg import Mat, _rref_ints

F5 = Field(5)
F3 = Field(3)


def rank(mat):
    """The pivot count of the reduced row echelon form."""
    return len(_rref_ints(mat.rows, mat.field.q)[1])


def brute_force_kernel(rows, ncols, q):
    """Every kernel vector by exhaustive enumeration; tiny inputs only."""
    out = []
    for vec in product(range(q), repeat=ncols):
        if all(sum(a * v for a, v in zip(row, vec)) % q == 0 for row in rows):
            out.append(vec)
    return set(out)


def spanned(basis, q, ncols):
    """All linear combinations of the basis vectors."""
    out = set()
    for coeffs in product(range(q), repeat=len(basis)):
        vec = [0] * ncols
        for c, b in zip(coeffs, basis):
            for j in range(ncols):
                vec[j] = (vec[j] + c * b[j]) % q
        out.add(tuple(vec))
    return out


small_matrix = st.integers(2, 4).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(0, 2), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=4,
    )
)


@given(small_matrix)
def test_nullspace_spans_exactly_the_kernel(rows):
    ncols = len(rows[0])
    mat = Mat(F3, rows)
    basis = nullspace(mat)
    assert all(type(x) is int and 0 <= x < 3 for vec in basis for x in vec)
    enumerated = brute_force_kernel(rows, ncols, 3)
    assert spanned(basis, 3, ncols) == enumerated


@given(small_matrix)
def test_rank_plus_nullity(rows):
    ncols = len(rows[0])
    mat = Mat(F3, rows)
    assert rank(mat) + len(nullspace(mat)) == ncols


def test_rref_golden():
    mat = Mat(F5, [[2, 1, 0], [0, 1, 1], [1, 0, 1]])  # det = 3, invertible
    reduced, pivots = _rref_ints(mat.rows, 5)
    assert pivots == [0, 1, 2]
    assert reduced == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rref_with_free_column():
    # second column is twice the first, so it stays free
    mat = Mat(F5, [[1, 2, 0], [2, 4, 1]])
    reduced, pivots = _rref_ints(mat.rows, 5)
    assert pivots == [0, 2]
    assert reduced == [[1, 2, 0], [0, 0, 1]]


def test_rref_is_idempotent():
    mat = Mat(F5, [[3, 1, 4], [1, 0, 2]])
    once, piv1 = _rref_ints(mat.rows, 5)
    twice, piv2 = _rref_ints(once, 5)
    assert once == twice
    assert piv1 == piv2


def test_nullspace_vectors_annihilate():
    mat = Mat(F5, [[1, 2, 3, 4], [0, 1, 1, 0]])
    for vec in nullspace(mat):
        assert all(x == 0 for x in mat.mulvec(vec))


def test_nullspace_canonical_free_variable_pattern():
    mat = Mat(F5, [[1, 2, 0, 4], [0, 0, 1, 1]])
    basis = nullspace(mat)
    _, pivots = _rref_ints(mat.rows, 5)
    free = [j for j in range(mat.ncols) if j not in pivots]
    assert len(basis) == len(free)
    for i, vec in enumerate(basis):
        for j, col in enumerate(free):
            assert vec[col] == (1 if i == j else 0)


def test_nullspace_of_zero_rows_is_identity():
    mat = Mat(F5, [[0, 0, 0]])
    basis = nullspace(mat)
    assert len(basis) == 3
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_full_rank_has_trivial_nullspace():
    mat = Mat(F5, [[1, 0], [0, 1], [1, 1]])
    assert nullspace(mat) == []
    assert rank(mat) == 2


def test_mat_validation_and_accessors():
    with pytest.raises(ValueError):
        Mat(F5, [[1, 2], [3]])
    mat = Mat(F5, [[7, -1]])
    assert mat.rows == ((2, 4),)
    with pytest.raises(ValueError):
        mat.mulvec([1])


def test_mulvec():
    mat = Mat(F5, [[1, 2], [3, 4]])
    assert mat.mulvec([1, 1]) == [3, 2]
